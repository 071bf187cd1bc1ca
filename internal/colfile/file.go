package colfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// File layout:
//
//	magic "SLCF" | version u8
//	row-group chunks, column-major within each group
//	footer: schema, row-group directory (offsets, lengths, stats)
//	footer length u32 | magic "SLCF"
//
// The footer carries per-row-group, per-column min/max/count statistics —
// the "footers in the Parquet files contain statistics to support data
// skipping within the file" of Section IV-B.

var magic = []byte("SLCF")

const version = 1

// DefaultRowGroupSize is the default rows per group.
const DefaultRowGroupSize = 8192

// Stats summarizes one column within one row group.
type Stats struct {
	Min, Max Value
	Count    int64
}

// Overlaps reports whether a value range [lo, hi] (inclusive; either may
// be nil for unbounded) can intersect this column's values, the data
// skipping primitive.
func (s Stats) Overlaps(lo, hi *Value) bool {
	if s.Count == 0 {
		return false
	}
	if lo != nil && Compare(s.Max, *lo) < 0 {
		return false
	}
	if hi != nil && Compare(s.Min, *hi) > 0 {
		return false
	}
	return true
}

type chunkRef struct {
	offset int64
	length int64
}

type groupMeta struct {
	rows   int
	chunks []chunkRef
	stats  []Stats
}

// Writer accumulates rows and serializes a columnar file.
type Writer struct {
	codec     *Codec
	schema    Schema
	groupSize int
	buf       bytes.Buffer
	pending   []Row
	col       []Value // one column of the pending group, reused per column
	groups    []groupMeta
	numRows   int64
	finished  bool
}

// NewWriter builds a writer for the schema with a fresh Codec;
// groupSize <= 0 selects DefaultRowGroupSize.
func NewWriter(schema Schema, groupSize int) *Writer {
	return new(Codec).NewWriter(schema, groupSize)
}

// NewWriter builds a writer for the schema that compresses its chunks
// through c; groupSize <= 0 selects DefaultRowGroupSize.
func (c *Codec) NewWriter(schema Schema, groupSize int) *Writer {
	if groupSize <= 0 {
		groupSize = DefaultRowGroupSize
	}
	w := &Writer{codec: c, schema: schema, groupSize: groupSize}
	w.buf.Write(magic)
	w.buf.WriteByte(version)
	return w
}

// Append validates and buffers one row, flushing a row group when full.
func (w *Writer) Append(row Row) error {
	if w.finished {
		return errors.New("colfile: append after Finish")
	}
	if err := w.schema.Validate(row); err != nil {
		return err
	}
	w.pending = append(w.pending, row)
	w.numRows++
	if len(w.pending) >= w.groupSize {
		return w.flushGroup()
	}
	return nil
}

func (w *Writer) flushGroup() error {
	if len(w.pending) == 0 {
		return nil
	}
	g := groupMeta{rows: len(w.pending)}
	for c, f := range w.schema.Fields {
		col := w.col[:0]
		for _, r := range w.pending {
			col = append(col, r[c])
		}
		w.col = col
		st := Stats{Min: col[0], Max: col[0], Count: int64(len(col))}
		for _, v := range col[1:] {
			if Compare(v, st.Min) < 0 {
				st.Min = v
			}
			if Compare(v, st.Max) > 0 {
				st.Max = v
			}
		}
		off := w.buf.Len()
		if err := w.codec.encodeChunk(&w.buf, f.Type, col); err != nil {
			return err
		}
		g.chunks = append(g.chunks, chunkRef{offset: int64(off), length: int64(w.buf.Len() - off)})
		g.stats = append(g.stats, st)
	}
	w.groups = append(w.groups, g)
	w.pending = w.pending[:0]
	return nil
}

// NumRows reports the rows appended so far.
func (w *Writer) NumRows() int64 { return w.numRows }

// Finish flushes the last group, writes the footer, and returns the
// complete file bytes. The writer cannot be reused.
func (w *Writer) Finish() ([]byte, error) {
	if w.finished {
		return nil, errors.New("colfile: double Finish")
	}
	if err := w.flushGroup(); err != nil {
		return nil, err
	}
	w.finished = true

	var f []byte
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		f = append(f, tmp[:n]...)
	}
	// Schema.
	putUvarint(uint64(len(w.schema.Fields)))
	for _, fd := range w.schema.Fields {
		putUvarint(uint64(len(fd.Name)))
		f = append(f, fd.Name...)
		f = append(f, byte(fd.Type))
	}
	// Groups.
	putUvarint(uint64(len(w.groups)))
	for _, g := range w.groups {
		putUvarint(uint64(g.rows))
		for c := range w.schema.Fields {
			putUvarint(uint64(g.chunks[c].offset))
			putUvarint(uint64(g.chunks[c].length))
			st := g.stats[c]
			f = appendValue(f, st.Min)
			f = appendValue(f, st.Max)
			putUvarint(uint64(st.Count))
		}
	}
	w.buf.Write(f)
	var trailer [8]byte
	binary.LittleEndian.PutUint32(trailer[:4], uint32(len(f)))
	copy(trailer[4:], magic)
	w.buf.Write(trailer[:])
	return w.buf.Bytes(), nil
}

// Reader provides random and scanning access to a columnar file held in
// memory.
type Reader struct {
	codec  *Codec
	data   []byte
	schema Schema
	groups []groupMeta
}

// Open parses a file produced by Writer.Finish; its chunks decode
// through a fresh Codec.
func Open(data []byte) (*Reader, error) { return new(Codec).Open(data) }

// Open parses a file produced by Writer.Finish; its chunks decode
// through c.
func (c *Codec) Open(data []byte) (*Reader, error) {
	if len(data) < len(magic)+1+8 || !bytes.Equal(data[:4], magic) || !bytes.Equal(data[len(data)-4:], magic) {
		return nil, errors.New("colfile: bad magic")
	}
	if data[4] != version {
		return nil, fmt.Errorf("colfile: unsupported version %d", data[4])
	}
	footerLen := binary.LittleEndian.Uint32(data[len(data)-8 : len(data)-4])
	if int(footerLen) > len(data)-8 {
		return nil, errors.New("colfile: footer length out of range")
	}
	f := data[len(data)-8-int(footerLen) : len(data)-8]
	// Field names and string statistics are sliced from one copy of the
	// footer, so parsing allocates per file, not per group or column.
	text := string(f)

	readUvarint := func() (uint64, error) {
		v, sz := binary.Uvarint(f)
		if sz <= 0 {
			return 0, errors.New("colfile: truncated footer")
		}
		f = f[sz:]
		return v, nil
	}
	nf, err := readUvarint()
	if err != nil {
		return nil, err
	}
	// Untrusted field count: each field costs at least two bytes.
	if nf > uint64(len(f))/2 {
		return nil, errors.New("colfile: field count exceeds footer")
	}
	schema := Schema{Fields: make([]Field, 0, nf)}
	for i := uint64(0); i < nf; i++ {
		nl, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if uint64(len(f)) < nl+1 {
			return nil, errors.New("colfile: truncated footer schema")
		}
		start := len(text) - len(f)
		name := text[start : start+int(nl)]
		t := Type(f[nl])
		f = f[nl+1:]
		schema.Fields = append(schema.Fields, Field{Name: name, Type: t})
	}
	ng, err := readUvarint()
	if err != nil {
		return nil, err
	}
	// Untrusted group count: a group costs at least one byte for its row
	// count and seven per column (offset, length and count varints, and
	// two typed values of at least two bytes each). Every group's chunk
	// refs and stats are carved from one slab each.
	nc := len(schema.Fields)
	if ng > uint64(len(f))/(1+7*uint64(nc)) {
		return nil, errors.New("colfile: group count exceeds footer")
	}
	chunks := make([]chunkRef, int(ng)*nc)
	stats := make([]Stats, int(ng)*nc)
	r := &Reader{codec: c, data: data, schema: schema, groups: make([]groupMeta, ng)}
	for i := range r.groups {
		rows, err := readUvarint()
		if err != nil {
			return nil, err
		}
		// Untrusted row count: guard the int conversion. Per-chunk
		// decoders validate the count against the decompressed data
		// (compression makes tighter file-size bounds unsound).
		if rows > 1<<31 {
			return nil, errors.New("colfile: group row count out of range")
		}
		g := groupMeta{
			rows:   int(rows),
			chunks: chunks[i*nc : (i+1)*nc : (i+1)*nc],
			stats:  stats[i*nc : (i+1)*nc : (i+1)*nc],
		}
		for c := range g.chunks {
			off, err := readUvarint()
			if err != nil {
				return nil, err
			}
			length, err := readUvarint()
			if err != nil {
				return nil, err
			}
			st := &g.stats[c]
			if st.Min, f, err = readValue(f, text); err != nil {
				return nil, err
			}
			if st.Max, f, err = readValue(f, text); err != nil {
				return nil, err
			}
			cnt, err := readUvarint()
			if err != nil {
				return nil, err
			}
			st.Count = int64(cnt)
			g.chunks[c] = chunkRef{offset: int64(off), length: int64(length)}
		}
		r.groups[i] = g
	}
	return r, nil
}

// Schema returns the file's schema.
func (r *Reader) Schema() Schema { return r.schema }

// NumRowGroups returns the row-group count.
func (r *Reader) NumRowGroups() int { return len(r.groups) }

// NumRows returns the total row count from the footer (no data read).
func (r *Reader) NumRows() int64 {
	var n int64
	for _, g := range r.groups {
		n += int64(g.rows)
	}
	return n
}

// GroupRows returns the row count of group g.
func (r *Reader) GroupRows(g int) int { return r.groups[g].rows }

// GroupStats returns the statistics of column c in group g.
func (r *Reader) GroupStats(g, c int) Stats { return r.groups[g].stats[c] }

// GroupBytes returns the encoded size of group g across all columns,
// used for byte-level skipping accounting (Figure 16-b).
func (r *Reader) GroupBytes(g int) int64 {
	var n int64
	for _, ch := range r.groups[g].chunks {
		n += ch.length
	}
	return n
}

// ReadColumn decodes column c of group g into a new slice.
func (r *Reader) ReadColumn(g, c int) ([]Value, error) {
	return r.readColumn(nil, g, c)
}

// readColumn decodes column c of group g into dst[:0].
func (r *Reader) readColumn(dst []Value, g, c int) ([]Value, error) {
	gm := r.groups[g]
	ch := gm.chunks[c]
	if ch.offset+ch.length > int64(len(r.data)) {
		return dst[:0], errors.New("colfile: chunk out of range")
	}
	return r.codec.decodeChunk(dst, r.schema.Fields[c].Type, r.data[ch.offset:ch.offset+ch.length], gm.rows)
}

// ReadGroup decodes the named columns (nil means all) of group g into
// dst and returns it: column-major values aligned with cols. dst is
// refilled in place, reusing its column slices' capacity; nil allocates
// fresh ones. Values from an earlier call through the same dst are
// overwritten, so a caller that reuses dst must copy what it retains.
// On error the returned slice is empty but keeps dst's capacity.
func (r *Reader) ReadGroup(g int, cols []int, dst [][]Value) ([][]Value, error) {
	n := len(cols)
	if cols == nil {
		n = len(r.schema.Fields)
	}
	if cap(dst) < n {
		// Keep the column buffers beyond len(dst) for reuse.
		dst = append(dst[:cap(dst)], make([][]Value, n-cap(dst))...)
	}
	dst = dst[:n]
	for i := range dst {
		c := i
		if cols != nil {
			c = cols[i]
		}
		var err error
		if dst[i], err = r.readColumn(dst[i], g, c); err != nil {
			return dst[:0], err
		}
	}
	return dst, nil
}

// Scan iterates every row in order; fn returning false stops the scan.
// Each row is a fresh slice the callback may retain.
func (r *Reader) Scan(fn func(Row) bool) error {
	var cols [][]Value // reused across groups: rows are copied out
	for g := range r.groups {
		var err error
		if cols, err = r.ReadGroup(g, nil, cols); err != nil {
			return err
		}
		for i := 0; i < r.groups[g].rows; i++ {
			row := make(Row, len(cols))
			for c := range cols {
				row[c] = cols[c][i]
			}
			if !fn(row) {
				return nil
			}
		}
	}
	return nil
}
