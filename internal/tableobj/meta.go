package tableobj

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/rowcodec"
)

// DataFile is the file-level metadata a commit records: path, partition,
// record counts and per-column value ranges (the statistics commits
// carry for data skipping at the file level).
type DataFile struct {
	Path      string
	Partition string
	Rows      int64
	Bytes     int64
	Min, Max  []colfile.Value // aligned with the table schema

	// Zones are optional per-row-group value ranges (zone maps): finer
	// statistics than Min/Max that let planning prune a file when no
	// single row group can satisfy a predicate, even though the file's
	// overall range overlaps it. Empty on files written without zone
	// maps enabled.
	Zones []ZoneMap
	// Blooms are optional per-column membership filters consulted by
	// equality predicates; nil entries mean no filter for that column.
	Blooms []*Bloom
}

// ZoneMap is one row group's per-column value range, aligned with the
// table schema.
type ZoneMap struct {
	Min, Max []colfile.Value
}

// Overlaps reports whether the file's value range for column c can
// intersect [lo, hi] (nil bounds are unbounded).
func (f DataFile) Overlaps(c int, lo, hi *colfile.Value) bool {
	if c < 0 || c >= len(f.Min) {
		return true // no stats for the column: cannot skip
	}
	if lo != nil && colfile.Compare(f.Max[c], *lo) < 0 {
		return false
	}
	if hi != nil && colfile.Compare(f.Min[c], *hi) > 0 {
		return false
	}
	return true
}

// FileOp is one entry in a commit: a data file added or removed.
type FileOp struct {
	Add  bool
	File DataFile
}

// Commit is the paper's commit file: file-level metadata and statistics
// recording the changes of one insert/update/delete operation.
type Commit struct {
	ID        int64
	Timestamp time.Duration
	Ops       []FileOp
}

// Snapshot is the paper's snapshot index file: the set of valid commits
// for a time period, the current complete file manifest, and operation
// log statistics (rows/files added and removed).
type Snapshot struct {
	ID           int64
	ParentID     int64
	Timestamp    time.Duration
	CommitIDs    []int64
	Files        []DataFile
	RowCount     int64
	AddedFiles   int64
	RemovedFiles int64
	AddedRows    int64
	RemovedRows  int64
}

var commitSchema = colfile.MustSchema(
	"op:string", "path:string", "partition:string", "rows:int64", "bytes:int64", "stats:string")

// statsV2Marker introduces the extended stats encoding (zone maps and
// bloom filters appended after the legacy min/max pairs). The legacy
// encoding starts with a uvarint column count, whose first byte is 0xFF
// only for a multi-byte count of 127+ columns — no real schema — so the
// marker is unambiguous. Files with no zones and no blooms keep the
// legacy encoding byte-for-byte, which keeps metadata (and replay
// digests) identical when zone maps are off.
const statsV2Marker = 0xFF

func encodeStats(f DataFile) string {
	var buf []byte
	v2 := len(f.Zones) > 0 || len(f.Blooms) > 0
	if v2 {
		buf = append(buf, statsV2Marker)
	}
	buf = binary.AppendUvarint(buf, uint64(len(f.Min)))
	for i := range f.Min {
		buf = colfile.AppendValue(buf, f.Min[i])
		buf = colfile.AppendValue(buf, f.Max[i])
	}
	if !v2 {
		return string(buf)
	}
	buf = binary.AppendUvarint(buf, uint64(len(f.Zones)))
	for _, z := range f.Zones {
		buf = binary.AppendUvarint(buf, uint64(len(z.Min)))
		for i := range z.Min {
			buf = colfile.AppendValue(buf, z.Min[i])
			buf = colfile.AppendValue(buf, z.Max[i])
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(f.Blooms)))
	for _, b := range f.Blooms {
		buf = appendBloom(buf, b)
	}
	return string(buf)
}

func decodeStats(s string, f *DataFile) error {
	data := []byte(s)
	v2 := len(data) > 0 && data[0] == statsV2Marker
	if v2 {
		data = data[1:]
	}
	var err error
	f.Min, f.Max, data, err = readRange(data)
	if err != nil {
		return err
	}
	if !v2 {
		return nil
	}
	groups, sz := binary.Uvarint(data)
	if sz <= 0 {
		return errors.New("tableobj: truncated zone maps")
	}
	data = data[sz:]
	// Untrusted count: each zone costs at least one byte.
	if groups > uint64(len(data))+1 {
		return errors.New("tableobj: zone count exceeds stats size")
	}
	for i := uint64(0); i < groups; i++ {
		var z ZoneMap
		z.Min, z.Max, data, err = readRange(data)
		if err != nil {
			return err
		}
		f.Zones = append(f.Zones, z)
	}
	cols, sz := binary.Uvarint(data)
	if sz <= 0 {
		return errors.New("tableobj: truncated bloom list")
	}
	data = data[sz:]
	if cols > uint64(len(data))+1 {
		return errors.New("tableobj: bloom count exceeds stats size")
	}
	for i := uint64(0); i < cols; i++ {
		var b *Bloom
		b, data, err = readBloom(data)
		if err != nil {
			return err
		}
		f.Blooms = append(f.Blooms, b)
	}
	return nil
}

// readRange parses one count-prefixed sequence of min/max value pairs
// into the two halves of one slab.
func readRange(data []byte) (min, max []colfile.Value, rest []byte, err error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, nil, nil, errors.New("tableobj: truncated stats")
	}
	data = data[sz:]
	if n == 0 {
		return nil, nil, data, nil
	}
	// Untrusted count: each encoded value costs at least two bytes.
	if n > uint64(len(data))/4 {
		return nil, nil, nil, errors.New("tableobj: stats count exceeds stats size")
	}
	slab := make([]colfile.Value, 2*n)
	min, max = slab[:n:n], slab[n:]
	for i := range min {
		if min[i], data, err = colfile.ReadValue(data); err != nil {
			return nil, nil, nil, err
		}
		if max[i], data, err = colfile.ReadValue(data); err != nil {
			return nil, nil, nil, err
		}
	}
	return min, max, data, nil
}

func fileToRow(op string, f DataFile) colfile.Row {
	return colfile.Row{
		colfile.StringValue(op),
		colfile.StringValue(f.Path),
		colfile.StringValue(f.Partition),
		colfile.IntValue(f.Rows),
		colfile.IntValue(f.Bytes),
		colfile.StringValue(encodeStats(f)),
	}
}

func rowToFile(r colfile.Row) (string, DataFile, error) {
	f := DataFile{
		Path:      r[1].Str,
		Partition: r[2].Str,
		Rows:      r[3].Int,
		Bytes:     r[4].Int,
	}
	if err := decodeStats(r[5].Str, &f); err != nil {
		return "", DataFile{}, err
	}
	return r[0].Str, f, nil
}

// EncodeCommit serializes a commit file.
func EncodeCommit(c Commit) ([]byte, error) {
	var hdr []byte
	hdr = binary.AppendVarint(hdr, c.ID)
	hdr = binary.AppendVarint(hdr, int64(c.Timestamp))
	rows := make([]colfile.Row, len(c.Ops))
	for i, op := range c.Ops {
		kind := "add"
		if !op.Add {
			kind = "remove"
		}
		rows[i] = fileToRow(kind, op.File)
	}
	batch, err := rowcodec.Encode(commitSchema, rows)
	if err != nil {
		return nil, err
	}
	return append(hdr, batch...), nil
}

// DecodeCommit parses a commit file.
func DecodeCommit(data []byte) (Commit, error) {
	var c Commit
	id, sz := binary.Varint(data)
	if sz <= 0 {
		return c, errors.New("tableobj: truncated commit id")
	}
	data = data[sz:]
	ts, sz := binary.Varint(data)
	if sz <= 0 {
		return c, errors.New("tableobj: truncated commit timestamp")
	}
	data = data[sz:]
	c.ID, c.Timestamp = id, time.Duration(ts)
	schema, rows, err := rowcodec.Decode(data)
	if err != nil {
		return c, err
	}
	if !schema.Equal(commitSchema) {
		return c, errors.New("tableobj: commit batch has wrong schema")
	}
	for _, r := range rows {
		kind, f, err := rowToFile(r)
		if err != nil {
			return c, err
		}
		c.Ops = append(c.Ops, FileOp{Add: kind == "add", File: f})
	}
	return c, nil
}

var snapshotFileSchema = colfile.MustSchema(
	"path:string", "partition:string", "rows:int64", "bytes:int64", "stats:string")

// EncodeSnapshot serializes a snapshot index file.
func EncodeSnapshot(s Snapshot) ([]byte, error) {
	var hdr []byte
	for _, v := range []int64{s.ID, s.ParentID, int64(s.Timestamp), s.RowCount,
		s.AddedFiles, s.RemovedFiles, s.AddedRows, s.RemovedRows} {
		hdr = binary.AppendVarint(hdr, v)
	}
	hdr = binary.AppendUvarint(hdr, uint64(len(s.CommitIDs)))
	for _, id := range s.CommitIDs {
		hdr = binary.AppendVarint(hdr, id)
	}
	rows := make([]colfile.Row, len(s.Files))
	for i, f := range s.Files {
		r := fileToRow("", f)
		rows[i] = r[1:] // drop the op column
	}
	batch, err := rowcodec.Encode(snapshotFileSchema, rows)
	if err != nil {
		return nil, err
	}
	return append(hdr, batch...), nil
}

// DecodeSnapshot parses a snapshot index file.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	read := func() (int64, error) {
		v, sz := binary.Varint(data)
		if sz <= 0 {
			return 0, errors.New("tableobj: truncated snapshot header")
		}
		data = data[sz:]
		return v, nil
	}
	fields := []*int64{&s.ID, &s.ParentID, nil, &s.RowCount, &s.AddedFiles, &s.RemovedFiles, &s.AddedRows, &s.RemovedRows}
	for i, p := range fields {
		v, err := read()
		if err != nil {
			return s, err
		}
		if i == 2 {
			s.Timestamp = time.Duration(v)
		} else {
			*p = v
		}
	}
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return s, errors.New("tableobj: truncated commit list")
	}
	data = data[sz:]
	for i := uint64(0); i < n; i++ {
		id, err := read()
		if err != nil {
			return s, err
		}
		s.CommitIDs = append(s.CommitIDs, id)
	}
	schema, rows, err := rowcodec.Decode(data)
	if err != nil {
		return s, err
	}
	if !schema.Equal(snapshotFileSchema) {
		return s, errors.New("tableobj: snapshot batch has wrong schema")
	}
	// rowToFile reads the commit layout: one op column, then the
	// snapshot's. One row serves every file.
	full := make(colfile.Row, 1+len(snapshotFileSchema.Fields))
	for _, r := range rows {
		copy(full[1:], r)
		_, f, err := rowToFile(full)
		if err != nil {
			return s, err
		}
		s.Files = append(s.Files, f)
	}
	return s, nil
}

// CommitPath returns the metadata path of commit id under tablePath.
func CommitPath(tablePath string, id int64) string {
	return fmt.Sprintf("%s/metadata/commits/%012d.avro", tablePath, id)
}

// SnapshotPath returns the metadata path of snapshot id under tablePath.
func SnapshotPath(tablePath string, id int64) string {
	return fmt.Sprintf("%s/metadata/snapshots/%012d.idx", tablePath, id)
}

// DataPath returns the data-file path for a partition and file id.
func DataPath(tablePath, partition string, id int64) string {
	if partition == "" {
		partition = "default"
	}
	return fmt.Sprintf("%s/data/%s/%012d.col", tablePath, partition, id)
}
