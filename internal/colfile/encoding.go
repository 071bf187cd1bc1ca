package colfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"streamlake/internal/compress"
)

// Column chunk encodings. Each chunk is encoded per its column type, then
// DEFLATE-compressed. Integers use zigzag-varint delta coding (log
// timestamps are near-sorted, so deltas are tiny); strings use dictionary
// coding when cardinality is low (province names, URLs); booleans use a
// bitmap; floats are raw little-endian.

const (
	encPlain byte = iota
	encDict
)

func appendInt64Chunk(dst []byte, vals []Value) []byte {
	prev := int64(0)
	for _, v := range vals {
		dst = binary.AppendVarint(dst, v.Int-prev)
		prev = v.Int
	}
	return dst
}

// refill returns dst emptied, with room for n values: dst's own array
// when it is large enough, else a new one of exactly n. The chunk
// decoders append a chunk's n values to refill(dst, n) and return the
// result; a nil dst allocates. On error they return an empty slice, so
// no value of an earlier chunk stays visible.
func refill(dst []Value, n int) []Value {
	if cap(dst) < n {
		return make([]Value, 0, n)
	}
	return dst[:0]
}

func decodeInt64Chunk(dst []Value, data []byte, n int) ([]Value, error) {
	// n is footer-supplied: each varint costs at least one byte.
	if n < 0 || n > len(data) {
		return dst[:0], errors.New("colfile: int64 count exceeds chunk")
	}
	out := refill(dst, n)
	prev := int64(0)
	for i := 0; i < n; i++ {
		d, sz := binary.Varint(data)
		if sz <= 0 {
			return out[:0], errors.New("colfile: truncated int64 chunk")
		}
		data = data[sz:]
		prev += d
		out = append(out, IntValue(prev))
	}
	return out, nil
}

func appendFloat64Chunk(dst []byte, vals []Value) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float))
	}
	return dst
}

func decodeFloat64Chunk(dst []Value, data []byte, n int) ([]Value, error) {
	if len(data) < 8*n {
		return dst[:0], errors.New("colfile: truncated float64 chunk")
	}
	out := refill(dst, n)
	for i := 0; i < n; i++ {
		out = append(out, FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))))
	}
	return out, nil
}

func appendStringChunk(dst []byte, vals []Value) []byte {
	// Try dictionary encoding: worthwhile when distinct values fit a
	// byte and repeat.
	dict := make(map[string]int)
	for _, v := range vals {
		if _, ok := dict[v.Str]; !ok {
			if len(dict) >= 256 {
				dict = nil
				break
			}
			dict[v.Str] = len(dict)
		}
	}
	if dict != nil && len(dict)*2 < len(vals) {
		dst = append(dst, encDict)
		// Dictionary block: count, then each entry.
		words := make([]string, len(dict))
		for w, i := range dict {
			words[i] = w
		}
		dst = binary.AppendUvarint(dst, uint64(len(words)))
		for _, w := range words {
			dst = binary.AppendUvarint(dst, uint64(len(w)))
			dst = append(dst, w...)
		}
		for _, v := range vals {
			dst = append(dst, byte(dict[v.Str]))
		}
		return dst
	}
	dst = append(dst, encPlain)
	for _, v := range vals {
		dst = binary.AppendUvarint(dst, uint64(len(v.Str)))
		dst = append(dst, v.Str...)
	}
	return dst
}

func decodeStringChunk(dst []Value, data []byte, n int) ([]Value, error) {
	if len(data) < 1 {
		return dst[:0], errors.New("colfile: empty string chunk")
	}
	if n < 0 || n > len(data)*8 {
		return dst[:0], errors.New("colfile: string count exceeds chunk")
	}
	enc := data[0]
	data = data[1:]
	out := refill(dst, n)
	switch enc {
	case encDict:
		count, sz := binary.Uvarint(data)
		if sz <= 0 {
			return out[:0], errors.New("colfile: truncated dictionary")
		}
		data = data[sz:]
		// Untrusted dictionary size: entries cost at least one byte.
		if count > uint64(len(data)) {
			return out[:0], errors.New("colfile: dictionary size exceeds chunk")
		}
		// Validate the entries first, then slice every word out of one
		// string copy of the dictionary block: two allocations per
		// chunk rather than one per word.
		rest := data
		for i := uint64(0); i < count; i++ {
			l, sz := binary.Uvarint(rest)
			if sz <= 0 || uint64(len(rest)-sz) < l {
				return out[:0], errors.New("colfile: truncated dictionary entry")
			}
			rest = rest[uint64(sz)+l:]
		}
		block := string(data[:len(data)-len(rest)])
		words := make([]string, count)
		off := 0
		for i := range words {
			l, sz := binary.Uvarint(data[off:])
			off += sz
			words[i] = block[off : off+int(l)]
			off += int(l)
		}
		data = rest
		if len(data) < n {
			return out[:0], errors.New("colfile: truncated dictionary codes")
		}
		for i := 0; i < n; i++ {
			code := int(data[i])
			if code >= len(words) {
				return out[:0], errors.New("colfile: dictionary code out of range")
			}
			out = append(out, StringValue(words[code]))
		}
	case encPlain:
		for i := 0; i < n; i++ {
			l, sz := binary.Uvarint(data)
			if sz <= 0 || uint64(len(data)-sz) < l {
				return out[:0], errors.New("colfile: truncated string")
			}
			data = data[sz:]
			out = append(out, StringValue(string(data[:l])))
			data = data[l:]
		}
	default:
		return out[:0], fmt.Errorf("colfile: unknown string encoding %d", enc)
	}
	return out, nil
}

func appendBoolChunk(dst []byte, vals []Value) []byte {
	var b byte
	for i, v := range vals {
		if v.Bool {
			b |= 1 << (i % 8)
		}
		if i%8 == 7 || i == len(vals)-1 {
			dst = append(dst, b)
			b = 0
		}
	}
	return dst
}

func decodeBoolChunk(dst []Value, data []byte, n int) ([]Value, error) {
	if len(data) < (n+7)/8 {
		return dst[:0], errors.New("colfile: truncated bool chunk")
	}
	out := refill(dst, n)
	for i := 0; i < n; i++ {
		out = append(out, BoolValue(data[i/8]&(1<<(i%8)) != 0))
	}
	return out, nil
}

// Codec is the coder state behind column chunks: one reusable DEFLATE
// coder (a compress.Coder — the writer reset per chunk, the reader reset
// through flate.Resetter) and one scratch buffer for a chunk's
// uncompressed bytes. Without it every chunk would build a fresh flate
// writer (hundreds of kilobytes of tables) or reader (tens of
// kilobytes), so the cost of a file would scale with its chunk count
// rather than its bytes.
//
// The zero value is ready to use. A Codec is not safe for concurrent
// use, and neither are the Writers and Readers built from it. Scope one
// Codec to one operation — a file, a transaction, a scan — never to the
// process: a parked coder is live heap no request is using. The
// package-level NewWriter and Open each take a fresh Codec, which still
// serves every chunk of that file.
type Codec struct {
	fl  compress.Coder
	raw []byte
}

// encodeChunk appends the compressed encoding of one column chunk to
// dst. The output is identical whether or not the Codec has been used
// before.
func (c *Codec) encodeChunk(dst *bytes.Buffer, t Type, vals []Value) error {
	raw := c.raw[:0]
	switch t {
	case Int64:
		raw = appendInt64Chunk(raw, vals)
	case Float64:
		raw = appendFloat64Chunk(raw, vals)
	case String:
		raw = appendStringChunk(raw, vals)
	case Bool:
		raw = appendBoolChunk(raw, vals)
	default:
		return fmt.Errorf("colfile: unknown type %v", t)
	}
	c.raw = raw
	return c.fl.Deflate(dst, raw)
}

// decodeChunk decodes one compressed column chunk of n values into
// dst[:0], in the style of the chunk decoders.
func (c *Codec) decodeChunk(dst []Value, t Type, data []byte, n int) ([]Value, error) {
	raw, err := c.fl.Inflate(c.raw[:0], data)
	c.raw = raw
	if err != nil {
		return dst[:0], fmt.Errorf("colfile: decompress: %w", err)
	}
	switch t {
	case Int64:
		return decodeInt64Chunk(dst, raw, n)
	case Float64:
		return decodeFloat64Chunk(dst, raw, n)
	case String:
		return decodeStringChunk(dst, raw, n)
	case Bool:
		return decodeBoolChunk(dst, raw, n)
	default:
		return dst[:0], fmt.Errorf("colfile: unknown type %v", t)
	}
}

// Value wire encoding used in footers (stats) and by the row codec.

// AppendValue appends the wire encoding of v to buf. Together with
// ReadValue it is the shared typed-value codec used by file footers and
// by table-object commit metadata.
func AppendValue(buf []byte, v Value) []byte { return appendValue(buf, v) }

// ReadValue decodes one value from data, returning the remaining bytes.
func ReadValue(data []byte) (Value, []byte, error) { return readValue(data, "") }

func appendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.Type))
	var tmp [binary.MaxVarintLen64]byte
	switch v.Type {
	case Int64:
		n := binary.PutVarint(tmp[:], v.Int)
		buf = append(buf, tmp[:n]...)
	case Float64:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.Float))
		buf = append(buf, b[:]...)
	case String:
		n := binary.PutUvarint(tmp[:], uint64(len(v.Str)))
		buf = append(buf, tmp[:n]...)
		buf = append(buf, v.Str...)
	case Bool:
		if v.Bool {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// readValue decodes one value from data. A string value is copied out
// of data, unless text is non-empty: then data must be a suffix of
// text's bytes, and the string is sliced from text without a copy.
func readValue(data []byte, text string) (Value, []byte, error) {
	if len(data) < 1 {
		return Value{}, nil, errors.New("colfile: truncated value")
	}
	t := Type(data[0])
	data = data[1:]
	switch t {
	case Int64:
		i, sz := binary.Varint(data)
		if sz <= 0 {
			return Value{}, nil, errors.New("colfile: truncated int value")
		}
		return IntValue(i), data[sz:], nil
	case Float64:
		if len(data) < 8 {
			return Value{}, nil, errors.New("colfile: truncated float value")
		}
		return FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(data))), data[8:], nil
	case String:
		l, sz := binary.Uvarint(data)
		if sz <= 0 || uint64(len(data)-sz) < l {
			return Value{}, nil, errors.New("colfile: truncated string value")
		}
		data = data[sz:]
		if text != "" {
			start := len(text) - len(data)
			return StringValue(text[start : start+int(l)]), data[l:], nil
		}
		return StringValue(string(data[:l])), data[l:], nil
	case Bool:
		if len(data) < 1 {
			return Value{}, nil, errors.New("colfile: truncated bool value")
		}
		return BoolValue(data[0] != 0), data[1:], nil
	default:
		return Value{}, nil, fmt.Errorf("colfile: unknown value type %d", t)
	}
}
