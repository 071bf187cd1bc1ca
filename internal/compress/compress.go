// Package compress is the per-extent compression layer for cold-tier
// byte reduction: extents compress as they demote to the HDD tier and
// decompress on promote, so the hot path always serves raw bytes while
// the cold tier stores fewer of them.
//
// Two codecs, both stdlib-only: Flate (DEFLATE at BestSpeed — the
// general path) and RLE (a PackBits-style run-length coder — the cheap
// path for columnar payloads, whose fixed-width encodings produce long
// byte runs). Negotiate tries both per extent and keeps the smaller
// output, bailing out to None when neither earns its keep: compressed
// extents that save less than 1/16 of their size are stored raw, so
// incompressible data never pays decompress CPU on every cold read.
//
// CPU time is charged to the virtual clock through a calibrated cost
// model (see Cost/DecompressCost): fixed ns-per-byte constants measured
// offline on a commodity core, never the wall clock, so seeded runs
// replay bit-identically and the latency/bytes tradeoff shows up in
// virtual-time histograms, not just byte counters.
package compress

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"time"
)

// Codec identifies one compression algorithm.
type Codec uint8

const (
	// None stores the extent raw — the incompressible-data bailout.
	None Codec = iota
	// RLE is a PackBits-style run-length coder: a control byte c
	// followed by either c+1 literal bytes (c <= 127) or one byte
	// repeated 257-c times (c >= 129). Cheap enough to be nearly free,
	// and columnar payloads (zero padding, repeated dictionary codes)
	// are exactly the run-heavy inputs it wins on.
	RLE
	// Flate is stdlib DEFLATE at BestSpeed — the general-purpose path.
	Flate
)

func (c Codec) String() string {
	switch c {
	case None:
		return "none"
	case RLE:
		return "rle"
	case Flate:
		return "flate"
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

// Coder is reusable DEFLATE (BestSpeed) state: one flate writer, reset
// for every stream it compresses, and one flate reader, reset through
// flate.Resetter for every stream it inflates. A fresh writer allocates
// hundreds of kilobytes of hash tables and window, a fresh reader tens
// of kilobytes, so work that codes many extents or chunks in a row keeps
// one Coder for the whole job. The zero value is ready to use. A Coder
// is not safe for concurrent use.
//
// Scope a Coder to one operation — a migration pass, a file, a scan —
// and let it die with the operation. Never keep one process-wide or in a
// sync.Pool: a parked coder is live heap that no request is using.
//
// A reset writer emits the same bytes as a fresh one, so reuse never
// changes an encoding.
type Coder struct {
	w   *flate.Writer
	r   io.ReadCloser
	src bytes.Reader
	n   countWriter
}

// countWriter discards what it is given and counts it.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// Deflate writes the DEFLATE stream of data to dst.
func (c *Coder) Deflate(dst io.Writer, data []byte) error {
	if c.w == nil {
		w, err := flate.NewWriter(dst, flate.BestSpeed)
		if err != nil {
			return err
		}
		c.w = w
	} else {
		c.w.Reset(dst)
	}
	if _, err := c.w.Write(data); err != nil {
		return err
	}
	return c.w.Close()
}

// Inflate decompresses the DEFLATE stream in data, appending the output
// to dst (which may be a previous result sliced to zero length, so a
// caller can reuse one scratch buffer).
func (c *Coder) Inflate(dst, data []byte) ([]byte, error) {
	c.src.Reset(data)
	if c.r == nil {
		c.r = flate.NewReader(&c.src)
	} else if err := c.r.(flate.Resetter).Reset(&c.src, nil); err != nil {
		return dst, err
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := c.r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// Negotiate picks the codec for one extent: it encodes data with both
// real codecs and keeps the smaller result, bailing out to None (with
// the raw length) when the best saving is under 1/16 of the input —
// incompressible extents are stored raw rather than paying decompress
// CPU forever for a rounding-error saving. It returns the chosen codec
// and the exact on-device byte count of the extent under it. The flate
// trial only counts its output bytes; it keeps none of them.
func (c *Coder) Negotiate(data []byte) (Codec, int64) {
	raw := int64(len(data))
	if raw == 0 {
		return None, 0
	}
	best, bestLen := None, raw
	if rl := int64(len(rleEncode(data))); rl < bestLen {
		best, bestLen = RLE, rl
	}
	c.n.n = 0
	if err := c.Deflate(&c.n, data); err == nil && c.n.n < bestLen {
		best, bestLen = Flate, c.n.n
	}
	if bestLen >= raw-raw/16 {
		return None, raw
	}
	return best, bestLen
}

// Encode compresses data with the given codec. None returns a copy of
// the input. The output of a given (codec, input) pair is deterministic
// — Negotiate's size decisions and the virtual-byte accounting built on
// them replay identically from a seed.
func Encode(c Codec, data []byte) ([]byte, error) {
	switch c {
	case None:
		return append([]byte(nil), data...), nil
	case RLE:
		return rleEncode(data), nil
	case Flate:
		var buf bytes.Buffer
		if err := new(Coder).Deflate(&buf, data); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	return nil, fmt.Errorf("compress: unknown codec %d", uint8(c))
}

// Decode reverses Encode.
func Decode(c Codec, data []byte) ([]byte, error) {
	switch c {
	case None:
		return append([]byte(nil), data...), nil
	case RLE:
		return rleDecode(data)
	case Flate:
		return new(Coder).Inflate(nil, data)
	}
	return nil, fmt.Errorf("compress: unknown codec %d", uint8(c))
}

// Negotiate picks one extent's codec with a fresh Coder; see
// Coder.Negotiate.
func Negotiate(data []byte) (Codec, int64) { return new(Coder).Negotiate(data) }

// The virtual-CPU cost model. Constants are ns per input byte,
// calibrated offline against stdlib flate and the RLE coder on a ~3 GHz
// core (flate/BestSpeed compresses ~200 MB/s and inflates ~500 MB/s;
// the RLE coder runs roughly an order of magnitude faster). They are
// deliberately constants, not measurements: the simulation charges the
// virtual clock, so the model must replay bit-identically regardless of
// the hardware the process runs on.
const (
	// opOverhead is the fixed per-extent setup cost of one codec
	// invocation (window allocation, table setup).
	opOverhead = 200 * time.Nanosecond

	flateCompressNsPerByte   = 5
	flateDecompressNsPerByte = 2
	// RLE cost is sub-ns per byte; modeled as ns per 4 (compress) and
	// per 8 (decompress) bytes.
	rleCompressBytesPerNs   = 4
	rleDecompressBytesPerNs = 8
)

// Cost returns the virtual CPU time to compress rawLen bytes with the
// codec. None is free: the bailout means no codec ran at serve time.
func Cost(c Codec, rawLen int64) time.Duration {
	if rawLen <= 0 {
		return 0
	}
	switch c {
	case RLE:
		return opOverhead + time.Duration(rawLen/rleCompressBytesPerNs)
	case Flate:
		return opOverhead + time.Duration(rawLen*flateCompressNsPerByte)
	}
	return 0
}

// DecompressCost returns the virtual CPU time to decompress an extent
// back to rawLen bytes.
func DecompressCost(c Codec, rawLen int64) time.Duration {
	if rawLen <= 0 {
		return 0
	}
	switch c {
	case RLE:
		return opOverhead + time.Duration(rawLen/rleDecompressBytesPerNs)
	case Flate:
		return opOverhead + time.Duration(rawLen*flateDecompressNsPerByte)
	}
	return 0
}

// NegotiateCost returns the virtual CPU time Negotiate spends choosing
// a codec for rawLen bytes: both trial encodes run, so the bailout is
// not free — that is the tradeoff the cost model exists to surface.
func NegotiateCost(rawLen int64) time.Duration {
	return Cost(RLE, rawLen) + Cost(Flate, rawLen)
}

// rleEncode is PackBits: runs of 3+ identical bytes become a 2-byte
// (control, value) packet; everything else is copied as literal packets
// of up to 128 bytes. Worst case output is len + ceil(len/128).
func rleEncode(data []byte) []byte {
	out := make([]byte, 0, len(data)/2+8)
	i := 0
	for i < len(data) {
		// Measure the run starting at i.
		j := i + 1
		for j < len(data) && data[j] == data[i] && j-i < 128 {
			j++
		}
		if run := j - i; run >= 3 {
			out = append(out, byte(257-run), data[i])
			i = j
			continue
		}
		// Literal stretch: until the next 3+ run or 128 bytes.
		start := i
		for i < len(data) && i-start < 128 {
			if i+2 < len(data) && data[i] == data[i+1] && data[i] == data[i+2] {
				break
			}
			i++
		}
		out = append(out, byte(i-start-1))
		out = append(out, data[start:i]...)
	}
	return out
}

func rleDecode(data []byte) ([]byte, error) {
	out := make([]byte, 0, len(data)*2)
	for i := 0; i < len(data); {
		c := data[i]
		i++
		if c <= 127 {
			n := int(c) + 1
			if i+n > len(data) {
				return nil, fmt.Errorf("compress: rle literal truncated at %d", i)
			}
			out = append(out, data[i:i+n]...)
			i += n
			continue
		}
		if c == 128 {
			return nil, fmt.Errorf("compress: rle reserved control byte at %d", i-1)
		}
		if i >= len(data) {
			return nil, fmt.Errorf("compress: rle run truncated at %d", i)
		}
		n := 257 - int(c)
		for k := 0; k < n; k++ {
			out = append(out, data[i])
		}
		i++
	}
	return out, nil
}
