package compress

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func roundTrip(t *testing.T, c Codec, data []byte) int64 {
	t.Helper()
	enc, err := Encode(c, data)
	if err != nil {
		t.Fatalf("Encode(%v): %v", c, err)
	}
	dec, err := Decode(c, enc)
	if err != nil {
		t.Fatalf("Decode(%v): %v", c, err)
	}
	if !bytes.Equal(dec, data) {
		t.Fatalf("%v round-trip mismatch: %d bytes in, %d out", c, len(data), len(dec))
	}
	return int64(len(enc))
}

func TestRoundTripAllCodecs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	random := make([]byte, 4096)
	rng.Read(random)
	inputs := [][]byte{
		nil,
		{},
		{0x7f},
		[]byte("hello"),
		[]byte(strings.Repeat("a", 1000)),
		[]byte(strings.Repeat("key-000123|value|", 500)),
		bytes.Repeat([]byte{0, 0, 0, 1}, 512), // columnar-ish: runs of zero padding
		random,
		append(bytes.Repeat([]byte{9}, 300), random[:300]...),
	}
	for _, c := range []Codec{None, RLE, Flate} {
		for i, in := range inputs {
			if n := roundTrip(t, c, in); c == None && n != int64(len(in)) {
				t.Fatalf("input %d: None changed length %d -> %d", i, len(in), n)
			}
		}
	}
}

func TestRLECompressesRuns(t *testing.T) {
	data := bytes.Repeat([]byte{0}, 4096)
	enc, err := Encode(RLE, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(data)/16 {
		t.Fatalf("RLE left %d of %d bytes on an all-zero input", len(enc), len(data))
	}
}

func TestRLEWorstCaseBounded(t *testing.T) {
	// Alternating bytes have no runs; PackBits overhead is one control
	// byte per 128 literals.
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i & 1)
	}
	enc, err := Encode(RLE, data)
	if err != nil {
		t.Fatal(err)
	}
	if max := len(data) + (len(data)+127)/128; len(enc) > max {
		t.Fatalf("RLE worst case %d exceeds bound %d", len(enc), max)
	}
}

func TestRLEDecodeRejectsTruncated(t *testing.T) {
	for _, bad := range [][]byte{
		{5},            // literal header promising 6 bytes, none follow
		{200},          // run header with no value byte
		{128},          // reserved control byte
		{1, 'a'},       // literal truncated after 1 of 2
		{0, 'a', 3, 1}, // second literal packet truncated
	} {
		if _, err := rleDecode(bad); err == nil {
			t.Fatalf("rleDecode(%v) accepted truncated input", bad)
		}
	}
}

func TestNegotiatePicksSmallerCodec(t *testing.T) {
	runs := bytes.Repeat([]byte{7}, 8192)
	c, n := Negotiate(runs)
	if c == None {
		t.Fatalf("Negotiate bailed out on an all-run input")
	}
	if n >= int64(len(runs))/4 {
		t.Fatalf("Negotiate kept %d of %d bytes on an all-run input", n, len(runs))
	}
	// The reported length must be the real encoded length.
	enc, err := Encode(c, runs)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(enc)) != n {
		t.Fatalf("Negotiate reported %d bytes, Encode produced %d", n, len(enc))
	}

	text := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 200))
	c, n = Negotiate(text)
	if c != Flate {
		t.Fatalf("Negotiate chose %v for english text, want flate", c)
	}
	if n >= int64(len(text)) {
		t.Fatalf("flate did not shrink text: %d -> %d", len(text), n)
	}
}

func TestNegotiateBailsOutOnIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 16384)
	rng.Read(data)
	c, n := Negotiate(data)
	if c != None {
		t.Fatalf("Negotiate chose %v for random bytes, want None", c)
	}
	if n != int64(len(data)) {
		t.Fatalf("None bailout reported %d bytes, want raw %d", n, len(data))
	}
}

func TestNegotiateEmpty(t *testing.T) {
	if c, n := Negotiate(nil); c != None || n != 0 {
		t.Fatalf("Negotiate(nil) = %v, %d", c, n)
	}
}

func TestCostModelDeterministicAndMonotonic(t *testing.T) {
	for _, c := range []Codec{RLE, Flate} {
		if Cost(c, 0) != 0 || DecompressCost(c, 0) != 0 {
			t.Fatalf("%v: zero-length extents must cost nothing", c)
		}
		if Cost(c, 1<<20) != Cost(c, 1<<20) {
			t.Fatalf("%v: cost not deterministic", c)
		}
		if Cost(c, 1<<20) <= Cost(c, 1<<10) {
			t.Fatalf("%v: cost not monotonic in length", c)
		}
		if DecompressCost(c, 1<<20) >= Cost(Flate, 1<<20)+Cost(RLE, 1<<20) {
			t.Fatalf("%v: decompress should undercut the negotiate trial", c)
		}
	}
	if Cost(None, 1<<20) != 0 || DecompressCost(None, 1<<20) != 0 {
		t.Fatal("None must be free: the bailout means no codec runs at serve time")
	}
	if NegotiateCost(1<<20) != Cost(RLE, 1<<20)+Cost(Flate, 1<<20) {
		t.Fatal("NegotiateCost must charge both trial encodes")
	}
	// RLE exists to be the cheap path.
	if Cost(RLE, 1<<20) >= Cost(Flate, 1<<20) {
		t.Fatal("RLE compress must be cheaper than flate")
	}
	if DecompressCost(RLE, 1<<20) >= DecompressCost(Flate, 1<<20) {
		t.Fatal("RLE decompress must be cheaper than flate")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	data := []byte(strings.Repeat("columnar payload 0123456789 ", 300))
	for _, c := range []Codec{RLE, Flate} {
		a, err := Encode(c, data)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Encode(c, data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%v: encode not deterministic", c)
		}
	}
}

func TestFuzzishRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		n := rng.Intn(2000)
		data := make([]byte, n)
		// Mix run-heavy and random segments.
		for j := 0; j < n; {
			if rng.Intn(2) == 0 {
				run := rng.Intn(64) + 1
				b := byte(rng.Intn(4))
				for k := 0; k < run && j < n; k++ {
					data[j] = b
					j++
				}
			} else {
				data[j] = byte(rng.Intn(256))
				j++
			}
		}
		for _, c := range []Codec{RLE, Flate} {
			roundTrip(t, c, data)
		}
		c, clen := Negotiate(data)
		if c == None {
			if clen != int64(n) {
				t.Fatalf("bailout length %d != raw %d", clen, n)
			}
			continue
		}
		enc, err := Encode(c, data)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(enc)) != clen {
			t.Fatalf("negotiated %v length %d, encode gave %d", c, clen, len(enc))
		}
	}
}

// One Coder reused across many extents must give exactly what a fresh
// coder gives per extent — the same flate bytes, the same negotiated
// codec and length — and must recover from a corrupt stream.
func TestCoderReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var c Coder
	for i := 0; i < 50; i++ {
		data := make([]byte, rng.Intn(5000))
		for j := range data {
			data[j] = byte(rng.Intn(1 + i%8*32))
		}
		want, err := Encode(Flate, data)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := c.Deflate(&got, data); err != nil || !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("extent %d: reused coder encoded %d bytes, fresh %d (err %v)", i, got.Len(), len(want), err)
		}
		wc, wl := Negotiate(data)
		if gc, gl := c.Negotiate(data); gc != wc || gl != wl {
			t.Fatalf("extent %d: reused coder negotiated %v/%d, fresh %v/%d", i, gc, gl, wc, wl)
		}
		if _, err := c.Inflate(nil, []byte{0xff, 0xff, 0xff}); err == nil {
			t.Fatal("corrupt stream decoded")
		}
		dec, err := c.Inflate(nil, want)
		if err != nil || !bytes.Equal(dec, data) {
			t.Fatalf("extent %d: decode after a corrupt stream: %d bytes, err %v", i, len(dec), err)
		}
	}
}
