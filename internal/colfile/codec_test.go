package colfile

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// codecCase is one file shape for the shared-Codec tests: mixed types,
// several row groups, a trailing one-row group, and string columns that
// take both the dictionary and the plain encoding.
type codecCase struct {
	name      string
	schema    Schema
	rows      int
	groupSize int
	row       func(i int) Row
}

var codecCases = []codecCase{
	{"mixed types, several groups, one-row tail", testSchema, 1000 + 1, 100, makeRow},
	{"one-row file", testSchema, 1, 0, makeRow},
	{"dictionary and plain strings", MustSchema("dict:string", "plain:string", "n:int64"), 700, 256, func(i int) Row {
		return Row{
			StringValue([]string{"Beijing", "Shanghai", "Guangdong"}[i%3]),
			StringValue(fmt.Sprintf("unique-%06d", i)),
			IntValue(int64(i * i)),
		}
	}},
	{"floats and bools only", MustSchema("f:float64", "b:bool"), 300, 7, func(i int) Row {
		return Row{FloatValue(float64(i) / 3), BoolValue(i%3 == 0)}
	}},
}

func (cc codecCase) write(t testing.TB, w *Writer) []byte {
	t.Helper()
	for i := 0; i < cc.rows; i++ {
		if err := w.Append(cc.row(i)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkRows decodes every column of every group of r and compares it
// with the rows cc generated.
func (cc codecCase) checkRows(t testing.TB, r *Reader) {
	t.Helper()
	i := 0
	for g := 0; g < r.NumRowGroups(); g++ {
		cols, err := r.ReadGroup(g, nil)
		if err != nil {
			t.Fatalf("%s: group %d: %v", cc.name, g, err)
		}
		for k := 0; k < r.GroupRows(g); k++ {
			want := cc.row(i)
			for c := range cols {
				if Compare(cols[c][k], want[c]) != 0 {
					t.Fatalf("%s: row %d col %d: got %v want %v", cc.name, i, c, cols[c][k], want[c])
				}
			}
			i++
		}
	}
	if i != cc.rows {
		t.Fatalf("%s: decoded %d rows, want %d", cc.name, i, cc.rows)
	}
}

func TestSharedCodecWritesIdenticalBytes(t *testing.T) {
	var shared Codec
	// Two passes, so the second pass's first file also starts from a
	// coder that already wrote every shape.
	for pass := 0; pass < 2; pass++ {
		for _, cc := range codecCases {
			fresh := cc.write(t, NewWriter(cc.schema, cc.groupSize))
			reused := cc.write(t, shared.NewWriter(cc.schema, cc.groupSize))
			if !bytes.Equal(fresh, reused) {
				t.Fatalf("pass %d, %s: shared-Codec file differs from NewWriter (%d vs %d bytes)",
					pass, cc.name, len(reused), len(fresh))
			}
			r, err := shared.Open(reused)
			if err != nil {
				t.Fatal(err)
			}
			cc.checkRows(t, r)
		}
	}
}

// corruptChunk returns a copy of data with the first chunk's DEFLATE
// stream replaced by bytes that are not a valid stream.
func corruptChunk(t *testing.T, data []byte) []byte {
	t.Helper()
	r, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	ch := r.groups[0].chunks[0]
	bad := append([]byte(nil), data...)
	for i := ch.offset; i < ch.offset+ch.length; i++ {
		bad[i] = 0xff // BTYPE 11 is reserved: an invalid block header
	}
	return bad
}

func TestCodecRecoversAfterDecodeError(t *testing.T) {
	good := buildFile(t, 500, 64)
	var codec Codec
	r, err := codec.Open(good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadGroup(0, nil); err != nil {
		t.Fatal(err)
	}

	bad, err := codec.Open(corruptChunk(t, good))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.ReadColumn(0, 0); err == nil {
		t.Fatal("corrupt chunk decoded without error")
	}
	next, err := codec.Open(buildFile(t, 300, 50))
	if err != nil {
		t.Fatal(err)
	}
	checkFile(t, next, 300)

	// A chunk cut short mid-stream: the footer is intact, the stream
	// ends early.
	short, err := codec.Open(good)
	if err != nil {
		t.Fatal(err)
	}
	short.groups[0].chunks[0].length /= 2
	if _, err := short.ReadColumn(0, 0); err == nil {
		t.Fatal("truncated chunk decoded without error")
	}
	again, err := codec.Open(good)
	if err != nil {
		t.Fatal(err)
	}
	checkFile(t, again, 500)
}

// checkFile scans r and compares every row with makeRow.
func checkFile(t *testing.T, r *Reader, rows int) {
	t.Helper()
	i := 0
	if err := r.Scan(func(row Row) bool {
		want := makeRow(i)
		for c := range row {
			if Compare(row[c], want[c]) != 0 {
				t.Fatalf("row %d col %d: got %v want %v", i, c, row[c], want[c])
			}
		}
		i++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if i != rows {
		t.Fatalf("scanned %d rows, want %d", i, rows)
	}
}

// wideSchema is a 16-column schema, as wide as TPC-H lineitem.
var wideSchema = MustSchema(
	"k1:int64", "k2:int64", "k3:int64", "k4:int64",
	"q:float64", "p:float64", "d:float64", "x:float64",
	"rf:string", "ls:string", "sd:int64", "cd:int64",
	"rd:int64", "si:string", "sm:string", "c:string",
)

func wideRow(i int) Row {
	return Row{
		IntValue(int64(i)), IntValue(int64(i * 7)), IntValue(int64(i % 97)), IntValue(int64(i % 4)),
		FloatValue(float64(i % 50)), FloatValue(float64(i) * 1.5), FloatValue(0.01 * float64(i%11)), FloatValue(0.02),
		StringValue([]string{"A", "N", "R"}[i%3]), StringValue([]string{"F", "O"}[i%2]),
		IntValue(int64(8000 + i)), IntValue(int64(8030 + i)),
		IntValue(int64(8010 + i)), StringValue("DELIVER IN PERSON"), StringValue([]string{"AIR", "MAIL", "SHIP"}[i%3]),
		StringValue(fmt.Sprintf("comment %d", i%16)),
	}
}

// The ceilings on decoding one 16-column, 256-row group through a reused
// Codec. The decoded values cost about 16 x 256 x 48 B = 192 KB in one
// allocation per column, plus the dictionary words. A fresh flate
// reader per chunk adds about 40 KB and several allocations for each of
// the 16 chunks, which these ceilings do not leave room for.
const (
	decodeGroupAllocsCeiling = 60
	decodeGroupBytesCeiling  = 320 << 10
)

func TestDecodeGroupAllocationCeiling(t *testing.T) {
	w := NewWriter(wideSchema, 256)
	for i := 0; i < 256; i++ {
		if err := w.Append(wideRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var codec Codec
	r, err := codec.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		if _, err := r.ReadGroup(0, nil); err != nil {
			t.Fatal(err)
		}
	}
	decode() // builds the flate reader and grows the scratch buffer
	allocs := testing.AllocsPerRun(20, decode)

	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	perGroup := (after.TotalAlloc - before.TotalAlloc) / runs

	t.Logf("decode one 16-column group: %.0f allocs, %d B", allocs, perGroup)
	if allocs > decodeGroupAllocsCeiling {
		t.Fatalf("decoding a group took %.0f allocations, ceiling %d", allocs, decodeGroupAllocsCeiling)
	}
	if perGroup > decodeGroupBytesCeiling {
		t.Fatalf("decoding a group allocated %d B, ceiling %d", perGroup, decodeGroupBytesCeiling)
	}
}
