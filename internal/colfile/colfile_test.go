package colfile

import (
	"fmt"
	"testing"
	"testing/quick"

	"streamlake/internal/sim"
)

var testSchema = MustSchema("url:string", "start_time:int64", "province:string", "bytes:int64", "fraud_score:float64", "labeled:bool")

func makeRow(i int) Row {
	return Row{
		StringValue(fmt.Sprintf("http://site-%d.example", i%5)),
		IntValue(1656806400 + int64(i)),
		StringValue([]string{"Beijing", "Shanghai", "Guangdong"}[i%3]),
		IntValue(int64(1000 + i%7)),
		FloatValue(float64(i) * 0.01),
		BoolValue(i%2 == 0),
	}
}

func buildFile(t testing.TB, rows, groupSize int) []byte {
	t.Helper()
	w := NewWriter(testSchema, groupSize)
	for i := 0; i < rows; i++ {
		if err := w.Append(makeRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSchemaParsing(t *testing.T) {
	s, err := NewSchema("a:int64", "b:float", "c:string", "d:bool")
	if err != nil {
		t.Fatal(err)
	}
	if s.NumFields() != 4 || s.Fields[1].Type != Float64 {
		t.Fatalf("schema: %+v", s)
	}
	if s.FieldIndex("c") != 2 || s.FieldIndex("zz") != -1 {
		t.Fatal("FieldIndex broken")
	}
	for _, bad := range []string{"noType", ":int64", "x:complex"} {
		if _, err := NewSchema(bad); err == nil {
			t.Fatalf("bad spec %q accepted", bad)
		}
	}
	if !s.Equal(s) || s.Equal(MustSchema("a:int64")) {
		t.Fatal("Equal broken")
	}
}

func TestSchemaValidate(t *testing.T) {
	s := MustSchema("a:int64", "b:string")
	if err := s.Validate(Row{IntValue(1), StringValue("x")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(Row{IntValue(1)}); err == nil {
		t.Fatal("short row accepted")
	}
	if err := s.Validate(Row{StringValue("x"), StringValue("y")}); err == nil {
		t.Fatal("wrong type accepted")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{IntValue(1), IntValue(2), -1},
		{IntValue(2), IntValue(2), 0},
		{FloatValue(3.5), FloatValue(1.0), 1},
		{StringValue("a"), StringValue("b"), -1},
		{BoolValue(false), BoolValue(true), -1},
		{BoolValue(true), BoolValue(true), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Fatalf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cross-type compare did not panic")
		}
	}()
	Compare(IntValue(1), StringValue("x"))
}

func TestWriteReadRoundTrip(t *testing.T) {
	data := buildFile(t, 1000, 128)
	r, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Schema().Equal(testSchema) {
		t.Fatalf("schema mismatch: %+v", r.Schema())
	}
	if r.NumRows() != 1000 {
		t.Fatalf("rows: %d", r.NumRows())
	}
	if r.NumRowGroups() != 8 { // ceil(1000/128)
		t.Fatalf("groups: %d", r.NumRowGroups())
	}
	i := 0
	err = r.Scan(func(row Row) bool {
		want := makeRow(i)
		for c := range row {
			if Compare(row[c], want[c]) != 0 {
				t.Fatalf("row %d col %d: got %v want %v", i, c, row[c], want[c])
			}
		}
		i++
		return true
	})
	if err != nil || i != 1000 {
		t.Fatalf("scan: %d rows, err %v", i, err)
	}
}

func TestScanEarlyStop(t *testing.T) {
	r, _ := Open(buildFile(t, 100, 10))
	n := 0
	r.Scan(func(Row) bool { n++; return n < 25 })
	if n != 25 {
		t.Fatalf("scanned %d", n)
	}
}

func TestStatsSupportDataSkipping(t *testing.T) {
	data := buildFile(t, 1000, 100)
	r, _ := Open(data)
	tsCol := testSchema.FieldIndex("start_time")
	// Group g holds timestamps [base+100g, base+100g+99]; stats must say
	// so exactly.
	for g := 0; g < r.NumRowGroups(); g++ {
		st := r.GroupStats(g, tsCol)
		wantMin := int64(1656806400 + g*100)
		if st.Min.Int != wantMin || st.Max.Int != wantMin+99 || st.Count != 100 {
			t.Fatalf("group %d stats: %+v", g, st)
		}
	}
	// A range predicate overlapping only group 3 must prune the rest.
	lo, hi := IntValue(1656806400+350), IntValue(1656806400+360)
	kept := 0
	for g := 0; g < r.NumRowGroups(); g++ {
		if r.GroupStats(g, tsCol).Overlaps(&lo, &hi) {
			kept++
		}
	}
	if kept != 1 {
		t.Fatalf("pruning kept %d groups, want 1", kept)
	}
}

func TestStatsOverlapsEdges(t *testing.T) {
	st := Stats{Min: IntValue(10), Max: IntValue(20), Count: 5}
	lo, hi := IntValue(20), IntValue(30)
	if !st.Overlaps(&lo, nil) {
		t.Fatal("inclusive max boundary should overlap")
	}
	lo2 := IntValue(21)
	if st.Overlaps(&lo2, nil) {
		t.Fatal("range above max overlaps")
	}
	hi2 := IntValue(9)
	if st.Overlaps(nil, &hi2) {
		t.Fatal("range below min overlaps")
	}
	if !st.Overlaps(nil, &hi) {
		t.Fatal("unbounded low should overlap")
	}
	if (Stats{}).Overlaps(nil, nil) {
		t.Fatal("empty stats overlap")
	}
}

func TestReadColumnProjection(t *testing.T) {
	r, _ := Open(buildFile(t, 50, 25))
	cols, err := r.ReadGroup(1, []int{2}, nil) // province only
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 1 || len(cols[0]) != 25 {
		t.Fatalf("projection shape: %d cols", len(cols))
	}
	if cols[0][0].Type != String {
		t.Fatalf("wrong type: %v", cols[0][0].Type)
	}
}

func TestDictionaryEncodingKicksIn(t *testing.T) {
	// Low-cardinality strings must compress far below plain encoding.
	s := MustSchema("p:string")
	wDict := NewWriter(s, 0)
	wPlain := NewWriter(s, 0)
	for i := 0; i < 5000; i++ {
		wDict.Append(Row{StringValue([]string{"Beijing", "Shanghai"}[i%2])})
		wPlain.Append(Row{StringValue(fmt.Sprintf("unique-value-%06d", i))}) // dict can't apply
	}
	d1, _ := wDict.Finish()
	d2, _ := wPlain.Finish()
	if len(d1)*4 > len(d2) {
		t.Fatalf("dictionary file %d not much smaller than plain %d", len(d1), len(d2))
	}
	// Both must read back.
	for _, d := range [][]byte{d1, d2} {
		r, err := Open(d)
		if err != nil {
			t.Fatal(err)
		}
		if r.NumRows() != 5000 {
			t.Fatalf("rows: %d", r.NumRows())
		}
	}
}

func TestColumnarBeatsRowEncodingOnSize(t *testing.T) {
	// Figure 14(d)'s EC+Col-store premise: columnar+compression shrinks
	// the repetitive log data substantially. Compare against a naive
	// row-serialized estimate.
	rows := 20000
	data := buildFile(t, rows, 0)
	var rowBytes int
	for i := 0; i < rows; i++ {
		r := makeRow(i)
		rowBytes += len(r[0].Str) + 8 + len(r[2].Str) + 8 + 8 + 1
	}
	if len(data)*2 > rowBytes {
		t.Fatalf("columnar %d not <50%% of row %d", len(data), rowBytes)
	}
}

func TestOpenRejectsCorruptFiles(t *testing.T) {
	good := buildFile(t, 10, 5)
	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte("XXXX"), good[4:]...),
		"truncated":  good[:len(good)-5],
		"no trailer": good[:8],
	}
	for name, data := range cases {
		if _, err := Open(data); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	// Bad version byte.
	bad := append([]byte(nil), good...)
	bad[4] = 99
	if _, err := Open(bad); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestAppendAfterFinish(t *testing.T) {
	w := NewWriter(testSchema, 0)
	w.Append(makeRow(0))
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(makeRow(1)); err == nil {
		t.Fatal("append after finish accepted")
	}
	if _, err := w.Finish(); err == nil {
		t.Fatal("double finish accepted")
	}
}

func TestEmptyFile(t *testing.T) {
	w := NewWriter(testSchema, 0)
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 0 || r.NumRowGroups() != 0 {
		t.Fatalf("empty file: %d rows, %d groups", r.NumRows(), r.NumRowGroups())
	}
	if err := r.Scan(func(Row) bool { t.Fatal("scan visited a row"); return false }); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInt64RoundTrip(t *testing.T) {
	// Property: any int64 sequence round-trips through delta encoding,
	// including extremes and sign changes.
	f := func(vals []int64) bool {
		in := make([]Value, len(vals))
		for i, v := range vals {
			in[i] = IntValue(v)
		}
		enc := appendInt64Chunk(nil, in)
		out, err := decodeInt64Chunk(nil, enc, len(in))
		if err != nil {
			return false
		}
		for i := range in {
			if out[i].Int != in[i].Int {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(vals []string) bool {
		in := make([]Value, len(vals))
		for i, v := range vals {
			in[i] = StringValue(v)
		}
		enc := appendStringChunk(nil, in)
		out, err := decodeStringChunk(nil, enc, len(in))
		if err != nil {
			return false
		}
		for i := range in {
			if out[i].Str != in[i].Str {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFullFileRoundTrip(t *testing.T) {
	// Property: random rows round-trip through a full file with random
	// group sizes, and footer stats bound every value.
	f := func(seed uint64, groupSel uint8) bool {
		rng := sim.NewRNG(seed)
		groupSize := 1 + int(groupSel)%64
		s := MustSchema("i:int64", "f:float64", "s:string", "b:bool")
		w := NewWriter(s, groupSize)
		n := 1 + rng.Intn(300)
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{
				IntValue(int64(rng.Uint64())),
				FloatValue(rng.Float64()*2e6 - 1e6),
				StringValue(fmt.Sprintf("s%d", rng.Intn(10))),
				BoolValue(rng.Intn(2) == 0),
			}
			if err := w.Append(rows[i]); err != nil {
				return false
			}
		}
		data, err := w.Finish()
		if err != nil {
			return false
		}
		r, err := Open(data)
		if err != nil || r.NumRows() != int64(n) {
			return false
		}
		i := 0
		ok := true
		r.Scan(func(row Row) bool {
			for c := range row {
				if Compare(row[c], rows[i][c]) != 0 {
					ok = false
					return false
				}
			}
			i++
			return true
		})
		if !ok || i != n {
			return false
		}
		// Stats bound every value.
		idx := 0
		for g := 0; g < r.NumRowGroups(); g++ {
			for ri := 0; ri < r.GroupRows(g); ri++ {
				for c := 0; c < 4; c++ {
					st := r.GroupStats(g, c)
					v := rows[idx][c]
					if Compare(v, st.Min) < 0 || Compare(v, st.Max) > 0 {
						return false
					}
				}
				idx++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWrite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWriter(testSchema, 0)
		for j := 0; j < 10000; j++ {
			w.Append(makeRow(j))
		}
		if _, err := w.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScan(b *testing.B) {
	data := buildFile(b, 10000, 0)
	r, _ := Open(data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		r.Scan(func(Row) bool { n++; return true })
		if n != 10000 {
			b.Fatal("short scan")
		}
	}
}
