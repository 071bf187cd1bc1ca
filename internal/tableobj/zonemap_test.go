package tableobj

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"streamlake/internal/colfile"
)

// Files written without zone maps must keep the legacy stats encoding
// byte-for-byte — that is what keeps metadata (and replay digests)
// identical when the feature is off.
func TestStatsLegacyEncodingUnchanged(t *testing.T) {
	f := DataFile{
		Min: []colfile.Value{colfile.IntValue(1), colfile.StringValue("a")},
		Max: []colfile.Value{colfile.IntValue(9), colfile.StringValue("z")},
	}
	enc := encodeStats(f)
	if enc[0] == statsV2Marker {
		t.Fatal("zone-free stats picked the v2 encoding")
	}
	var legacy []byte
	legacy = append(legacy, 2) // uvarint field count
	for i := range f.Min {
		legacy = colfile.AppendValue(legacy, f.Min[i])
		legacy = colfile.AppendValue(legacy, f.Max[i])
	}
	if enc != string(legacy) {
		t.Fatalf("legacy encoding drifted:\n got %x\nwant %x", enc, legacy)
	}
	var back DataFile
	if err := decodeStats(enc, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Min, f.Min) || !reflect.DeepEqual(back.Max, f.Max) {
		t.Fatalf("round trip: %+v", back)
	}
	if back.Zones != nil || back.Blooms != nil {
		t.Fatal("legacy decode invented zones/blooms")
	}
}

// A stats count larger than the bytes behind it is rejected before
// anything is sized from it, in the file range and in a zone map alike.
func TestStatsCountExceedingStatsSizeRejected(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	pair := colfile.AppendValue(colfile.AppendValue(nil, colfile.IntValue(1)), colfile.IntValue(2))
	zone := append([]byte{statsV2Marker}, binary.AppendUvarint(nil, 1)...) // one-column file range
	zone = append(zone, pair...)
	zone = append(zone, 1) // one zone map, then its count
	for _, enc := range [][]byte{append(huge, pair...), append(zone, huge...)} {
		var f DataFile
		if err := decodeStats(string(enc), &f); err == nil {
			t.Fatalf("stats %x decoded: %+v", enc, f)
		}
	}
}

// V2 stats (zones + blooms) survive a full commit encode/decode cycle.
func TestStatsV2RoundTripThroughCommit(t *testing.T) {
	bloom := NewBloom(3)
	bloom.Add(colfile.IntValue(7))
	bloom.Add(colfile.IntValue(42))
	f := DataFile{
		Path: "/lake/t/data/default/000000000001.col", Partition: "default",
		Rows: 4, Bytes: 128,
		Min: []colfile.Value{colfile.IntValue(1)},
		Max: []colfile.Value{colfile.IntValue(42)},
		Zones: []ZoneMap{
			{Min: []colfile.Value{colfile.IntValue(1)}, Max: []colfile.Value{colfile.IntValue(7)}},
			{Min: []colfile.Value{colfile.IntValue(40)}, Max: []colfile.Value{colfile.IntValue(42)}},
		},
		Blooms: []*Bloom{bloom},
	}
	blob, err := EncodeCommit(Commit{ID: 1, Ops: []FileOp{{Add: true, File: f}}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := DecodeCommit(blob)
	if err != nil {
		t.Fatal(err)
	}
	got := c.Ops[0].File
	if !reflect.DeepEqual(got.Zones, f.Zones) {
		t.Fatalf("zones: %+v", got.Zones)
	}
	if len(got.Blooms) != 1 || got.Blooms[0].K != bloom.K || !bytes.Equal(got.Blooms[0].Bits, bloom.Bits) {
		t.Fatalf("blooms: %+v", got.Blooms)
	}
	if !got.Blooms[0].MayContain(colfile.IntValue(42)) {
		t.Fatal("decoded bloom lost a member")
	}
	// A nil bloom entry (column without a filter) round-trips as nil.
	f.Blooms = []*Bloom{nil}
	blob, _ = EncodeCommit(Commit{ID: 2, Ops: []FileOp{{Add: true, File: f}}})
	c, err = DecodeCommit(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Ops[0].File.Blooms; len(got) != 1 || got[0] != nil {
		t.Fatalf("nil bloom round trip: %+v", got)
	}
}

func TestBloomMembership(t *testing.T) {
	b := NewBloom(100)
	for i := 0; i < 100; i++ {
		b.Add(colfile.StringValue(fmt.Sprintf("member-%d", i)))
	}
	for i := 0; i < 100; i++ {
		if !b.MayContain(colfile.StringValue(fmt.Sprintf("member-%d", i))) {
			t.Fatalf("false negative on member-%d", i)
		}
	}
	fp := 0
	for i := 0; i < 1000; i++ {
		if b.MayContain(colfile.StringValue(fmt.Sprintf("absent-%d", i))) {
			fp++
		}
	}
	// ~1% expected at 10 bits/key; 5% is far beyond noise.
	if fp > 50 {
		t.Fatalf("false positive rate %d/1000", fp)
	}
	// A nil filter can never prune.
	var nilBloom *Bloom
	if !nilBloom.MayContain(colfile.IntValue(1)) {
		t.Fatal("nil bloom pruned")
	}
}

// With zone maps enabled on the table handle, WriteRows harvests
// per-row-group ranges from the encoded footer and builds per-column
// blooms covering every written value; disabled, files carry neither.
func TestWriteRowsHarvestsZoneMaps(t *testing.T) {
	e := newEnv(t)
	tbl := createTable(t, e, "zm")
	tbl.SetZoneMaps(true)
	var rows []colfile.Row
	for i := 0; i < 500; i++ {
		rows = append(rows, dpiRow(fmt.Sprintf("u%03d", i), int64(i), "bj"))
	}
	x, err := tbl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	f, err := x.WriteRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Zones) == 0 {
		t.Fatal("no zones harvested")
	}
	for _, z := range f.Zones {
		if len(z.Min) != dpiSchema.NumFields() || len(z.Max) != dpiSchema.NumFields() {
			t.Fatalf("zone not schema-aligned: %+v", z)
		}
	}
	// Zone ranges must cover the file range for the int column.
	ts := dpiSchema.FieldIndex("start_time")
	lo, hi := f.Zones[0].Min[ts], f.Zones[len(f.Zones)-1].Max[ts]
	if colfile.Compare(lo, f.Min[ts]) != 0 || colfile.Compare(hi, f.Max[ts]) != 0 {
		t.Fatalf("zones don't span the file: %v..%v vs %v..%v", lo, hi, f.Min[ts], f.Max[ts])
	}
	if len(f.Blooms) != dpiSchema.NumFields() {
		t.Fatalf("blooms: %d", len(f.Blooms))
	}
	for _, r := range rows {
		for c := range r {
			if !f.Blooms[c].MayContain(r[c]) {
				t.Fatalf("bloom false negative on %v", r[c])
			}
		}
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	// And the committed snapshot preserves them.
	snap, _, err := tbl.Current()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Files) != 1 || len(snap.Files[0].Zones) != len(f.Zones) {
		t.Fatalf("snapshot dropped zones: %+v", snap.Files)
	}

	tbl.SetZoneMaps(false)
	x2, _ := tbl.Begin()
	f2, err := x2.WriteRows(rows[:10])
	if err != nil {
		t.Fatal(err)
	}
	if f2.Zones != nil || f2.Blooms != nil {
		t.Fatal("zone maps collected while disabled")
	}
	x2.Abort()
}
