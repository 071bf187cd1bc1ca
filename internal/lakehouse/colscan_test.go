package lakehouse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/tableobj"
)

var eqSchema = colfile.MustSchema("i:int64", "f:float64", "s:string", "b:bool", "k:int64")

// eqGroupSize keeps several row groups per file, the last one ragged.
const eqGroupSize = 16

// eqFloats draws from a domain with NaN and both zeros, which Compare
// orders as equal to one another (NaN to everything).
var eqFloats = []float64{math.NaN(), math.Copysign(0, -1), 0, -2.5, 1.5, 3}

// eqValue draws column c's value for row i of a group whose columns
// are constant where konst says so.
func eqValue(rng *rand.Rand, c int, konst bool, base int) colfile.Value {
	if konst {
		rng = rand.New(rand.NewSource(int64(base*7 + c)))
	}
	switch c {
	case 0:
		return colfile.IntValue(int64(rng.Intn(20)))
	case 1:
		return colfile.FloatValue(eqFloats[rng.Intn(len(eqFloats))])
	case 2:
		return colfile.StringValue(fmt.Sprintf("s%d", rng.Intn(6)))
	case 3:
		return colfile.BoolValue(rng.Intn(2) == 0)
	default:
		return colfile.IntValue(int64(base % 3))
	}
}

// eqEngine writes files of eqSchema straight into the engine's file
// store with eqGroupSize-row groups, each column constant in some
// groups and mixed in others, and returns a plan over them.
func eqEngine(t *testing.T, rng *rand.Rand) (*Engine, Plan) {
	t.Helper()
	e := newEngine(t, true)
	if _, err := e.CreateTable(tableobj.TableMeta{Name: "q", Path: "/lake/q", Schema: eqSchema}); err != nil {
		t.Fatal(err)
	}
	var plan Plan
	for file := 0; file < 4; file++ {
		w := colfile.NewWriter(eqSchema, eqGroupSize)
		rows := 3*eqGroupSize + 1 + rng.Intn(eqGroupSize)
		var konst [5]bool
		for i := 0; i < rows; i++ {
			if i%eqGroupSize == 0 {
				for c := range konst {
					konst[c] = rng.Intn(3) == 0
				}
			}
			row := make(colfile.Row, eqSchema.NumFields())
			for c := range row {
				row[c] = eqValue(rng, c, konst[c], file*100+i/eqGroupSize)
			}
			if err := w.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		blob, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		path := fmt.Sprintf("/lake/q/data/f%d", file)
		if _, err := e.fs.Write(path, blob); err != nil {
			t.Fatal(err)
		}
		plan.Files = append(plan.Files, tableobj.DataFile{Path: path, Rows: int64(rows), Bytes: int64(len(blob))})
	}
	return e, plan
}

// eqBound draws a bound for column c: nil a quarter of the time.
func eqBound(rng *rand.Rand, c int) *colfile.Value {
	if rng.Intn(4) == 0 {
		return nil
	}
	v := eqValue(rng, c, false, 0)
	return &v
}

func eqFilters(rng *rand.Rand) []RangeFilter {
	names := []string{"i", "f", "s", "b", "k", "missing"}
	fs := make([]RangeFilter, rng.Intn(4))
	for n := range fs {
		c := rng.Intn(len(names))
		fs[n] = RangeFilter{Column: names[c]}
		if c < eqSchema.NumFields() {
			fs[n].Lo, fs[n].Hi = eqBound(rng, c), eqBound(rng, c)
			if rng.Intn(4) == 0 {
				fs[n].Hi = fs[n].Lo // equality probe
			}
		}
	}
	return fs
}

func eqProjection(rng *rand.Rand) []int {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	cols := make([]int, rng.Intn(5))
	for k := range cols {
		cols[k] = rng.Intn(eqSchema.NumFields()+1) - 1 // -1 is ignored
	}
	return cols
}

// eqCoverage counts, over admitted groups and known-column filters,
// how often a filter passed all, some and none of a group's rows, plus
// the groups the stats pruned, so the test can prove it exercised each.
type eqCoverage struct{ all, some, none, pruned int }

// referenceScan is Scan as it was before column-at-a-time evaluation:
// decode every column of every admitted group, then rowMatches each
// row. fn sees the row with the slots outside cols zeroed.
func referenceScan(t *testing.T, e *Engine, plan Plan, filters []RangeFilter, cols []int, cov *eqCoverage, fn func(colfile.Row) bool) (ScanStats, time.Duration) {
	t.Helper()
	fcols := filterColumns(eqSchema, filters)
	proj := make([]bool, eqSchema.NumFields())
	for c := range proj {
		proj[c] = cols == nil
	}
	for _, c := range cols {
		if c >= 0 {
			proj[c] = true
		}
	}
	var stats ScanStats
	var cost time.Duration
	out := make(colfile.Row, eqSchema.NumFields())
	for _, f := range plan.Files {
		blob, rc, err := e.fs.Read(f.Path)
		if err != nil {
			t.Fatal(err)
		}
		cost += rc
		r, err := colfile.Open(blob)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < r.NumRowGroups(); g++ {
			if !groupMatches(r, g, filters, fcols) {
				stats.SkippedBytes += r.GroupBytes(g)
				stats.SkippedGroups++
				cov.pruned++
				continue
			}
			stats.ReadBytes += r.GroupBytes(g)
			vals, err := r.ReadGroup(g, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			probe := make(colfile.Row, eqSchema.NumFields())
			for i, c := range fcols {
				if c < 0 {
					continue
				}
				pass := 0
				for k := range vals[c] {
					probe[c] = vals[c][k]
					if rowMatches(probe, filters[i:i+1], fcols[i:i+1]) {
						pass++
					}
				}
				switch pass {
				case len(vals[c]):
					cov.all++
				case 0:
					cov.none++
				default:
					cov.some++
				}
			}
			row := make(colfile.Row, eqSchema.NumFields())
			for i := 0; i < r.GroupRows(g); i++ {
				for c := range row {
					row[c] = vals[c][i]
				}
				stats.RowsScanned++
				if rowMatches(row, filters, fcols) {
					stats.RowsMatched++
					for c := range out {
						out[c] = colfile.Value{}
						if proj[c] {
							out[c] = row[c]
						}
					}
					if !fn(out) {
						return stats, cost
					}
				}
			}
		}
	}
	return stats, cost
}

// Scan's column-at-a-time path hands fn the same rows, projected slots
// only, and accounts the same stats and cost as a full decode filtered
// row by row, for random filters (settled, partly covering, pruning,
// unknown-column and unbounded ones) and projections, with and without
// an early stop.
func TestColumnScanMatchesRowAtATimeReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var cov eqCoverage
	var stops, fewerChunks int
	for trial := 0; trial < 200; trial++ {
		e, plan := eqEngine(t, rng)
		filters, cols := eqFilters(rng), eqProjection(rng)
		limit := -1 // matched rows before fn stops; -1 never stops
		if rng.Intn(3) == 0 {
			limit = rng.Intn(40)
		}
		var want []colfile.Row
		collect := func(dst *[]colfile.Row) func(colfile.Row) bool {
			return func(r colfile.Row) bool {
				*dst = append(*dst, append(colfile.Row(nil), r...))
				return limit < 0 || len(*dst) <= limit
			}
		}
		wantStats, wantCost := referenceScan(t, e, plan, filters, cols, &cov, collect(&want))
		var got []colfile.Row
		gotStats, gotCost, err := e.Scan("q", plan, filters, cols, collect(&got))
		if err != nil {
			t.Fatal(err)
		}
		if limit >= 0 && len(want) == limit+1 {
			stops++
		}
		ctx := fmt.Sprintf("trial %d: filters %s, cols %v, stop after %d", trial, describeFilters(filters), cols, limit)
		if len(got) != len(want) {
			t.Fatalf("%s: scan handed fn %d rows, reference %d", ctx, len(got), len(want))
		}
		for k := range got {
			if !sameRow(got[k], want[k]) {
				t.Fatalf("%s: row %d is %v, reference %v", ctx, k, got[k], want[k])
			}
		}
		admitted := int64(0)
		for _, f := range plan.Files {
			admitted += (f.Rows + eqGroupSize - 1) / eqGroupSize
		}
		admitted -= int64(gotStats.SkippedGroups)
		switch all := admitted * int64(eqSchema.NumFields()); {
		case gotStats.DecodedChunks > all:
			t.Fatalf("%s: decoded %d chunks, more than all %d", ctx, gotStats.DecodedChunks, all)
		case gotStats.DecodedChunks < all && limit < 0:
			fewerChunks++
		}
		gotStats.DecodedChunks = 0
		if gotStats != wantStats || gotCost != wantCost {
			t.Fatalf("%s: scan accounted %+v in %v, reference %+v in %v", ctx, gotStats, gotCost, wantStats, wantCost)
		}
	}
	t.Logf("coverage %+v, %d early stops, %d scans decoding less than everything", cov, stops, fewerChunks)
	if cov.all == 0 || cov.some == 0 || cov.none == 0 || cov.pruned == 0 || stops == 0 || fewerChunks == 0 {
		t.Fatalf("trials missed a case: coverage %+v, %d early stops, %d scans decoding less", cov, stops, fewerChunks)
	}
}

// sameRow compares rows value by value, floats by their bits, so NaN
// equals NaN and -0.0 differs from +0.0.
func sameRow(a, b colfile.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		x, y := a[c], b[c]
		if math.Float64bits(x.Float) != math.Float64bits(y.Float) {
			return false
		}
		x.Float, y.Float = 0, 0
		if x != y {
			return false
		}
	}
	return true
}

func describeFilters(fs []RangeFilter) string {
	s := "["
	for _, f := range fs {
		lo, hi := "-", "-"
		if f.Lo != nil {
			lo = f.Lo.String()
		}
		if f.Hi != nil {
			hi = f.Hi.String()
		}
		s += fmt.Sprintf(" %s in [%s, %s]", f.Column, lo, hi)
	}
	return s + " ]"
}

// A float group whose first value is NaN carries NaN stats, which
// bound nothing: a filter on it must still be evaluated row by row.
func TestNaNStatsNeverSettleAFilter(t *testing.T) {
	schema := colfile.MustSchema("f:float64")
	e := newEngine(t, true)
	if _, err := e.CreateTable(tableobj.TableMeta{Name: "n", Path: "/lake/n", Schema: schema}); err != nil {
		t.Fatal(err)
	}
	w := colfile.NewWriter(schema, 0)
	for _, v := range []float64{math.NaN(), 1, 5, 9} {
		if err := w.Append(colfile.Row{colfile.FloatValue(v)}); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.fs.Write("/lake/n/data/f", blob); err != nil {
		t.Fatal(err)
	}
	lo, hi := colfile.FloatValue(4), colfile.FloatValue(6)
	var got []float64
	stats, _, err := e.Scan("n", Plan{Files: []tableobj.DataFile{{Path: "/lake/n/data/f"}}},
		[]RangeFilter{{Column: "f", Lo: &lo, Hi: &hi}}, nil, func(r colfile.Row) bool {
			got = append(got, r[0].Float)
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	// NaN compares equal to both bounds, so it passes, as in rowMatches.
	if len(got) != 2 || !math.IsNaN(got[0]) || got[1] != 5 || stats.RowsMatched != 2 || stats.RowsScanned != 4 {
		t.Fatalf("scan matched %v (%+v), want [NaN 5]", got, stats)
	}
}

// A filter whose bound has another type than its column panics, as
// rowMatches does: it is a schema bug upstream.
func TestMistypedFilterStillPanics(t *testing.T) {
	e, plan := eqEngine(t, rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("a string bound on an int64 column did not panic")
		}
	}()
	e.Scan("q", plan, []RangeFilter{{Column: "i", Lo: sv("x")}}, nil, func(colfile.Row) bool { return true })
}

// A count(*) grouped by the partition column, with an equality filter
// on it and a range every row passes, decodes nothing: the stats settle
// both filters and prove the group column constant in every row group.
// The row-at-a-time scan decoded one chunk per filter and group column
// (province and start_time here).
func TestSettledCountDecodesNoChunks(t *testing.T) {
	e := projEngine(t)
	province := projSchema.FieldIndex("province")
	filters := []RangeFilter{
		{Column: "province", Lo: sv("Shanghai"), Hi: sv("Shanghai")},
		{Column: "start_time", Lo: iv(0), Hi: iv(27000)},
	}
	plan, _, err := e.PlanScan("p", filters)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	stats, _, err := e.Scan("p", plan, filters, []int{province, -1}, func(r colfile.Row) bool {
		if r[province].Str != "Shanghai" {
			t.Fatalf("group column holds %v", r[province])
		}
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 9000 || stats.RowsMatched != n || stats.RowsScanned != n {
		t.Fatalf("count(*) saw %d rows (%+v), want 9000", n, stats)
	}
	if stats.DecodedChunks != 0 {
		t.Fatalf("settled count(*) decoded %d chunks, want 0", stats.DecodedChunks)
	}

	// A filter that cuts through row groups is evaluated on its column:
	// one chunk per admitted group, and still none for the group column.
	filters = append(filters, RangeFilter{Column: "start_time", Lo: iv(10000), Hi: iv(17000)})
	if plan, _, err = e.PlanScan("p", filters); err != nil {
		t.Fatal(err)
	}
	n = 0
	stats, _, err = e.Scan("p", plan, filters, []int{province, -1}, func(colfile.Row) bool { n++; return true })
	if err != nil {
		t.Fatal(err)
	}
	groups := int64(0)
	for _, f := range plan.Files {
		groups += (f.Rows + colfile.DefaultRowGroupSize - 1) / colfile.DefaultRowGroupSize
	}
	groups -= int64(stats.SkippedGroups)
	if n == 0 || stats.DecodedChunks != groups {
		t.Fatalf("cutting filter matched %d rows and decoded %d chunks over %d admitted groups", n, stats.DecodedChunks, groups)
	}
}
