package lakehouse

import (
	"fmt"
	"reflect"
	"testing"

	"streamlake/internal/colfile"
	"streamlake/internal/tableobj"
)

var projSchema = colfile.MustSchema("url:string", "start_time:int64", "province:string", "bytes:int64", "score:float64")

// projEngine loads a five-column table over several files and row
// groups: three inserts of 9,000 rows, so each Beijing/Shanghai/
// Guangdong file spans two 8,192-row groups or one.
func projEngine(t *testing.T) *Engine {
	t.Helper()
	e := newEngine(t, true)
	if _, err := e.CreateTable(tableobj.TableMeta{
		Name: "p", Path: "/lake/p", Schema: projSchema, PartitionColumn: "province",
	}); err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 3; batch++ {
		var rows []colfile.Row
		for i := batch * 9000; i < (batch+1)*9000; i++ {
			rows = append(rows, colfile.Row{
				colfile.StringValue(fmt.Sprintf("http://site-%d", i%13)),
				colfile.IntValue(int64(i)),
				colfile.StringValue([]string{"Beijing", "Shanghai", "Guangdong"}[i%3]),
				colfile.IntValue(int64(i % 1000)),
				colfile.FloatValue(float64(i%97) * 0.25),
			})
		}
		if _, err := e.Insert("p", rows); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Flush("p"); err != nil {
		t.Fatal(err)
	}
	return e
}

// fullScanAggregate computes what AggregatePushdown must return from a
// scan that decodes every column.
func fullScanAggregate(t *testing.T, e *Engine, filters []RangeFilter, group, sum string) []AggregateResult {
	t.Helper()
	plan, _, err := e.PlanScan("p", filters)
	if err != nil {
		t.Fatal(err)
	}
	gi, si := projSchema.FieldIndex(group), projSchema.FieldIndex(sum)
	groups := map[string]*AggregateResult{}
	if _, _, err := e.Scan("p", plan, filters, nil, func(row colfile.Row) bool {
		key := ""
		if gi >= 0 {
			key = row[gi].String()
		}
		g := groups[key]
		if g == nil {
			g = &AggregateResult{Group: key}
			groups[key] = g
		}
		g.Count++
		if si >= 0 {
			switch row[si].Type {
			case colfile.Int64:
				g.Sum += float64(row[si].Int)
			case colfile.Float64:
				g.Sum += row[si].Float
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	var out []AggregateResult
	for _, g := range groups {
		out = append(out, *g)
	}
	sortAggregates(out)
	return out
}

func TestProjectedAggregatesMatchFullDecode(t *testing.T) {
	e := projEngine(t)
	cases := []struct {
		name       string
		filters    []RangeFilter
		group, sum string
	}{
		{"count(*) with no filter decodes no column", nil, "", ""},
		{"filter column neither grouped nor summed", []RangeFilter{{Column: "start_time", Lo: iv(4000), Hi: iv(21000)}}, "url", "bytes"},
		{"string group with a float sum", []RangeFilter{{Column: "bytes", Lo: iv(100), Hi: iv(600)}}, "province", "score"},
		{"equality filter on the partition column", []RangeFilter{{Column: "province", Lo: sv("Shanghai"), Hi: sv("Shanghai")}}, "url", "score"},
	}
	for _, tc := range cases {
		got, _, err := e.AggregatePushdown("p", tc.filters, tc.group, tc.sum)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := fullScanAggregate(t, e, tc.filters, tc.group, tc.sum)
		if len(want) == 0 {
			t.Fatalf("%s: reference matched nothing", tc.name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: projected %+v, full decode %+v", tc.name, got, want)
		}
	}
}

// A projected scan fills only the requested columns, leaves the other
// slots zero (the filter column included), and accounts exactly the
// rows, bytes and cost of a full-decode scan.
func TestProjectedScanAccountsLikeFullDecode(t *testing.T) {
	e := projEngine(t)
	filters := []RangeFilter{{Column: "start_time", Lo: iv(10000), Hi: iv(17000)}}
	plan, _, err := e.PlanScan("p", filters)
	if err != nil {
		t.Fatal(err)
	}
	var full []colfile.Row
	fullStats, fullCost, err := e.Scan("p", plan, filters, nil, func(r colfile.Row) bool {
		full = append(full, append(colfile.Row(nil), r...))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	urlCol, scoreCol := projSchema.FieldIndex("url"), projSchema.FieldIndex("score")
	i := 0
	projStats, projCost, err := e.Scan("p", plan, filters, []int{scoreCol, urlCol}, func(r colfile.Row) bool {
		for c := range r {
			want := colfile.Value{}
			if c == urlCol || c == scoreCol {
				want = full[i][c]
			}
			if r[c] != want {
				t.Fatalf("row %d col %d: projected %v, want %v", i, c, r[c], want)
			}
		}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(full) || i == 0 {
		t.Fatalf("projected scan saw %d rows, full scan %d", i, len(full))
	}
	if projStats.DecodedChunks >= fullStats.DecodedChunks {
		t.Fatalf("projected scan decoded %d chunks, full decode %d", projStats.DecodedChunks, fullStats.DecodedChunks)
	}
	projStats.DecodedChunks = fullStats.DecodedChunks
	if projStats != fullStats || projCost != fullCost {
		t.Fatalf("projected scan accounted %+v in %v, full decode %+v in %v", projStats, projCost, fullStats, fullCost)
	}
}
