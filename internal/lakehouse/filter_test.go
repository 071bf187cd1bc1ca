package lakehouse

import (
	"testing"

	"streamlake/internal/colfile"
)

// referenceRowMatches is rowMatches as it was before filter columns
// were resolved once per operation: a schema lookup per filter per row.
func referenceRowMatches(schema colfile.Schema, row colfile.Row, filters []RangeFilter) bool {
	for _, flt := range filters {
		c := schema.FieldIndex(flt.Column)
		if c < 0 {
			continue
		}
		if flt.Lo != nil && colfile.Compare(row[c], *flt.Lo) < 0 {
			return false
		}
		if flt.Hi != nil && colfile.Compare(row[c], *flt.Hi) > 0 {
			return false
		}
	}
	return true
}

// Resolved filter columns select exactly the rows the per-row lookup
// did: an unknown column constrains nothing, bounds are inclusive, and
// a filter on a later column still binds to its own column.
func TestResolvedRowMatchesAgreesWithLookup(t *testing.T) {
	fsv := func(f float64) *colfile.Value { x := colfile.FloatValue(f); return &x }
	cases := []struct {
		name    string
		filters []RangeFilter
		want    int // rows of the grid matched
	}{
		{"no filters", nil, 60},
		{"unknown column only", []RangeFilter{{Column: "nope", Lo: iv(1 << 40)}}, 60},
		{"unknown column beside a known one", []RangeFilter{{Column: "nope", Hi: iv(-1)}, {Column: "start_time", Lo: iv(10), Hi: iv(19)}}, 10},
		{"inclusive int bounds", []RangeFilter{{Column: "start_time", Lo: iv(10), Hi: iv(10)}}, 1},
		{"string equality", []RangeFilter{{Column: "province", Lo: sv("Shanghai"), Hi: sv("Shanghai")}}, 20},
		{"float upper bound on a later column", []RangeFilter{{Column: "score", Hi: fsv(1.0)}}, 45},
		{"two columns", []RangeFilter{{Column: "bytes", Lo: iv(3)}, {Column: "province", Hi: sv("Guangdong")}}, 20},
		{"empty range", []RangeFilter{{Column: "start_time", Lo: iv(5), Hi: iv(4)}}, 0},
	}
	for _, tc := range cases {
		idx := filterColumns(projSchema, tc.filters)
		got := 0
		for i := 0; i < 60; i++ {
			row := colfile.Row{
				colfile.StringValue("u"),
				colfile.IntValue(int64(i)),
				colfile.StringValue([]string{"Beijing", "Shanghai", "Guangdong"}[i%3]),
				colfile.IntValue(int64(i % 6)),
				colfile.FloatValue(float64(i%4) * 0.5),
			}
			m := rowMatches(row, tc.filters, idx)
			if ref := referenceRowMatches(projSchema, row, tc.filters); m != ref {
				t.Fatalf("%s: row %d: resolved %v, per-row lookup %v", tc.name, i, m, ref)
			}
			if m {
				got++
			}
		}
		if got != tc.want {
			t.Fatalf("%s: matched %d rows, want %d", tc.name, got, tc.want)
		}
	}
}
