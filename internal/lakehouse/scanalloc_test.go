package lakehouse

import (
	"fmt"
	"testing"

	"streamlake/internal/colfile"
	"streamlake/internal/tableobj"
)

// groupsEngine loads table "g" (projSchema, one partition) as three
// files of groupsPerFile full 8,192-row groups each.
func groupsEngine(t *testing.T, groupsPerFile int) *Engine {
	t.Helper()
	e := newEngine(t, true)
	if _, err := e.CreateTable(tableobj.TableMeta{
		Name: "g", Path: "/lake/g", Schema: projSchema, PartitionColumn: "province",
	}); err != nil {
		t.Fatal(err)
	}
	perFile := groupsPerFile * colfile.DefaultRowGroupSize
	for file := 0; file < 3; file++ {
		rows := make([]colfile.Row, perFile)
		for k := range rows {
			i := file*perFile + k
			rows[k] = colfile.Row{
				colfile.StringValue(fmt.Sprintf("http://site-%d", i%13)),
				colfile.IntValue(int64(i)),
				colfile.StringValue("Beijing"),
				colfile.IntValue(int64(i % 1000)),
				colfile.FloatValue(float64(i%97) * 0.25),
			}
		}
		if _, err := e.Insert("g", rows); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Flush("g"); err != nil {
		t.Fatal(err)
	}
	return e
}

// scanAllocs measures the allocations of one projected, filtered Scan
// of table "g" that reads every row group: column bytes, filtered on
// start_time.
func scanAllocs(t *testing.T, e *Engine, wantGroups int) float64 {
	t.Helper()
	filters := []RangeFilter{{Column: "start_time", Lo: iv(0)}}
	plan, _, err := e.PlanScan("g", filters)
	if err != nil {
		t.Fatal(err)
	}
	cols := []int{projSchema.FieldIndex("bytes")}
	var sum int64
	scan := func() {
		stats, _, err := e.Scan("g", plan, filters, cols, func(r colfile.Row) bool {
			sum += r[cols[0]].Int
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := stats.ReadBytes; got == 0 || stats.SkippedGroups != 0 {
			t.Fatalf("scan read %d bytes and skipped %d groups", got, stats.SkippedGroups)
		}
		if want := int64(wantGroups * colfile.DefaultRowGroupSize); stats.RowsMatched != want {
			t.Fatalf("scan matched %d rows, want %d", stats.RowsMatched, want)
		}
	}
	scan()
	return testing.AllocsPerRun(5, scan)
}

// A scan's steady state allocates per file, not per row group or row:
// doubling every file's row groups leaves a projected scan's
// allocations unchanged.
//
// Two per-chunk costs lie outside the scan's buffers, so the projection
// avoids them: a dictionary-coded string chunk allocates its dictionary
// text (the values may outlive the scan), and compress/flate allocates
// Huffman link tables for every stream whose codes exceed 9 bits (its
// Reset does not keep them), which a float column's chunks need. The
// delta-coded integer columns here need neither.
func TestScanAllocationsDoNotGrowWithRowGroups(t *testing.T) {
	small := scanAllocs(t, groupsEngine(t, 2), 3*2)
	large := scanAllocs(t, groupsEngine(t, 4), 3*4)
	t.Logf("projected scan of 3 files: %.0f allocs at 2 groups per file, %.0f at 4", small, large)
	if large > small {
		t.Fatalf("doubling the row groups raised a scan's allocations from %.0f to %.0f", small, large)
	}
}
