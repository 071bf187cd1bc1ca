package convert

import (
	"reflect"
	"sort"
	"testing"

	"streamlake/internal/tableobj"
)

// Each conversion writes one file per partition and every file takes the
// next id, so the partition-to-path mapping is reproducible only if the
// partitions are written in a fixed order.
func TestConversionPartitionPathsAreDeterministic(t *testing.T) {
	run := func() []string {
		e := newEnv(t)
		e.svc.CreateTopic(convertTopic("det"))
		var seen int
		var out []string
		for round := 0; round < 4; round++ {
			produceRows(t, e, "det", 120)
			if _, _, err := e.conv.RunOnce(); err != nil {
				t.Fatal(err)
			}
			tbl, _, err := tableobj.Open(e.clock, e.fs, e.cat, "det_table")
			if err != nil {
				t.Fatal(err)
			}
			cur, _, err := tbl.Current()
			if err != nil {
				t.Fatal(err)
			}
			var parts []string
			for _, f := range cur.Files[seen:] {
				parts = append(parts, f.Partition)
				out = append(out, f.Path+" -> "+f.Partition)
			}
			if len(parts) != 3 || !sort.StringsAreSorted(parts) {
				t.Fatalf("round %d wrote partitions %v, want the 3 in sorted order", round, parts)
			}
			seen = len(cur.Files)
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two fresh lakes mapped paths to partitions differently:\n%v\n%v", a, b)
	}
}
