package lakehouse

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"streamlake/internal/colfile"
)

// Insert writes one file per partition and every file takes the next id,
// so the partition-to-path mapping is reproducible only if the
// partitions are written in a fixed order.
func TestInsertPartitionPathsAreDeterministic(t *testing.T) {
	provinces := []string{"Sichuan", "Beijing", "Hubei", "Shanghai", "Guangdong"}
	run := func() []string {
		e := newEngine(t, false) // every insert commits its own snapshot
		mkTable(t, e, "t")
		tbl, err := e.Table("t")
		if err != nil {
			t.Fatal(err)
		}
		var seen int
		var out []string
		for batch := 0; batch < 4; batch++ {
			var rows []colfile.Row
			for i := 0; i < 50; i++ {
				rows = append(rows, row(fmt.Sprintf("u%d", i), int64(batch*50+i), provinces[(i+batch)%len(provinces)], 1))
			}
			if _, err := e.Insert("t", rows); err != nil {
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
			if len(parts) != len(provinces) || !sort.StringsAreSorted(parts) {
				t.Fatalf("insert %d wrote partitions %v, want all %d in sorted order", batch, parts, len(provinces))
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
