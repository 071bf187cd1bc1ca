package bench

import (
	"bytes"
	"reflect"
	"testing"
)

// TestFig16aIsDeterministic runs the Figure 16(a) experiment twice with
// one seed. The compaction loop draws a conflict roll per partition and
// compacts as it goes, so it must visit partitions in a fixed order for
// the two runs to agree.
func TestFig16aIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment harness; run without -short")
	}
	run := func() ([]Fig16aPoint, string) {
		points, err := RunFig16a([]int{2}, 3)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		Fig16aReport(points).Fprint(&buf)
		return points, buf.String()
	}
	first, firstReport := run()
	second, secondReport := run()
	if !reflect.DeepEqual(first, second) || firstReport != secondReport {
		t.Fatalf("two runs with one seed differ:\n%s\n%s", firstReport, secondReport)
	}
}
