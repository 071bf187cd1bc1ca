package main

import (
	"strings"
	"testing"

	"streamlake"
	"streamlake/internal/colfile"
	"streamlake/internal/lakebrain/partition"
	"streamlake/internal/workload/dpi"
	"streamlake/internal/workload/tpch"
)

// lineitemRow builds a lineitem row with the fields the tests read.
func lineitemRow(qty int64, discount float64, flag string, ship int64, mode string) colfile.Row {
	return colfile.Row{
		colfile.IntValue(1), colfile.IntValue(1), colfile.IntValue(1),
		colfile.IntValue(qty), colfile.FloatValue(100), colfile.FloatValue(discount),
		colfile.FloatValue(0), colfile.StringValue(flag), colfile.StringValue("O"),
		colfile.IntValue(ship), colfile.IntValue(ship), colfile.IntValue(ship + 1),
		colfile.StringValue(mode),
	}
}

func TestEvalLineitem(t *testing.T) {
	rows := []colfile.Row{
		lineitemRow(10, 0.02, "A", 100, "AIR"),
		lineitemRow(20, 0.05, "R", 150, "AIR"),
		lineitemRow(30, 0.06, "A", 160, "AIR"),  // discount too high
		lineitemRow(40, 0.01, "A", 200, "AIR"),  // shipdate at the open bound
		lineitemRow(50, 0.01, "A", 120, "SHIP"), // other partition
	}
	preds := []partition.Predicate{
		{Column: "l_shipdate", Op: partition.GE, Value: colfile.IntValue(100)},
		{Column: "l_shipdate", Op: partition.LT, Value: colfile.IntValue(200)},
		{Column: "l_discount", Op: partition.LE, Value: colfile.FloatValue(0.05)},
	}
	count := evalLineitem(tpch.LineitemSchema, rows, lineitemQuery{mode: "AIR", preds: preds})
	if len(count) != 1 || count[""] != 2 {
		t.Errorf("count = %v, want {\"\": 2}", count)
	}
	sums := evalLineitem(tpch.LineitemSchema, rows, lineitemQuery{
		mode: "AIR", preds: preds, groupColumn: "l_returnflag", sumColumn: "l_quantity",
	})
	if len(sums) != 2 || sums["A"] != 10 || sums["R"] != 20 {
		t.Errorf("sums = %v, want A=10 R=20", sums)
	}
	none := evalLineitem(tpch.LineitemSchema, rows, lineitemQuery{mode: "MAIL", preds: preds})
	if len(none) != 0 {
		t.Errorf("no row matches, yet got %v", none)
	}
}

func TestLineitemSQL(t *testing.T) {
	q := lineitemQuery{
		mode: "REG AIR",
		preds: []partition.Predicate{
			{Column: "l_shipdate", Op: partition.LT, Value: colfile.IntValue(90)},
			{Column: "l_discount", Op: partition.LE, Value: colfile.FloatValue(0.05)},
		},
		groupColumn: "l_returnflag", sumColumn: "l_quantity",
	}
	want := "select sum(l_quantity) from lineitem where l_shipmode = 'REG AIR' and l_shipdate < 90 and l_discount <= 0.05 group by l_returnflag"
	if got := q.sql("lineitem"); got != want {
		t.Errorf("sql =\n%s\nwant\n%s", got, want)
	}
}

func TestDAUCounts(t *testing.T) {
	raw := func(url string, ts int64, prov string) colfile.Row {
		return colfile.Row{
			colfile.StringValue(url), colfile.IntValue(ts), colfile.StringValue(prov),
			colfile.IntValue(7), colfile.IntValue(900), colfile.StringValue("pad"),
		}
	}
	rows := []colfile.Row{
		raw(dpi.FinAppURL, dpi.BaseTime, "Beijing"),
		raw(dpi.FinAppURL, dpi.BaseTime+86399, "Beijing"),
		raw(dpi.FinAppURL, dpi.BaseTime+86400, "Beijing"), // day 1
		raw(dpi.FinAppURL, dpi.BaseTime+5, "Henan"),
		raw("", dpi.BaseTime+5, "Henan"), // malformed: Normalize rejects it
		raw("http://video.example.cn", dpi.BaseTime+5, "Henan"),
	}
	acc := map[string]float64{}
	dauCounts(acc, rows, 0)
	if len(acc) != 2 || acc["Beijing"] != 2 || acc["Henan"] != 1 {
		t.Errorf("day 0 = %v, want Beijing=2 Henan=1", acc)
	}
	dauCounts(acc, rows[:1], 0)
	if acc["Beijing"] != 3 {
		t.Errorf("counts do not accumulate: %v", acc)
	}
	day1 := map[string]float64{}
	dauCounts(day1, rows, 1)
	if len(day1) != 1 || day1["Beijing"] != 1 {
		t.Errorf("day 1 = %v, want Beijing=1", day1)
	}
}

func TestCheckAnswer(t *testing.T) {
	grouped := &streamlake.Result{Rows: [][]string{{"A", "10"}, {"R", "20"}}}
	if err := checkAnswer(grouped, map[string]float64{"A": 10, "R": 20}, true); err != nil {
		t.Errorf("matching answer rejected: %v", err)
	}
	for _, want := range []map[string]float64{
		{"A": 10, "R": 21},
		{"A": 10},
		{"A": 10, "R": 20, "N": 1},
	} {
		if err := checkAnswer(grouped, want, true); err == nil {
			t.Errorf("answer %v accepted against %v", grouped.Rows, want)
		}
	}
	plain := &streamlake.Result{Rows: [][]string{{"7"}}}
	if err := checkAnswer(plain, map[string]float64{"": 7}, false); err != nil {
		t.Errorf("plain count rejected: %v", err)
	}
	empty := &streamlake.Result{}
	if err := checkAnswer(empty, map[string]float64{}, false); err != nil {
		t.Errorf("empty answer rejected: %v", err)
	}
	dup := &streamlake.Result{Rows: [][]string{{"A", "1"}, {"A", "1"}}}
	if err := checkAnswer(dup, map[string]float64{"A": 1}, true); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate group not reported: %v", err)
	}
}

// TestReferenceAgreesWithLake runs generated queries through a small
// lake: the reference and the engine must agree on every one.
func TestReferenceAgreesWithLake(t *testing.T) {
	w, err := newAnalytics(3, 2000, 40)
	if err != nil {
		t.Fatal(err)
	}
	ep := w.episode()
	if err := ep.setup(nil); err != nil {
		t.Fatal(err)
	}
	if _, failed, err := ep.run(nil); err != nil || failed != 0 {
		t.Fatalf("run: %d failed, %v", failed, err)
	}
	if _, err := ep.verify(); err != nil {
		t.Fatal(err)
	}
}
