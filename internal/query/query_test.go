package query

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"streamlake/internal/colfile"
	"streamlake/internal/lakehouse"
	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
	"streamlake/internal/tableobj"
)

func TestParseDAUQuery(t *testing.T) {
	// Figure 13 verbatim (modulo the IN-line comments).
	sql := `Select COUNT(*) as DAU
From TB_DPI_LOG_HOURS
Where url = 'http://streamlake_fin_app.com'
and start_time >= 1656806400 --July 3rd, 2022
and start_time < 1656892800 --July 4th, 2022
Group By province;`
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Select) != 1 || stmt.Select[0].Agg != AggCount || stmt.Select[0].Alias != "DAU" {
		t.Fatalf("select: %+v", stmt.Select)
	}
	if stmt.Table != "tb_dpi_log_hours" || stmt.GroupBy != "province" {
		t.Fatalf("stmt: %+v", stmt)
	}
	if len(stmt.Where) != 3 {
		t.Fatalf("where: %+v", stmt.Where)
	}
	if stmt.Where[0].Op != OpEQ || !stmt.Where[0].Lit.IsString {
		t.Fatalf("where[0]: %+v", stmt.Where[0])
	}
	if stmt.Where[1].Op != OpGE || stmt.Where[1].Lit.Int != 1656806400 {
		t.Fatalf("where[1]: %+v", stmt.Where[1])
	}
	if stmt.Where[2].Op != OpLT {
		t.Fatalf("where[2]: %+v", stmt.Where[2])
	}
}

func TestParseVariants(t *testing.T) {
	cases := []string{
		"select * from t",
		"select a, b from t where a = 1",
		"select sum(x) from t group by y",
		"select count(*), sum(v) as total from t where s = 'x' and n <= 5",
	}
	for _, sql := range cases {
		if _, err := Parse(sql); err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
	}
	bad := []string{
		"", "insert into t", "select from t", "select a t",
		"select a from t where", "select a from t where a ! 1",
		"select a from t where a = 'unterminated",
		"select a from t group a", "select a from t extra junk",
		"select count(* from t", "select count(*) from t where a = 1 and",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Fatalf("%q accepted", sql)
		}
	}
}

var dpiSchema = colfile.MustSchema("url:string", "start_time:int64", "province:string", "bytes:int64", "score:float64")

func newEngine(t testing.TB) (*Engine, *lakehouse.Engine) {
	t.Helper()
	clock := sim.NewClock()
	p := pool.New("q", clock, sim.NVMeSSD, 8, 4<<20)
	fs := tableobj.NewFileStore(plog.NewManager(p, 8<<20))
	cat := tableobj.NewCatalog(clock)
	lh := lakehouse.New(clock, fs, cat, lakehouse.Options{Acceleration: true})
	if _, err := lh.CreateTable(tableobj.TableMeta{
		Name: "logs", Path: "/lake/logs", Schema: dpiSchema, PartitionColumn: "province",
	}); err != nil {
		t.Fatal(err)
	}
	return New(lh), lh
}

func loadRows(t testing.TB, lh *lakehouse.Engine, n int) {
	t.Helper()
	var rows []colfile.Row
	for i := 0; i < n; i++ {
		url := "http://fin.app"
		if i%4 == 0 {
			url = "http://other.app"
		}
		rows = append(rows, colfile.Row{
			colfile.StringValue(url),
			colfile.IntValue(int64(1000 + i)),
			colfile.StringValue([]string{"Beijing", "Shanghai"}[i%2]),
			colfile.IntValue(int64(i % 10)),
			colfile.FloatValue(float64(i) / 10),
		})
	}
	if _, err := lh.Insert("logs", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := lh.Flush("logs"); err != nil {
		t.Fatal(err)
	}
}

func TestCountGroupBy(t *testing.T) {
	e, lh := newEngine(t)
	loadRows(t, lh, 1000)
	res, err := e.Query("select count(*) as dau from logs where url = 'http://fin.app' group by province")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Columns[0] != "province" || res.Columns[1] != "dau" {
		t.Fatalf("result: %+v", res)
	}
	var total int64
	for _, r := range res.Rows {
		var c int64
		fmt.Sscanf(r[1], "%d", &c)
		total += c
	}
	if total != 750 {
		t.Fatalf("total count: %d", total)
	}
}

func TestPushdownMatchesComputeSide(t *testing.T) {
	e, lh := newEngine(t)
	loadRows(t, lh, 2000)
	queries := []string{
		"select count(*) from logs",
		"select count(*) from logs where start_time >= 1500 and start_time < 1600",
		"select count(*) from logs where province = 'Beijing' group by url",
		"select sum(bytes) from logs where start_time > 1100 group by province",
		"select count(*) from logs where score < 50.0",
	}
	for _, sql := range queries {
		e.Pushdown = true
		a, err := e.Query(sql)
		if err != nil {
			t.Fatalf("%q pushdown: %v", sql, err)
		}
		e.Pushdown = false
		b, err := e.Query(sql)
		if err != nil {
			t.Fatalf("%q compute-side: %v", sql, err)
		}
		if len(a.Rows) != len(b.Rows) {
			t.Fatalf("%q: pushdown %v vs compute %v", sql, a.Rows, b.Rows)
		}
		for i := range a.Rows {
			for j := range a.Rows[i] {
				if a.Rows[i][j] != b.Rows[i][j] {
					t.Fatalf("%q row %d: %v vs %v", sql, i, a.Rows[i], b.Rows[i])
				}
			}
		}
	}
}

func TestPushdownShipsLessToCompute(t *testing.T) {
	e, lh := newEngine(t)
	loadRows(t, lh, 5000)
	sql := "select count(*) from logs where start_time >= 1000 and start_time <= 1500 group by province"
	e.Pushdown = true
	a, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	e.Pushdown = false
	b, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.ComputeBytes >= b.Stats.ComputeBytes {
		t.Fatalf("pushdown shipped %d bytes >= %d", a.Stats.ComputeBytes, b.Stats.ComputeBytes)
	}
}

func TestProjection(t *testing.T) {
	e, lh := newEngine(t)
	loadRows(t, lh, 10)
	res, err := e.Query("select url, start_time from logs where start_time = 1003")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1] != "1003" {
		t.Fatalf("rows: %+v", res.Rows)
	}
	if res.Columns[0] != "url" || res.Columns[1] != "start_time" {
		t.Fatalf("cols: %v", res.Columns)
	}
	// SELECT * expands the schema.
	res, err = e.Query("select * from logs where start_time = 1003")
	if err != nil || len(res.Columns) != 5 {
		t.Fatalf("star: %v %v", res.Columns, err)
	}
}

func TestMemoryBudgetOOM(t *testing.T) {
	e, lh := newEngine(t)
	loadRows(t, lh, 5000)
	// Without pushdown every matched row ships to compute; a tiny
	// budget must OOM — the Figure 15(b) failure.
	e.Pushdown = false
	e.MemoryBudget = 10_000
	_, err := e.Query("select count(*) from logs")
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("expected OOM, got %v", err)
	}
	// With pushdown, the same budget succeeds: only aggregates ship.
	e.Pushdown = true
	if _, err := e.Query("select count(*) from logs"); err != nil {
		t.Fatalf("pushdown under budget: %v", err)
	}
}

func TestUnknownTableAndColumns(t *testing.T) {
	e, _ := newEngine(t)
	if _, err := e.Query("select count(*) from ghost"); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := e.Query("select count(*) from logs where ghost = 1"); err == nil {
		t.Fatal("unknown where column accepted")
	}
	if _, err := e.Query("select ghost from logs"); err == nil {
		t.Fatal("unknown projection column accepted")
	}
	if _, err := e.Query("select count(*) from logs group by ghost"); err == nil {
		t.Fatal("unknown group column accepted")
	}
	if _, err := e.Query("select count(*) from logs where url = 5"); err == nil {
		t.Fatal("type-mismatched literal accepted")
	}
}

func TestStrictFloatBoundsCorrect(t *testing.T) {
	e, lh := newEngine(t)
	loadRows(t, lh, 100) // scores 0.0 .. 9.9
	res, err := e.Query("select count(*) from logs where score < 1.0")
	if err != nil {
		t.Fatal(err)
	}
	// scores 0.0..0.9 -> 10 rows; strict < must exclude 1.0.
	if res.Rows[0][0] != "10" {
		t.Fatalf("strict float count: %v", res.Rows)
	}
}

// The general path decodes only its WHERE, SELECT and GROUP BY columns;
// a projected SELECT must return exactly the matching columns of
// SELECT *.
func TestProjectedSelectMatchesSelectStar(t *testing.T) {
	e, lh := newEngine(t)
	loadRows(t, lh, 3000)
	for _, pushdown := range []bool{true, false} {
		e.Pushdown = pushdown
		where := " from logs where start_time >= 1200 and start_time < 2900 and score > 12.5"
		star, err := e.Query("select *" + where)
		if err != nil {
			t.Fatal(err)
		}
		proj, err := e.Query("select province, url" + where)
		if err != nil {
			t.Fatal(err)
		}
		if len(star.Rows) == 0 || len(proj.Rows) != len(star.Rows) {
			t.Fatalf("pushdown=%v: projected %d rows, select * %d", pushdown, len(proj.Rows), len(star.Rows))
		}
		prov, url := dpiSchema.FieldIndex("province"), dpiSchema.FieldIndex("url")
		for i, r := range star.Rows {
			if want := []string{r[prov], r[url]}; !reflect.DeepEqual(proj.Rows[i], want) {
				t.Fatalf("pushdown=%v row %d: projected %v, select * gives %v", pushdown, i, proj.Rows[i], want)
			}
		}
		if proj.Stats.RowsScanned != star.Stats.RowsScanned || proj.Stats.ExecCost != star.Stats.ExecCost ||
			proj.Stats.ComputeBytes != star.Stats.ComputeBytes {
			t.Fatalf("pushdown=%v: projected stats %+v, select * %+v", pushdown, proj.Stats, star.Stats)
		}
	}
}
