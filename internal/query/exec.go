package query

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/lakehouse"
	"streamlake/internal/obs"
	"streamlake/internal/sim"
)

// ErrOOM reports that a query exceeded the compute engine's memory
// budget — the failure mode the non-accelerated configuration hits at
// 1 GB in Figure 15(b).
var ErrOOM = errors.New("query: out of memory")

// Engine executes SQL over a lakehouse engine.
type Engine struct {
	lh *lakehouse.Engine
	// Pushdown computes filters and aggregates at the storage side
	// (Section V's computation pushdown); disabled, every matched row is
	// shipped to the compute side first.
	Pushdown bool
	// MemoryBudget bounds compute-side memory in bytes (0 = unlimited):
	// planning metadata plus, without pushdown, the shipped rows.
	MemoryBudget int64
	// net is the storage-to-compute link: under the disaggregated
	// architecture every byte reaching the compute engine crosses it,
	// which is what pushdown exists to avoid.
	net *sim.Device

	// metrics holds the obs instrument set behind an atomic pointer so
	// SetObs can be wired (or re-wired) while queries are in flight;
	// Execute loads one consistent set per query. A zero engineMetrics
	// is all nil-safe no-op counters.
	metrics atomic.Pointer[engineMetrics]
}

// engineMetrics is the query layer's obs instrument set.
type engineMetrics struct {
	queries      *obs.Counter
	pushdownHits *obs.Counter
	computeBytes *obs.Counter
}

// SetObs registers the query engine's telemetry: query volume, how
// often the aggregate pushdown fast path fired (the pushdown hit rate
// is hits/queries), and the bytes shipped into compute memory. Safe to
// call concurrently with Execute: the instrument set is swapped
// atomically, never mutated in place.
func (e *Engine) SetObs(reg *obs.Registry) {
	e.metrics.Store(&engineMetrics{
		queries:      reg.Counter("query_queries_total"),
		pushdownHits: reg.Counter("query_pushdown_hits_total"),
		computeBytes: reg.Counter("query_compute_bytes_total"),
	})
}

// obsMetrics returns the current instrument set, never nil.
func (e *Engine) obsMetrics() *engineMetrics {
	if m := e.metrics.Load(); m != nil {
		return m
	}
	return &engineMetrics{}
}

// New builds a query engine with pushdown enabled.
func New(lh *lakehouse.Engine) *Engine {
	return &Engine{lh: lh, Pushdown: true, net: sim.NewDeviceOf("compute-link", sim.Net10GbE)}
}

// ExecStats accounts one query's execution.
type ExecStats struct {
	PlanCost      time.Duration
	ExecCost      time.Duration
	MetadataBytes int64
	ComputeBytes  int64 // bytes that crossed into compute memory
	RowsScanned   int64
	FilesRead     int
	FilesSkipped  int
}

// Result is a query result set.
type Result struct {
	Columns []string
	Rows    [][]string
	Stats   ExecStats
}

const rowShipBytes = 96 // modelled per-row transfer footprint

// Query parses and executes one SELECT statement.
func (e *Engine) Query(sql string) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.Execute(stmt)
}

// Execute runs a parsed statement.
func (e *Engine) Execute(stmt *Stmt) (*Result, error) {
	tbl, err := e.lh.Table(stmt.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	filters, err := condsToFilters(schema, stmt.Where)
	if err != nil {
		return nil, err
	}
	for _, item := range stmt.Select {
		if item.Column != "" && item.Column != "*" && schema.FieldIndex(item.Column) < 0 {
			return nil, fmt.Errorf("query: unknown column %q", item.Column)
		}
	}
	res := &Result{}
	m := e.obsMetrics()
	m.queries.Inc()

	// Fast path: pure aggregates pushed down to storage — only when the
	// range filters represent the conjuncts exactly (strict bounds on
	// floats/strings cannot be closed soundly).
	if e.Pushdown && allAggregates(stmt.Select) && condsExact(schema, stmt.Where) {
		aggs, cost, err := e.executePushdown(stmt, filters)
		if err != nil {
			return nil, err
		}
		m.pushdownHits.Inc()
		res.Stats.ComputeBytes = int64(len(aggs)) * rowShipBytes
		res.Stats.ExecCost = cost + e.net.Read(res.Stats.ComputeBytes)
		m.computeBytes.Add(res.Stats.ComputeBytes)
		if err := e.checkBudget(res.Stats.ComputeBytes); err != nil {
			return nil, err
		}
		fillAggregateResult(res, stmt, aggs)
		return res, nil
	}

	// General path: plan, scan, compute-side evaluation.
	plan, planCost, err := e.lh.PlanScan(stmt.Table, filters)
	if err != nil {
		return nil, err
	}
	res.Stats.PlanCost = planCost
	res.Stats.MetadataBytes = plan.MetadataBytes
	res.Stats.FilesRead = len(plan.Files)
	res.Stats.FilesSkipped = plan.SkippedFiles
	if err := e.checkBudget(plan.MetadataBytes); err != nil {
		return nil, err
	}
	scanFilters := filters
	if !e.Pushdown {
		// Without pushdown the storage returns whole files; filtering
		// happens compute-side.
		scanFilters = nil
	}
	var shipped int64
	type groupAgg struct {
		count int64
		sums  map[int]float64
	}
	groups := map[string]*groupAgg{}
	var rawRows [][]string
	gi := -1
	if stmt.GroupBy != "" {
		gi = schema.FieldIndex(stmt.GroupBy)
		if gi < 0 {
			return nil, fmt.Errorf("query: unknown group-by column %q", stmt.GroupBy)
		}
	}
	where, whereOK := bindConds(schema, stmt.Where)
	aggregate := allAggregates(stmt.Select) || stmt.GroupBy != ""
	sumCols := make([]int, len(stmt.Select)) // schema index per SUM item, -1 elsewhere
	for i, item := range stmt.Select {
		sumCols[i] = -1
		if item.Agg == AggSum {
			sumCols[i] = schema.FieldIndex(item.Column)
		}
	}
	var oom error
	stats, execCost, err := e.lh.Scan(stmt.Table, plan, scanFilters, readColumns(schema, stmt), func(row colfile.Row) bool {
		shipped += rowShipBytes
		if err := e.checkBudget(plan.MetadataBytes + shipped); err != nil {
			oom = err
			return false
		}
		// The storage-side range filters are a (possibly loose) cover;
		// the exact conjuncts are always re-checked here.
		if !whereOK || !rowMatchesConds(row, where) {
			return true
		}
		if aggregate {
			key := ""
			if gi >= 0 {
				key = row[gi].String()
			}
			g := groups[key]
			if g == nil {
				g = &groupAgg{sums: map[int]float64{}}
				groups[key] = g
			}
			g.count++
			for i, c := range sumCols {
				if c >= 0 {
					switch row[c].Type {
					case colfile.Int64:
						g.sums[i] += float64(row[c].Int)
					case colfile.Float64:
						g.sums[i] += row[c].Float
					}
				}
			}
			return true
		}
		// Plain projection.
		var out []string
		for _, item := range stmt.Select {
			if item.Column == "*" {
				for _, v := range row {
					out = append(out, v.String())
				}
				continue
			}
			c := schema.FieldIndex(item.Column)
			if c < 0 {
				oom = fmt.Errorf("query: unknown column %q", item.Column)
				return false
			}
			out = append(out, row[c].String())
		}
		rawRows = append(rawRows, out)
		return true
	})
	if oom != nil {
		return nil, oom
	}
	if err != nil {
		return nil, err
	}
	// Every shipped row crosses the storage-to-compute link.
	execCost += e.net.Read(shipped)
	res.Stats.ExecCost = execCost
	res.Stats.ComputeBytes = shipped + plan.MetadataBytes
	res.Stats.RowsScanned = stats.RowsScanned
	m.computeBytes.Add(res.Stats.ComputeBytes)

	if aggregate {
		var aggs []lakehouse.AggregateResult
		for key, g := range groups {
			a := lakehouse.AggregateResult{Group: key, Count: g.count}
			for _, s := range g.sums {
				a.Sum = s
			}
			aggs = append(aggs, a)
		}
		sort.Slice(aggs, func(i, j int) bool { return aggs[i].Group < aggs[j].Group })
		fillAggregateResult(res, stmt, aggs)
		return res, nil
	}
	res.Columns = projectionColumns(stmt, schema)
	res.Rows = rawRows
	return res, nil
}

// readColumns lists the schema indices of the columns the general path
// reads from each row — the WHERE, SELECT and GROUP BY columns — or nil
// (every column) for SELECT *. Unknown names resolve to -1, which the
// scan ignores.
func readColumns(schema colfile.Schema, stmt *Stmt) []int {
	cols := []int{}
	for _, item := range stmt.Select {
		if item.Column == "*" {
			return nil
		}
		cols = append(cols, schema.FieldIndex(item.Column))
	}
	for _, c := range stmt.Where {
		cols = append(cols, schema.FieldIndex(c.Column))
	}
	return append(cols, schema.FieldIndex(stmt.GroupBy))
}

func (e *Engine) executePushdown(stmt *Stmt, filters []lakehouse.RangeFilter) ([]lakehouse.AggregateResult, time.Duration, error) {
	sumCol := ""
	for _, item := range stmt.Select {
		if item.Agg == AggSum {
			sumCol = item.Column
		}
	}
	return e.lh.AggregatePushdown(stmt.Table, filters, stmt.GroupBy, sumCol)
}

func (e *Engine) checkBudget(used int64) error {
	if e.MemoryBudget > 0 && used > e.MemoryBudget {
		return fmt.Errorf("%w: %d bytes exceeds budget %d", ErrOOM, used, e.MemoryBudget)
	}
	return nil
}

// condsExact reports whether every conjunct is exactly representable as
// a closed range filter.
func condsExact(schema colfile.Schema, conds []Cond) bool {
	for _, c := range conds {
		if c.Op == OpLT || c.Op == OpGT {
			ci := schema.FieldIndex(c.Column)
			if ci < 0 || schema.Fields[ci].Type != colfile.Int64 {
				return false
			}
		}
	}
	return true
}

func allAggregates(items []SelectItem) bool {
	for _, it := range items {
		if it.Agg == AggNone {
			return false
		}
	}
	return len(items) > 0
}

func fillAggregateResult(res *Result, stmt *Stmt, aggs []lakehouse.AggregateResult) {
	if stmt.GroupBy != "" {
		res.Columns = append(res.Columns, stmt.GroupBy)
	}
	for _, item := range stmt.Select {
		name := item.Alias
		if name == "" {
			switch item.Agg {
			case AggCount:
				name = "count"
			case AggSum:
				name = "sum(" + item.Column + ")"
			}
		}
		res.Columns = append(res.Columns, name)
	}
	for _, a := range aggs {
		var row []string
		if stmt.GroupBy != "" {
			row = append(row, a.Group)
		}
		for _, item := range stmt.Select {
			switch item.Agg {
			case AggCount:
				row = append(row, fmt.Sprintf("%d", a.Count))
			case AggSum:
				row = append(row, trimFloat(a.Sum))
			}
		}
		res.Rows = append(res.Rows, row)
	}
}

func trimFloat(f float64) string {
	if f == float64(int64(f)) {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}

func projectionColumns(stmt *Stmt, schema colfile.Schema) []string {
	var out []string
	for _, item := range stmt.Select {
		if item.Column == "*" {
			for _, f := range schema.Fields {
				out = append(out, f.Name)
			}
			continue
		}
		name := item.Alias
		if name == "" {
			name = item.Column
		}
		out = append(out, name)
	}
	return out
}

// condsToFilters lowers WHERE conjuncts to storage range filters.
func condsToFilters(schema colfile.Schema, conds []Cond) ([]lakehouse.RangeFilter, error) {
	byCol := map[string]*lakehouse.RangeFilter{}
	var order []string
	for _, c := range conds {
		ci := schema.FieldIndex(c.Column)
		if ci < 0 {
			return nil, fmt.Errorf("query: unknown column %q", c.Column)
		}
		v, err := literalToValue(schema.Fields[ci].Type, c.Lit)
		if err != nil {
			return nil, err
		}
		f := byCol[c.Column]
		if f == nil {
			f = &lakehouse.RangeFilter{Column: c.Column}
			byCol[c.Column] = f
			order = append(order, c.Column)
		}
		switch c.Op {
		case OpEQ:
			setLo(f, v)
			setHi(f, v)
		case OpLE:
			setHi(f, v)
		case OpGE:
			setLo(f, v)
		case OpLT:
			setHi(f, pred(v))
		case OpGT:
			setLo(f, succ(v))
		}
	}
	out := make([]lakehouse.RangeFilter, 0, len(order))
	for _, col := range order {
		out = append(out, *byCol[col])
	}
	return out, nil
}

func setLo(f *lakehouse.RangeFilter, v colfile.Value) {
	if f.Lo == nil || colfile.Compare(v, *f.Lo) > 0 {
		f.Lo = &v
	}
}

func setHi(f *lakehouse.RangeFilter, v colfile.Value) {
	if f.Hi == nil || colfile.Compare(v, *f.Hi) < 0 {
		f.Hi = &v
	}
}

// pred/succ adjust strict bounds to closed bounds for discrete types;
// floats and strings keep the literal (strictness handled by row
// filtering — a sound over-approximation at the file-skipping level).
func pred(v colfile.Value) colfile.Value {
	if v.Type == colfile.Int64 {
		return colfile.IntValue(v.Int - 1)
	}
	return v
}

func succ(v colfile.Value) colfile.Value {
	if v.Type == colfile.Int64 {
		return colfile.IntValue(v.Int + 1)
	}
	return v
}

func literalToValue(t colfile.Type, lit Literal) (colfile.Value, error) {
	switch t {
	case colfile.Int64:
		if lit.IsString {
			return colfile.Value{}, errors.New("query: string literal for int column")
		}
		if lit.IsInt {
			return colfile.IntValue(lit.Int), nil
		}
		return colfile.IntValue(int64(lit.Num)), nil
	case colfile.Float64:
		if lit.IsString {
			return colfile.Value{}, errors.New("query: string literal for float column")
		}
		return colfile.FloatValue(lit.Num), nil
	case colfile.String:
		if !lit.IsString {
			return colfile.Value{}, errors.New("query: non-string literal for string column")
		}
		return colfile.StringValue(lit.Str), nil
	case colfile.Bool:
		return colfile.Value{}, errors.New("query: bool columns not comparable in WHERE")
	}
	return colfile.Value{}, errors.New("query: unsupported column type")
}

// boundCond is a WHERE conjunct resolved against the table schema: its
// column index and its literal as a value of the column's type.
type boundCond struct {
	col int
	op  CondOp
	val colfile.Value
}

// bindConds resolves the conjuncts once per query. ok is false when a
// conjunct names an unknown column or carries a literal of the wrong
// type: such a WHERE clause matches no row.
func bindConds(schema colfile.Schema, conds []Cond) (bound []boundCond, ok bool) {
	bound = make([]boundCond, len(conds))
	for i, c := range conds {
		ci := schema.FieldIndex(c.Column)
		if ci < 0 {
			return nil, false
		}
		v, err := literalToValue(schema.Fields[ci].Type, c.Lit)
		if err != nil {
			return nil, false
		}
		bound[i] = boundCond{col: ci, op: c.Op, val: v}
	}
	return bound, true
}

// rowMatchesConds evaluates the bound conjuncts (including strict
// inequalities) compute-side.
func rowMatchesConds(row colfile.Row, conds []boundCond) bool {
	for _, c := range conds {
		cmp := colfile.Compare(row[c.col], c.val)
		switch c.op {
		case OpEQ:
			if cmp != 0 {
				return false
			}
		case OpLT:
			if cmp >= 0 {
				return false
			}
		case OpLE:
			if cmp > 0 {
				return false
			}
		case OpGT:
			if cmp <= 0 {
				return false
			}
		case OpGE:
			if cmp < 0 {
				return false
			}
		}
	}
	return true
}
