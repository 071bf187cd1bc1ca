package lakehouse

import (
	"errors"
	"math"
	"strings"
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/obs"
	"streamlake/internal/tableobj"
)

// scanMetrics is the lakehouse layer's obs instrument set; wired once
// by SetObs, nil-safe no-ops until then.
type scanMetrics struct {
	scans        *obs.Counter
	rowsScanned  *obs.Counter
	readBytes    *obs.Counter
	skippedBytes *obs.Counter
	plans        *obs.Counter
	prunedFiles  *obs.Counter
	zonePruned   *obs.Counter
	bloomPruned  *obs.Counter
	scanLat      *obs.Histogram
}

// SetObs registers the lakehouse engine's scan telemetry. Call at
// wiring time, before the engine serves queries.
func (e *Engine) SetObs(reg *obs.Registry) {
	e.mu.Lock()
	e.metrics = scanMetrics{
		scans:        reg.Counter("lakehouse_scans_total"),
		rowsScanned:  reg.Counter("lakehouse_rows_scanned_total"),
		readBytes:    reg.Counter("lakehouse_scan_read_bytes_total"),
		skippedBytes: reg.Counter("lakehouse_scan_skipped_bytes_total"),
		plans:        reg.Counter("lakehouse_plans_total"),
		prunedFiles:  reg.Counter("lakehouse_pruned_files_total"),
		zonePruned:   reg.Counter("lakehouse_zone_pruned_files_total"),
		bloomPruned:  reg.Counter("lakehouse_bloom_pruned_files_total"),
		scanLat:      reg.Histogram("lakehouse_scan_seconds"),
	}
	e.mu.Unlock()
}

// RangeFilter is a pushdown predicate on one column: lo <= col <= hi,
// with nil bounds unbounded. It is the storage-side predicate shape the
// engine understands for data skipping and pushdown.
type RangeFilter struct {
	Column string
	Lo, Hi *colfile.Value
}

// Plan is the result of query planning: the data files a scan must
// visit, plus accounting of the planning work — the quantities Figure 15
// measures.
type Plan struct {
	Files []tableobj.DataFile
	// MetadataBytes is how much metadata the compute engine had to load
	// to plan the query; the baseline loads the whole listing, the
	// accelerated path only the matched manifest entries (Figure 15-b's
	// memory pressure).
	MetadataBytes int64
	// SkippedFiles counts files pruned by statistics.
	SkippedFiles int
	// ZonePrunedFiles counts the SkippedFiles subset pruned only by zone
	// maps: the file-level range overlapped the predicate but no single
	// row group's did.
	ZonePrunedFiles int
	// BloomPrunedFiles counts the SkippedFiles subset pruned only by a
	// bloom filter on an equality predicate.
	BloomPrunedFiles int
	// TotalFiles is the table's current file count.
	TotalFiles int
}

const fileMetaBytes = 220 // approximate manifest entry footprint

// PlanScan resolves the files a filtered scan must read. With
// acceleration the current snapshot manifest comes from the catalog
// pointer + snapshot file + cached pending records (cost independent of
// partition count); without it the engine behaves like a file-based
// catalog: it lists the data directory and opens every file's footer.
func (e *Engine) PlanScan(name string, filters []RangeFilter) (Plan, time.Duration, error) {
	st, err := e.state(name)
	if err != nil {
		return Plan{}, 0, err
	}
	var plan Plan
	var cost time.Duration
	if e.opts.Acceleration {
		plan, cost, err = e.planAccelerated(st, filters)
	} else {
		plan, cost, err = e.planFileBased(st, filters)
	}
	if err == nil {
		e.mu.Lock()
		m := e.metrics
		e.mu.Unlock()
		m.plans.Inc()
		m.prunedFiles.Add(int64(plan.SkippedFiles))
		m.zonePruned.Add(int64(plan.ZonePrunedFiles))
		m.bloomPruned.Add(int64(plan.BloomPrunedFiles))
	}
	return plan, cost, err
}

func (e *Engine) planAccelerated(st *tableState, filters []RangeFilter) (Plan, time.Duration, error) {
	snap, cost, err := e.currentSnapshot(st)
	if err != nil {
		return Plan{}, cost, err
	}
	e.mu.Lock()
	files := append(append([]tableobj.DataFile(nil), snap.Files...), st.pendingAdds...)
	removed := map[string]bool{}
	for _, f := range st.pendingRemoves {
		removed[f.Path] = true
	}
	e.mu.Unlock()
	plan := Plan{TotalFiles: 0}
	for _, f := range files {
		if removed[f.Path] {
			continue
		}
		plan.TotalFiles++
		plan.admit(st.tbl.Schema(), f, filters)
	}
	// Only the matched entries reach the compute engine.
	plan.MetadataBytes = int64(len(plan.Files)) * fileMetaBytes
	return plan, cost, nil
}

// currentSnapshot resolves the table's current snapshot manifest,
// serving the encoded snapshot file from the read cache when one is
// attached (the Figure 15 planning acceleration: repeated planning
// reads no manifest bytes from devices). The key embeds the snapshot
// id and snapshot files are immutable by id, so a cached manifest can
// never be stale in content — the pointer lookup itself always goes to
// the catalog.
func (e *Engine) currentSnapshot(st *tableState) (tableobj.Snapshot, time.Duration, error) {
	e.mu.Lock()
	c := e.rcache
	e.mu.Unlock()
	if c == nil {
		return st.tbl.Current()
	}
	name := st.tbl.Meta().Name
	ptr, cost, err := e.cat.SnapshotPointer(name)
	if err != nil {
		return tableobj.Snapshot{}, cost, err
	}
	key := manifestKey(name, ptr)
	if blob, ccost, ok := c.Get(key); ok {
		if snap, derr := tableobj.DecodeSnapshot(blob); derr == nil {
			return snap, cost + ccost, nil
		}
		c.Invalidate(key) // undecodable entry: drop it and refill below
	}
	blob, rc, err := e.fs.Read(tableobj.SnapshotPath(st.tbl.Meta().Path, ptr))
	if err != nil {
		return tableobj.Snapshot{}, cost + rc, err
	}
	snap, err := tableobj.DecodeSnapshot(blob)
	if err != nil {
		return tableobj.Snapshot{}, cost + rc, err
	}
	c.Put(key, blob)
	return snap, cost + rc, nil
}

func (e *Engine) planFileBased(st *tableState, filters []RangeFilter) (Plan, time.Duration, error) {
	// Baseline: list every file under /data, then read each file's
	// footer for statistics. Planning cost and memory both scale with
	// the file count.
	paths, cost := e.fs.List(st.tbl.Meta().Path + "/data/")
	plan := Plan{TotalFiles: len(paths)}
	schema := st.tbl.Schema()
	for _, p := range paths {
		blob, rc, err := e.fs.Read(p)
		if err != nil {
			return plan, cost, err
		}
		cost += rc
		r, err := colfile.Open(blob)
		if err != nil {
			return plan, cost, err
		}
		f := tableobj.DataFile{Path: p, Partition: partitionOf(p), Rows: r.NumRows(), Bytes: int64(len(blob))}
		// Reconstruct file-level stats from the row-group footers.
		for c := 0; c < schema.NumFields(); c++ {
			var lo, hi colfile.Value
			for g := 0; g < r.NumRowGroups(); g++ {
				gs := r.GroupStats(g, c)
				if g == 0 {
					lo, hi = gs.Min, gs.Max
					continue
				}
				if colfile.Compare(gs.Min, lo) < 0 {
					lo = gs.Min
				}
				if colfile.Compare(gs.Max, hi) > 0 {
					hi = gs.Max
				}
			}
			f.Min = append(f.Min, lo)
			f.Max = append(f.Max, hi)
		}
		plan.admit(schema, f, filters)
	}
	// The whole listing plus every footer passed through compute memory.
	plan.MetadataBytes = int64(len(paths)) * fileMetaBytes * 4
	return plan, cost, nil
}

func partitionOf(path string) string {
	parts := strings.Split(path, "/")
	if len(parts) >= 2 {
		return parts[len(parts)-2]
	}
	return ""
}

// admit routes one file into the plan or the skip counters, attributing
// zone-map and bloom prunes separately from file-level range prunes.
func (p *Plan) admit(schema colfile.Schema, f tableobj.DataFile, filters []RangeFilter) {
	switch filePrune(schema, f, filters) {
	case pruneNone:
		p.Files = append(p.Files, f)
	case pruneRange:
		p.SkippedFiles++
	case pruneZone:
		p.SkippedFiles++
		p.ZonePrunedFiles++
	case pruneBloom:
		p.SkippedFiles++
		p.BloomPrunedFiles++
	}
}

type pruneReason int

const (
	pruneNone  pruneReason = iota
	pruneRange             // file-level min/max (or an empty file) excludes the predicate
	pruneZone              // file range overlaps, but no row group's range does
	pruneBloom             // ranges overlap, but the bloom filter rules out an equality probe
)

// filePrune decides whether the file's statistics exclude the filters,
// consulting (in escalating precision) the file-level value ranges, the
// per-row-group zone maps, and the per-column bloom filters for
// equality predicates. Files written without zone maps carry neither
// zones nor blooms and behave exactly as before.
func filePrune(schema colfile.Schema, f tableobj.DataFile, filters []RangeFilter) pruneReason {
	if f.Rows == 0 {
		return pruneRange
	}
	for _, flt := range filters {
		c := schema.FieldIndex(flt.Column)
		if c < 0 {
			continue
		}
		if !f.Overlaps(c, flt.Lo, flt.Hi) {
			return pruneRange
		}
		if len(f.Zones) > 0 && !zonesOverlap(f.Zones, c, flt.Lo, flt.Hi) {
			return pruneZone
		}
		if flt.Lo != nil && flt.Hi != nil && colfile.Compare(*flt.Lo, *flt.Hi) == 0 &&
			c < len(f.Blooms) && !f.Blooms[c].MayContain(*flt.Lo) {
			return pruneBloom
		}
	}
	return pruneNone
}

// zonesOverlap reports whether any row group's range for column c can
// intersect [lo, hi].
func zonesOverlap(zones []tableobj.ZoneMap, c int, lo, hi *colfile.Value) bool {
	for _, z := range zones {
		if c >= len(z.Min) {
			return true // no stats for the column: cannot skip
		}
		if lo != nil && colfile.Compare(z.Max[c], *lo) < 0 {
			continue
		}
		if hi != nil && colfile.Compare(z.Min[c], *hi) > 0 {
			continue
		}
		return true
	}
	return false
}

func fileMatches(schema colfile.Schema, f tableobj.DataFile, filters []RangeFilter) bool {
	return filePrune(schema, f, filters) == pruneNone
}

// filterColumns resolves each filter's schema index once per
// operation, aligned with filters; -1 marks an unknown column, which
// every row and group matches.
func filterColumns(schema colfile.Schema, filters []RangeFilter) []int {
	idx := make([]int, len(filters))
	for i, flt := range filters {
		idx[i] = schema.FieldIndex(flt.Column)
	}
	return idx
}

// rowMatches evaluates the filters on row; idx holds their resolved
// columns (filterColumns).
func rowMatches(row colfile.Row, filters []RangeFilter, idx []int) bool {
	for i, flt := range filters {
		c := idx[i]
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

// Scan reads the planned files and streams matching rows to fn,
// skipping row groups whose statistics exclude the filters (data
// skipping within the file) and returning the modelled read latency
// plus the bytes actually read vs skipped.
//
// Each admitted row group is evaluated a column at a time. A filter
// whose group [Min, Max] lies inside its bounds passes every row and is
// settled from the statistics alone; the rest are evaluated over their
// decoded columns into one selection of row indices. cols lists the
// schema indices of the columns fn reads (nil means every column;
// negative indices are ignored). A projected non-float column that the
// statistics prove constant is filled from them; the other projected
// columns and the unsettled filter columns are decoded, nothing else.
// Slots outside cols always hold zero Values. Projection and settling
// save decode CPU and allocations only: every scanned file is still
// read whole and ReadBytes still counts whole row groups, so the
// modelled I/O is the same for any cols.
//
// The row passed to fn is a reused buffer, valid only for the duration
// of the callback: retain a copy, not the row itself, and do not modify
// it.
func (e *Engine) Scan(name string, plan Plan, filters []RangeFilter, cols []int, fn func(colfile.Row) bool) (ScanStats, time.Duration, error) {
	st, err := e.state(name)
	if err != nil {
		return ScanStats{}, 0, err
	}
	schema := st.tbl.Schema()
	var stats ScanStats
	var cost time.Duration
	e.mu.Lock()
	m := e.metrics
	e.mu.Unlock()
	defer func() {
		m.scans.Inc()
		m.rowsScanned.Add(stats.RowsScanned)
		m.readBytes.Add(stats.ReadBytes)
		m.skippedBytes.Add(stats.SkippedBytes)
		m.scanLat.Observe(cost)
	}()
	// One codec, one row and one set of scratch buffers serve every
	// group of every file this scan reads; fn must not retain the row.
	var codec colfile.Codec
	gs := newGroupScan(schema, filters, cols)
	for _, f := range plan.Files {
		blob, rc, err := e.fs.Read(f.Path)
		if err != nil {
			return stats, cost, err
		}
		cost += rc
		r, err := codec.Open(blob)
		if err != nil {
			return stats, cost, err
		}
		for g := 0; g < r.NumRowGroups(); g++ {
			if !groupMatches(r, g, filters, gs.fcols) {
				stats.SkippedBytes += r.GroupBytes(g)
				stats.SkippedGroups++
				continue
			}
			stats.ReadBytes += r.GroupBytes(g)
			more, err := gs.scan(r, g, &stats, fn)
			if err != nil || !more {
				return stats, cost, err
			}
		}
	}
	return stats, cost, nil
}

// groupScan is one Scan's per-group evaluator and the scratch it
// reuses across every row group of every file.
type groupScan struct {
	schema  colfile.Schema
	filters []RangeFilter
	fcols   []int  // filters' resolved columns (filterColumns)
	proj    []bool // per column: fn reads it
	settled []bool // per filter: the group's stats pass every row
	need    []bool // per column: decoded in this group
	slot    []int  // per column: its index in vals when decoded
	decode  []int  // the columns decoded in this group, schema order
	copied  []int  // the decoded projected columns
	vals    [][]colfile.Value
	sel     []int32 // the group's rows that pass every filter
	row     colfile.Row
}

func newGroupScan(schema colfile.Schema, filters []RangeFilter, cols []int) *groupScan {
	n := schema.NumFields()
	gs := &groupScan{
		schema:  schema,
		filters: filters,
		fcols:   filterColumns(schema, filters),
		proj:    make([]bool, n),
		settled: make([]bool, len(filters)),
		need:    make([]bool, n),
		slot:    make([]int, n),
		decode:  make([]int, 0, n),
		copied:  make([]int, 0, n),
		row:     make(colfile.Row, n),
	}
	for c := range gs.proj {
		gs.proj[c] = cols == nil
	}
	for _, c := range cols {
		if c >= 0 && c < n {
			gs.proj[c] = true
		}
	}
	return gs
}

// scan evaluates row group g of r, which groupMatches admitted, and
// hands fn the projected columns of every row that passes the filters.
// It adds the group's rows and matches to stats, counting only up to
// the row where fn stops, and reports whether fn asked for more.
func (gs *groupScan) scan(r *colfile.Reader, g int, stats *ScanStats, fn func(colfile.Row) bool) (bool, error) {
	rows := r.GroupRows(g)
	for i, flt := range gs.filters {
		c := gs.fcols[i]
		gs.settled[i] = c < 0 || settles(r.GroupStats(g, c), flt)
	}
	for c := range gs.need {
		gs.need[c] = false
		if gs.proj[c] {
			if st := r.GroupStats(g, c); constant(st, gs.schema.Fields[c].Type, rows) {
				gs.row[c] = st.Min
			} else {
				gs.need[c] = true
			}
		}
	}
	for i, c := range gs.fcols {
		if !gs.settled[i] {
			gs.need[c] = true
		}
	}
	gs.decode, gs.copied = gs.decode[:0], gs.copied[:0]
	for c, ok := range gs.need {
		if !ok {
			continue
		}
		gs.slot[c] = len(gs.decode)
		gs.decode = append(gs.decode, c)
		if gs.proj[c] {
			gs.copied = append(gs.copied, c)
		}
	}
	var err error
	if gs.vals, err = r.ReadGroup(g, gs.decode, gs.vals); err != nil {
		return false, err
	}
	stats.DecodedChunks += int64(len(gs.decode))

	if cap(gs.sel) < rows {
		gs.sel = make([]int32, 0, rows)
	}
	sel := gs.sel[:rows]
	for i := range sel {
		sel[i] = int32(i)
	}
	for i, flt := range gs.filters {
		if !gs.settled[i] {
			c := gs.fcols[i]
			sel = selectRange(sel, gs.vals[gs.slot[c]], gs.schema.Fields[c].Type, flt)
		}
	}
	for j, i := range sel {
		for _, c := range gs.copied {
			gs.row[c] = gs.vals[gs.slot[c]][i]
		}
		if !fn(gs.row) {
			stats.RowsScanned += int64(i) + 1
			stats.RowsMatched += int64(j) + 1
			return false, nil
		}
	}
	stats.RowsScanned += int64(rows)
	stats.RowsMatched += int64(len(sel))
	return true, nil
}

// settles reports whether a group's stats prove that every row passes
// flt, by the same Compare rowMatches uses. A float group whose first
// value is NaN has NaN stats (NaN compares equal to everything, so the
// writer's min/max never move off it) that bound nothing, so it never
// settles; otherwise NaN rows pass any range, as in rowMatches.
func settles(st colfile.Stats, flt RangeFilter) bool {
	if st.Min.Type == colfile.Float64 && (math.IsNaN(st.Min.Float) || math.IsNaN(st.Max.Float)) {
		return false
	}
	return (flt.Lo == nil || colfile.Compare(st.Min, *flt.Lo) >= 0) &&
		(flt.Hi == nil || colfile.Compare(st.Max, *flt.Hi) <= 0)
}

// constant reports whether a group's stats prove every one of its rows
// holds st.Min. Floats are excluded: Compare treats NaN and ±0 as
// equal, so Min == Max does not make a float column constant.
func constant(st colfile.Stats, t colfile.Type, rows int) bool {
	return t != colfile.Float64 && st.Min.Type == t && st.Count == int64(rows) &&
		colfile.Compare(st.Min, st.Max) == 0
}

// selectRange keeps the rows of sel whose value in col (a column of
// type t) lies inside flt, filtering sel in place. Int64, Float64 and
// String columns compare natively, exactly as Compare orders them;
// anything else, or a bound of another type, goes through Compare, so a
// type mismatch panics as it does in rowMatches.
func selectRange(sel []int32, col []colfile.Value, t colfile.Type, flt RangeFilter) []int32 {
	out := sel[:0]
	native := (flt.Lo == nil || flt.Lo.Type == t) && (flt.Hi == nil || flt.Hi.Type == t)
	switch {
	case native && t == colfile.Int64:
		lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
		if flt.Lo != nil {
			lo = flt.Lo.Int
		}
		if flt.Hi != nil {
			hi = flt.Hi.Int
		}
		for _, i := range sel {
			if v := col[i].Int; v >= lo && v <= hi {
				out = append(out, i)
			}
		}
	case native && t == colfile.Float64:
		// NaN on either side compares false, so it passes, as in Compare.
		lo, hi := math.Inf(-1), math.Inf(1)
		if flt.Lo != nil {
			lo = flt.Lo.Float
		}
		if flt.Hi != nil {
			hi = flt.Hi.Float
		}
		for _, i := range sel {
			if v := col[i].Float; !(v < lo) && !(v > hi) {
				out = append(out, i)
			}
		}
	case native && t == colfile.String:
		for _, i := range sel {
			v := col[i].Str
			if (flt.Lo == nil || v >= flt.Lo.Str) && (flt.Hi == nil || v <= flt.Hi.Str) {
				out = append(out, i)
			}
		}
	default:
		for _, i := range sel {
			v := col[i]
			if (flt.Lo == nil || colfile.Compare(v, *flt.Lo) >= 0) && (flt.Hi == nil || colfile.Compare(v, *flt.Hi) <= 0) {
				out = append(out, i)
			}
		}
	}
	return out
}

func groupMatches(r *colfile.Reader, g int, filters []RangeFilter, idx []int) bool {
	for i, flt := range filters {
		c := idx[i]
		if c < 0 {
			continue
		}
		if !r.GroupStats(g, c).Overlaps(flt.Lo, flt.Hi) {
			return false
		}
	}
	return true
}

// ScanStats accounts a scan's work.
type ScanStats struct {
	RowsScanned   int64
	RowsMatched   int64
	ReadBytes     int64
	SkippedBytes  int64
	SkippedGroups int
	// DecodedChunks counts the column chunks decoded: projected columns
	// the stats do not prove constant plus unsettled filter columns,
	// per admitted row group.
	DecodedChunks int64
}

// AggregateResult is one group of a pushed-down aggregation.
type AggregateResult struct {
	Group string
	Count int64
	Sum   float64
}

// AggregatePushdown runs COUNT (and SUM of sumColumn, when non-empty)
// grouped by groupColumn entirely at the storage side — the computation
// pushdown that keeps the Figure 13 DAU query from shipping raw rows to
// the compute engine.
func (e *Engine) AggregatePushdown(name string, filters []RangeFilter, groupColumn, sumColumn string) ([]AggregateResult, time.Duration, error) {
	st, err := e.state(name)
	if err != nil {
		return nil, 0, err
	}
	plan, cost, err := e.PlanScan(name, filters)
	if err != nil {
		return nil, cost, err
	}
	schema := st.tbl.Schema()
	gi := schema.FieldIndex(groupColumn)
	if groupColumn != "" && gi < 0 {
		return nil, cost, errors.New("lakehouse: unknown group column " + groupColumn)
	}
	si := schema.FieldIndex(sumColumn)
	if sumColumn != "" && si < 0 {
		return nil, cost, errors.New("lakehouse: unknown sum column " + sumColumn)
	}
	groups := map[string]*AggregateResult{}
	_, scanCost, err := e.Scan(name, plan, filters, []int{gi, si}, func(row colfile.Row) bool {
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
	})
	cost += scanCost
	if err != nil {
		return nil, cost, err
	}
	out := make([]AggregateResult, 0, len(groups))
	for _, g := range groups {
		out = append(out, *g)
	}
	sortAggregates(out)
	return out, cost, nil
}

func sortAggregates(rs []AggregateResult) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Group < rs[j-1].Group; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}
