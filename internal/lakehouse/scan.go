package lakehouse

import (
	"errors"
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
// cols lists the schema indices of the columns fn reads (nil means
// every column; negative indices are ignored). Only those columns and
// the filter columns are decoded; the row's other slots hold zero
// Values. Projection saves decode CPU and allocations only: every
// scanned file is still read whole and ReadBytes still counts whole
// row groups, so the modelled I/O is the same for any cols.
//
// The row passed to fn is a reused buffer, valid only for the duration
// of the callback: retain a copy, not the row itself.
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
	fcols := filterColumns(schema, filters)
	read := scanColumns(schema.NumFields(), fcols, cols)
	// One codec, one row and one set of column buffers serve every
	// group of every file this scan reads; fn must not retain the row.
	var codec colfile.Codec
	row := make(colfile.Row, schema.NumFields())
	var vals [][]colfile.Value
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
			if !groupMatches(r, g, filters, fcols) {
				stats.SkippedBytes += r.GroupBytes(g)
				stats.SkippedGroups++
				continue
			}
			stats.ReadBytes += r.GroupBytes(g)
			if vals, err = r.ReadGroup(g, read, vals); err != nil {
				return stats, cost, err
			}
			for i := 0; i < r.GroupRows(g); i++ {
				for k, c := range read {
					row[c] = vals[k][i]
				}
				stats.RowsScanned++
				if rowMatches(row, filters, fcols) {
					stats.RowsMatched++
					if !fn(row) {
						return stats, cost, nil
					}
				}
			}
		}
	}
	return stats, cost, nil
}

// scanColumns resolves the columns a scan of a numFields-wide schema
// decodes, in schema order: cols (nil meaning all) plus every resolved
// filter column. The result is never nil, so an empty set decodes
// nothing.
func scanColumns(numFields int, fcols, cols []int) []int {
	need := make([]bool, numFields)
	for _, c := range cols {
		if c >= 0 && c < len(need) {
			need[c] = true
		}
	}
	for _, c := range fcols {
		if c >= 0 {
			need[c] = true
		}
	}
	out := make([]int, 0, len(need))
	for c, ok := range need {
		if ok || cols == nil {
			out = append(out, c)
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
