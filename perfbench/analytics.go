package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"streamlake"
	"streamlake/internal/colfile"
	"streamlake/internal/rowcodec"
	"streamlake/internal/sim"
	"streamlake/internal/workload/tpch"
)

// Analytics workload sizes. The cache holds the hot partitions but not
// the whole table, and the Zipf skew over shipmodes decides which
// partitions are hot.
const (
	analyticsRows    = 60_000
	analyticsQueries = 240
	analyticsChunk   = 600 // rows per preload Insert, all of one shipmode
	analyticsCacheMB = 1
	analyticsSkew    = 1.1
	analyticsTable   = "lineitem"
)

// analytics preloads TPC-H lineitem partitioned on l_shipmode and runs
// a read-only, partition-pruned query mix.
type analytics struct {
	chunks    [][]colfile.Row
	queries   []lineitemQuery
	sqls      []string
	want      []map[string]float64
	userBytes int64
}

func newAnalytics(seed uint64, n, nq int) (*analytics, error) {
	rows := tpch.Lineitem(n, seed)
	schema := tpch.LineitemSchema
	modeCol := schema.FieldIndex("l_shipmode")
	byMode := map[string][]colfile.Row{}
	for _, r := range rows {
		byMode[r[modeCol].Str] = append(byMode[r[modeCol].Str], r)
	}
	modes := make([]string, 0, len(byMode))
	for m := range byMode {
		modes = append(modes, m)
	}
	sort.Strings(modes)

	w := &analytics{}
	for _, m := range modes {
		part := byMode[m]
		for len(part) > 0 {
			k := min(analyticsChunk, len(part))
			w.chunks = append(w.chunks, part[:k])
			part = part[k:]
		}
	}
	for _, c := range w.chunks {
		enc, err := rowcodec.Encode(schema, c)
		if err != nil {
			return nil, fmt.Errorf("encode preload rows: %w", err)
		}
		w.userBytes += int64(len(enc))
	}

	// Which shipmode is hot depends on the seed: the Zipf ranks index a
	// seeded permutation of the modes.
	rng := sim.NewRNG(seed ^ arrivalSalt)
	rank := rng.Perm(len(modes))
	zipf := sim.NewZipf(rng, len(modes), analyticsSkew)
	for _, preds := range tpch.RandomQueries(nq, seed+1) {
		q := lineitemQuery{mode: modes[rank[zipf.Next()]], preds: preds.Preds}
		if rng.Intn(4) == 0 {
			q.groupColumn, q.sumColumn = "l_returnflag", "l_quantity"
		}
		w.queries = append(w.queries, q)
		w.sqls = append(w.sqls, q.sql(analyticsTable))
		w.want = append(w.want, evalLineitem(schema, rows, q))
	}
	return w, nil
}

func (w *analytics) opName() string { return "query" }

func (w *analytics) episode() episode { return &analyticsEpisode{w: w} }

type analyticsEpisode struct {
	w       *analytics
	l       *streamlake.Lake
	results []*streamlake.Result
	writes  []time.Duration
	reads   []time.Duration
}

func (e *analyticsEpisode) lake() *streamlake.Lake { return e.l }

func (e *analyticsEpisode) setup(p *probe) error {
	l, err := streamlake.Open(streamlake.Config{Seed: lakeSeed, CacheMB: analyticsCacheMB})
	if err != nil {
		return err
	}
	e.l = l
	err = l.CreateTable(streamlake.TableMeta{
		Name: analyticsTable, Path: "/lake/" + analyticsTable,
		Schema: tpch.LineitemSchema, PartitionColumn: "l_shipmode",
	})
	if err != nil {
		return err
	}
	for _, c := range e.w.chunks {
		m := p.begin()
		cost, err := l.Engine().Insert(analyticsTable, c)
		p.end("lakehouse.insert", m, cost)
		if err != nil {
			return err
		}
		e.writes = append(e.writes, cost)
	}
	e.results = make([]*streamlake.Result, len(e.w.sqls))
	e.reads = make([]time.Duration, 0, len(e.w.sqls))
	return l.FlushTable(analyticsTable)
}

func (e *analyticsEpisode) run(p *probe) (attempted, failed int, err error) {
	for i, sql := range e.w.sqls {
		attempted++
		m := p.begin()
		res, cost, err := e.l.QueryCost(sql)
		p.end("query", m, cost)
		if err != nil {
			failed++
			continue
		}
		e.results[i] = res
		e.reads = append(e.reads, cost)
	}
	return attempted, failed, nil
}

func (e *analyticsEpisode) verify() (figures, error) {
	fig := figures{writes: e.writes, reads: e.reads, userBytes: e.w.userBytes}
	h := fnv.New64a()
	for i, res := range e.results {
		if res == nil {
			return fig, fmt.Errorf("query %d failed: %s", i, e.w.sqls[i])
		}
		if err := checkAnswer(res, e.w.want[i], e.w.queries[i].groupColumn != ""); err != nil {
			return fig, fmt.Errorf("query %d (%s): %w", i, e.w.sqls[i], err)
		}
		fmt.Fprint(h, res.Rows)
	}
	fig.digest = h.Sum64()
	cs := e.l.Cache().Stats()
	if cs.DRAMHits+cs.SCMHits == 0 || cs.Misses == 0 {
		return fig, fmt.Errorf("cache saw %d hits and %d misses; the mix must have both", cs.DRAMHits+cs.SCMHits, cs.Misses)
	}
	if e.l.Obs().Snapshot().Counter("lakehouse_pruned_files_total") == 0 {
		return fig, errors.New("no plan pruned a partition")
	}
	return fig, nil
}
