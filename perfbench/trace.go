package main

import "time"

// Episode kinds of a traced run. After the warm-up episode it cycles a
// plain episode as the baseline, one under the CPU and heap profilers,
// and one with the benchmark's spans and the produce span trees.
const (
	kindPlain = iota
	kindProfiled
	kindSpanned
	kinds
)

// kindOf is episode i's kind, or -1 for the warm-up episode.
func kindOf(i int) int {
	if i == 0 {
		return -1
	}
	return (i - 1) % kinds
}

// tracedRun attributes time, CPU and allocations to layers. Each
// instrument's overhead shows against the plain episodes of the same
// run.
func tracedRun(w workload, budget time.Duration) (result, error) {
	prof := newModuleProfile()
	p := newProbe()
	eps, ok, err := runEpisodes(w, budget, 1+kinds, func(i int) (*probe, *phaseHooks) {
		switch kindOf(i) {
		case kindProfiled:
			return nil, prof.hooks()
		case kindSpanned:
			return p, nil
		}
		return nil, nil
	})
	if err != nil {
		return result{}, err
	}
	out := result{Correct: ok, episodes: len(eps)}
	tally(&out, eps)

	var rates [kinds][]float64
	var onCPU []float64
	for i, r := range eps {
		k := kindOf(i)
		if k < 0 {
			continue
		}
		rates[k] = append(rates[k], r.opsPerSec())
		if k == kindPlain {
			onCPU = append(onCPU, ratio(float64(r.onCPU), float64(r.timed)))
		}
	}
	plain := median(rates[kindPlain])
	out.set("trace.plain_ops_per_s", plain, "1/s")
	out.set("trace.client_oncpu_share", median(onCPU), "ratio")
	out.set("trace.profile_overhead", 1-ratio(median(rates[kindProfiled]), plain), "ratio")
	out.set("trace.span_overhead", 1-ratio(median(rates[kindSpanned]), plain), "ratio")

	spanMetrics(&out, p, len(rates[kindSpanned]))
	if len(eps) > 0 {
		registryMetrics(&out, eps[0])
		writes := durations(eps[0].fig.writes, time.Microsecond)
		out.set("write_p999_us", percentile(writes, 0.999), "us")
	}
	shareMetrics(&out, prof)
	return out, nil
}

// spanNames are the benchmark's spans with the time unit each reports.
var spanNames = []struct {
	name string
	unit time.Duration
}{
	{"streamsvc.send", time.Microsecond},
	{"streamsvc.poll", time.Microsecond},
	{"lakehouse.insert", time.Millisecond},
	{"convert", time.Millisecond},
	{"query", time.Millisecond},
	{"tiering", time.Millisecond},
	{"scrub", time.Millisecond},
}

// spanWork are the work counts spans record, reported per episode.
var spanWork = []struct{ name, unit string }{
	{"convert.rows", "count"}, {"tiering.migrations", "count"}, {"scrub.bytes_verified", "B"},
}

func unitName(d time.Duration) string {
	if d == time.Microsecond {
		return "us"
	}
	return "ms"
}

// spanMetrics reports each span's mean wall time, mean virtual cost,
// calls per episode and heap bytes per call, and the produce path's
// per-module virtual self time.
func spanMetrics(out *result, p *probe, episodes int) {
	for _, sn := range spanNames {
		s := p.spans[sn.name]
		if s == nil {
			s = &spanStat{}
		}
		u := unitName(sn.unit)
		calls := float64(s.calls)
		out.set(sn.name+".wall_"+u, ratio(float64(s.wall), calls)/float64(sn.unit), u)
		out.set(sn.name+".virtual_"+u, ratio(float64(s.virtual), calls)/float64(sn.unit), u)
		out.set(sn.name+".calls", ratio(calls, float64(episodes)), "count")
		out.set(sn.name+".bytes_per_call", ratio(float64(s.bytes), calls), "B")
	}
	for _, k := range spanWork {
		out.set(k.name, ratio(p.extra[k.name], float64(episodes)), k.unit)
	}
	for _, mod := range foldModules {
		self := durations(p.self[mod], time.Microsecond)
		var sum float64
		for _, v := range self {
			sum += v
		}
		out.set(mod+".virtual_self_us", ratio(sum, float64(len(self))), "us")
		out.set(mod+".virtual_self_p999_us", percentile(self, 0.999), "us")
	}
}

// registryMetrics reports the obs registry's change over one episode's
// timed phase. Every episode of a run does identical work, so one
// suffices.
func registryMetrics(out *result, r episodeResult) {
	d := func(name string) float64 {
		return float64(r.obsEnd.Counter(name) - r.obsStart.Counter(name))
	}
	h := func(name string) (count, sum float64) {
		a, b := r.obsStart.Histograms[name], r.obsEnd.Histograms[name]
		return float64(b.Count - a.Count), float64(b.Sum - a.Sum)
	}
	const rdma = `{path="rdma"}`
	out.set("bus.sends", d("bus_sends_total"+rdma), "count")
	out.set("bus.batches", d("bus_batches_total"+rdma), "count")
	out.set("bus.aggregation_ratio", ratio(d("bus_sends_total"+rdma), d("bus_batches_total"+rdma)), "ratio")
	out.set("streamobj.slice_flushes", d("streamobj_slice_flushes_total"), "count")
	out.set("streamobj.flush_bytes", d("streamobj_flush_bytes_total"), "B")

	appends, _ := h("plog_append_seconds")
	reads, readSum := h("plog_read_seconds")
	out.set("plog.appends", appends, "count")
	out.set("plog.append_bytes", d("plog_append_bytes_total"), "B")
	out.set("plog.reads", reads, "count")
	out.set("plog.read_bytes", d("plog_read_bytes_total"), "B")
	out.set("plog.read_virtual_mean_us", ratio(readSum, reads)/float64(time.Microsecond), "us")
	out.set("plog.group_commits", d("plog_group_commits_total"), "count")
	out.set("plog.hedged_reads", d("plog_hedged_reads_total"), "count")

	var written float64
	for _, pool := range []string{"ssd", "hdd"} {
		l := `{pool="` + pool + `"}`
		out.set("pool."+pool+".read_ops", d("pool_read_ops_total"+l), "count")
		out.set("pool."+pool+".read_bytes", d("pool_read_bytes_total"+l), "B")
		out.set("pool."+pool+".write_ops", d("pool_write_ops_total"+l), "count")
		out.set("pool."+pool+".write_bytes", d("pool_write_bytes_total"+l), "B")
		written += d("pool_write_bytes_total" + l)
	}
	out.set("pool.write_bytes_per_user_byte", ratio(written, float64(r.fig.userBytes)), "ratio")

	hits := d(`cache_hits_total{tier="dram"}`) + d(`cache_hits_total{tier="scm"}`)
	misses := d("cache_misses_total")
	out.set("cache.hit_rate", ratio(hits, hits+misses), "ratio")
	out.set("cache.hits", hits, "count")
	out.set("cache.misses", misses, "count")
	out.set("cache.fills", d("cache_fills_total"), "count")
	out.set("cache.evictions", d("cache_evictions_total"), "count")

	plans, scans := d("lakehouse_plans_total"), d("lakehouse_scans_total")
	out.set("lakehouse.plans", plans, "count")
	out.set("lakehouse.files_pruned_per_plan", ratio(d("lakehouse_pruned_files_total"), plans), "count")
	out.set("lakehouse.rows_scanned_per_scan", ratio(d("lakehouse_rows_scanned_total"), scans), "count")
	out.set("lakehouse.scan_read_bytes", d("lakehouse_scan_read_bytes_total"), "B")
	out.set("query.queries", d("query_queries_total"), "count")
	out.set("query.pushdown_hits", d("query_pushdown_hits_total"), "count")
	out.set("query.compute_bytes", d("query_compute_bytes_total"), "B")
}

// shareMetrics reports each bucket's share of the profiled episodes'
// CPU samples and allocated bytes, and the samples a module or the
// collector accounts for.
func shareMetrics(out *result, prof *moduleProfile) {
	var allocTotal float64
	for _, v := range prof.alloc {
		allocTotal += float64(v)
	}
	samples := float64(prof.samples)
	for _, m := range append(shareModules, bucketOther, bucketGC, bucketRuntime) {
		out.set(m+".cpu_share", ratio(float64(prof.cpu[m]), samples), "ratio")
		if m != bucketGC {
			out.set(m+".alloc_share", ratio(float64(prof.alloc[m]), allocTotal), "ratio")
		}
	}
	out.set("profile.cpu_samples", samples, "count")
	out.set("profile.cpu_coverage", 1-ratio(float64(prof.cpu[bucketRuntime]), samples), "ratio")
}
