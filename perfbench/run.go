package main

import (
	"fmt"
	"os"
	"time"
)

// runEpisodes runs episodes until budget has passed and at least atLeast
// of them have run. mode picks each episode's probe and hooks by its
// index. A failed check or a virtual figure that differs from the first
// episode stops the run with correct = false.
func runEpisodes(w workload, budget time.Duration, atLeast int, mode func(i int) (*probe, *phaseHooks)) ([]episodeResult, bool, error) {
	var eps []episodeResult
	start := time.Now()
	for len(eps) < atLeast || time.Since(start) < budget {
		p, hooks := mode(len(eps))
		r, err := runEpisode(w.episode(), p, hooks)
		if err != nil {
			if r.checkFailed {
				fmt.Fprintf(os.Stderr, "perfbench: episode %d: %v\n", len(eps), err)
				return append(eps, r), false, nil
			}
			return nil, false, fmt.Errorf("episode %d: %w", len(eps), err)
		}
		if len(eps) > 0 {
			if err := sameFigures(eps[0].fig, r.fig); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: episode %d is not deterministic: %v\n", len(eps), err)
				return append(eps, r), false, nil
			}
		}
		eps = append(eps, r)
	}
	return eps, true, nil
}

// Set-up repetitions: a run whose episodes measured fewer than
// minSetups set-ups sets up extra lakes, and discards them, until it has
// minSetups timings or has spent extraSetupBudget on the extras.
const (
	minSetups        = 15
	extraSetupBudget = 2 * time.Second
)

// plainRun measures the end-to-end metrics with tracing off.
func plainRun(w workload, budget time.Duration) (result, error) {
	eps, ok, err := runEpisodes(w, budget, minEpisodes, func(int) (*probe, *phaseHooks) { return nil, nil })
	if err != nil {
		return result{}, err
	}
	measured := warm(eps)
	setups := make([]float64, 0, minSetups)
	for _, r := range measured {
		setups = append(setups, r.setup.Seconds())
	}
	for start := time.Now(); len(setups) < minSetups && time.Since(start) < extraSetupBudget; {
		d, err := timeSetup(w.episode())
		if err != nil {
			return result{}, fmt.Errorf("extra set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	out := result{Correct: ok, episodes: len(eps)}
	tally(&out, eps)
	endToEnd(&out, measured)
	out.set("setup_s", median(setups), "s")
	return out, nil
}

// warm drops the first episode, which pays for the process's warm-up
// (heap growth, first page faults, lazily built tables): it is run and
// checked, not measured.
func warm(eps []episodeResult) []episodeResult {
	if len(eps) < 2 {
		return eps
	}
	return eps[1:]
}

// tally fills attempted and failed over all episodes.
func tally(out *result, eps []episodeResult) {
	for _, r := range eps {
		out.Attempted += r.attempted
		out.Failed += r.failed
	}
	if out.Attempted == 0 {
		// Nothing ran; report one failed attempt rather than none.
		out.Attempted, out.Failed, out.Correct = 1, 1, false
	}
}

// endToEnd computes the metrics a user of the lake would see, apart from
// setup_s, which plainRun adds. Wall figures are medians over the
// measured episodes; per-op allocation figures pool them; virtual
// figures come from the first of them, which every episode reproduced.
func endToEnd(out *result, eps []episodeResult) {
	var rate, heap []float64
	var allocBytes, allocs, ops float64
	for _, r := range eps {
		rate = append(rate, r.opsPerSec())
		heap = append(heap, float64(r.liveHeap)/(1<<20))
		allocBytes += float64(r.allocBytes)
		allocs += float64(r.allocs)
		ops += float64(r.attempted - r.failed)
	}
	out.set("ops_per_s", median(rate), "1/s")
	out.set("alloc_bytes_per_op", ratio(allocBytes, ops), "B")
	out.set("allocs_per_op", ratio(allocs, ops), "count")
	out.set("live_heap_mb", median(heap), "MB")

	if len(eps) == 0 {
		return
	}
	fig := eps[0].fig
	out.set("stored_bytes_per_user_byte", ratio(float64(fig.physBytes), float64(fig.userBytes)), "ratio")
	writes := durations(fig.writes, time.Microsecond)
	reads := durations(fig.reads, time.Millisecond)
	out.set("write_p50_us", percentile(writes, 0.50), "us")
	out.set("write_p99_us", percentile(writes, 0.99), "us")
	out.set("read_p50_ms", percentile(reads, 0.50), "ms")
	out.set("read_p90_ms", percentile(reads, 0.90), "ms")
}
