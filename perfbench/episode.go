package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"syscall"
	"time"

	"streamlake"
	"streamlake/internal/obs"
)

// A workload owns one run's generated inputs and their reference
// results, and hands out fresh episodes over them.
type workload interface {
	// episode returns a new, not yet set up, episode.
	episode() episode
	// opName names what one op is, for the output header.
	opName() string
}

// An episode is one fresh lake driven through a workload's fixed work.
type episode interface {
	// setup opens the lake and prepares it for the timed phase; it is
	// timed as setup_s.
	setup(p *probe) error
	// run is the timed phase. It returns how many ops it attempted and
	// how many of them failed or were refused.
	run(p *probe) (attempted, failed int, err error)
	// verify checks every output against the reference and asserts the
	// mechanism did real work. It runs after the timed phase.
	verify() (figures, error)
	// lake is the episode's lake.
	lake() *streamlake.Lake
}

// figures are an episode's virtual-time and byte results. They depend
// only on the seed, so every episode of a run must reproduce them.
type figures struct {
	writes    []time.Duration // virtual cost of each write call
	reads     []time.Duration // virtual cost of each read call
	userBytes int64           // bytes the lake accepted from the user
	physBytes int64           // Stats().PhysicalBytes after the timed phase
	digest    uint64          // query results and registry counters
}

// newWorkload generates a workload's inputs from seed.
func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "ingest":
		return newIngest(seed, ingestMessages)
	case "analytics":
		return newAnalytics(seed, analyticsRows, analyticsQueries)
	case "etl":
		return newETL(seed, etlRounds, etlBatch)
	}
	return nil, fmt.Errorf("unknown workload %q (want ingest, analytics or etl)", name)
}

// episodeResult is what one episode measured.
type episodeResult struct {
	setup      time.Duration // wall time of setup
	timed      time.Duration // wall time of the timed phase
	onCPU      time.Duration // CPU time of the client thread in the timed phase
	attempted  int
	failed     int
	allocBytes uint64 // heap bytes allocated in the timed phase
	allocs     uint64 // heap objects allocated in the timed phase
	liveHeap   uint64 // heap the lake holds after the timed phase
	fig        figures
	// obsStart and obsEnd are the lake's registry just before and just
	// after the timed phase.
	obsStart, obsEnd obs.Snapshot
	// checkFailed marks an error from verify: the outputs were wrong,
	// rather than the run unable to proceed.
	checkFailed bool
}

// opsPerSec is the episode's throughput over the time the client thread
// was on a CPU. On a shared host, time the hypervisor or the OS takes
// the CPU away moved wall-clock throughput by up to a quarter between
// runs, and this figure by about half as much; on an idle machine the
// two agree up to collector pauses.
func (r episodeResult) opsPerSec() float64 {
	return float64(r.attempted-r.failed) / r.onCPU.Seconds()
}

// runEpisode sets up, times and verifies one episode. hooks, when set,
// bracket the timed phase (the traced run's profilers).
func runEpisode(ep episode, p *probe, hooks *phaseHooks) (episodeResult, error) {
	var r episodeResult
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	baseHeap := ms.HeapAlloc

	t0 := time.Now()
	if err := ep.setup(p); err != nil {
		return r, fmt.Errorf("setup: %w", err)
	}
	r.setup = time.Since(t0)
	r.obsStart = ep.lake().Obs().Snapshot()

	// Start the timed phase on a collected heap, so one episode's
	// garbage does not bill the next.
	runtime.GC()
	if hooks != nil {
		if err := hooks.before(); err != nil {
			return r, err
		}
	}
	runtime.ReadMemStats(&ms)
	alloc0, mallocs0 := ms.TotalAlloc, ms.Mallocs
	// The client is this goroutine; wiring it to one thread lets the
	// thread's CPU clock time it.
	runtime.LockOSThread()
	t1, cpu1 := time.Now(), threadCPU()
	attempted, failed, err := ep.run(p)
	r.timed, r.onCPU = time.Since(t1), threadCPU()-cpu1
	runtime.UnlockOSThread()
	if r.onCPU <= 0 {
		r.onCPU = r.timed // no thread CPU clock: fall back to wall time
	}
	runtime.ReadMemStats(&ms)
	r.allocBytes, r.allocs = ms.TotalAlloc-alloc0, ms.Mallocs-mallocs0
	if hooks != nil {
		if herr := hooks.after(); herr != nil {
			return r, herr
		}
	}
	if err != nil {
		return r, fmt.Errorf("timed phase: %w", err)
	}
	r.obsEnd = ep.lake().Obs().Snapshot()
	r.attempted, r.failed = attempted, failed
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > baseHeap {
		r.liveHeap = ms.HeapAlloc - baseHeap
	}
	physBytes := ep.lake().Stats().PhysicalBytes

	fig, err := ep.verify()
	if err != nil {
		r.checkFailed = true
		return r, fmt.Errorf("verify: %w", err)
	}
	fig.physBytes = physBytes
	fig.digest ^= registryDigest(ep.lake())
	r.fig = fig
	return r, nil
}

// timeSetup measures one set-up on a collected heap, as runEpisode
// does, and discards the episode.
func timeSetup(ep episode) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	err := ep.setup(nil)
	return time.Since(t0), err
}

// rusageThread is Linux's RUSAGE_THREAD, which the syscall package
// does not name.
const rusageThread = 1

// threadCPU is the calling thread's user plus system CPU time, or 0
// where the kernel has no per-thread clock.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phaseHooks run just before and just after a timed phase.
type phaseHooks struct {
	before func() error
	after  func() error
}

// registryDigest hashes every counter and histogram count/sum in the
// lake's obs registry, so two episodes that did different work differ.
func registryDigest(l *streamlake.Lake) uint64 {
	snap := l.Obs().Snapshot()
	h := fnv.New64a()
	names := make([]string, 0, len(snap.Counters)+len(snap.Histograms))
	for k := range snap.Counters {
		names = append(names, k)
	}
	for k := range snap.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if v, ok := snap.Counters[k]; ok {
			fmt.Fprintf(h, "%s=%d;", k, v)
			continue
		}
		hs := snap.Histograms[k]
		fmt.Fprintf(h, "%s=%d/%d;", k, hs.Count, hs.Sum)
	}
	return h.Sum64()
}

// sameFigures reports how b differs from a, or nil when they agree.
func sameFigures(a, b figures) error {
	if len(a.writes) != len(b.writes) || len(a.reads) != len(b.reads) {
		return fmt.Errorf("op counts differ: %d/%d writes, %d/%d reads",
			len(a.writes), len(b.writes), len(a.reads), len(b.reads))
	}
	for i := range a.writes {
		if a.writes[i] != b.writes[i] {
			return fmt.Errorf("write %d cost %v, first episode %v", i, b.writes[i], a.writes[i])
		}
	}
	for i := range a.reads {
		if a.reads[i] != b.reads[i] {
			return fmt.Errorf("read %d cost %v, first episode %v", i, b.reads[i], a.reads[i])
		}
	}
	if a.userBytes != b.userBytes || a.physBytes != b.physBytes {
		return fmt.Errorf("user/physical bytes %d/%d, first episode %d/%d",
			b.userBytes, b.physBytes, a.userBytes, a.physBytes)
	}
	if a.digest != b.digest {
		return errors.New("query results or registry counters differ from the first episode")
	}
	return nil
}
