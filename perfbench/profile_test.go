package main

import (
	"bytes"
	"compress/flate"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"streamlake/internal/obs"
)

func TestModuleOf(t *testing.T) {
	cases := map[string]string{
		"streamlake/internal/colfile.(*Reader).ReadGroup":      "colfile",
		"streamlake/internal/colfile.decodeChunk.func1":        "colfile",
		"streamlake/internal/workload/dpi.(*Generator).RawRow": bucketBench,
		"streamlake/internal/lakebrain/compact.Compact":        bucketOther,
		"streamlake.(*Lake).RunTiering":                        bucketLake,
		"main.(*etlEpisode).run":                               bucketBench,
		"compress/flate.NewReader":                             "",
		"runtime.mallocgc":                                     "",
	}
	for fn, want := range cases {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestChargeStack(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		// Standard-library and allocator work counts against its caller.
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "compress/flate.NewReader",
			"streamlake/internal/colfile.decodeChunk", "streamlake/internal/lakehouse.(*Engine).Scan", "main.main"}, "colfile"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, bucketRuntime},
		{nil, bucketRuntime},
	}
	for _, c := range cases {
		if got := chargeStack(c.stack); got != c.want {
			t.Errorf("chargeStack(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

var sink []byte

// burn compresses data until d of CPU time has passed, so the profiler
// takes samples inside compress/flate called from this package.
func burn(d time.Duration) {
	data := bytes.Repeat([]byte("perfbench profile test "), 4096)
	for start := time.Now(); time.Since(start) < d; {
		var b bytes.Buffer
		w, _ := flate.NewWriter(&b, flate.BestCompression)
		w.Write(data)
		w.Close()
		sink = b.Bytes()
	}
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// burn is the benchmark's own code, so every sample taken inside the
	// flate code it calls must charge to the benchmark's bucket.
	var flateSamples int64
	for _, s := range stacks {
		inFlate := false
		for _, fn := range s.funcs {
			inFlate = inFlate || strings.HasPrefix(fn, "compress/flate.")
		}
		if !inFlate {
			continue
		}
		flateSamples += s.count
		if got := chargeStack(s.funcs); got != bucketBench {
			t.Errorf("flate sample charged to %q, want %q: %v", got, bucketBench, s.funcs)
		}
	}
	if flateSamples == 0 {
		t.Fatal("no sample inside compress/flate in 300ms of compression")
	}
}

func TestParseCPUProfileRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
	if err := eachField([]byte{0x0a, 0x05, 0x01}, func(int, int, uint64, []byte) error { return nil }); err == nil {
		t.Error("truncated message accepted")
	}
}

func TestSelfTime(t *testing.T) {
	span := obs.SpanJSON{
		Name: "plog.append", DurNs: 100,
		Children: []obs.SpanJSON{
			{Name: "pool.write", OffNs: 10, DurNs: 40}, // parallel copies overlap
			{Name: "pool.write", OffNs: 10, DurNs: 50},
			{Name: "pool.write", OffNs: 80, DurNs: 40}, // runs past the parent's end
		},
	}
	// Covered: [10,60) and [80,100) = 70; self = 30.
	if got := selfTime(span); got != 30 {
		t.Errorf("selfTime = %v, want 30ns", got)
	}
	if got := selfTime(obs.SpanJSON{DurNs: 25}); got != 25 {
		t.Errorf("leaf selfTime = %v, want 25ns", got)
	}
}
