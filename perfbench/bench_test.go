package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// small builds each workload at test size: large enough that every
// non-vacuous assertion in verify holds, small enough to run in seconds.
func small(t *testing.T, name string, seed uint64) workload {
	t.Helper()
	var w workload
	var err error
	switch name {
	case "ingest":
		w, err = newIngest(seed, ingestLag+2000)
	case "analytics":
		w, err = newAnalytics(seed, 3000, 30)
	case "etl":
		w, err = newETL(seed, etlScrubEvery, 20)
	}
	if err != nil {
		t.Fatal(err)
	}
	return w
}

var workloadNames = []string{"ingest", "analytics", "etl"}

// TestDeterminism: two runs at one seed give identical virtual figures,
// counters and query results; the episode loop checks the same between
// episodes of one run.
func TestDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, err := runEpisode(small(t, name, 5).episode(), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runEpisode(small(t, name, 5).episode(), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameFigures(a.fig, b.fig); err != nil {
				t.Fatalf("same seed, different figures: %v", err)
			}
			if a.attempted == 0 || a.failed != 0 {
				t.Fatalf("attempted %d, failed %d", a.attempted, a.failed)
			}
		})
	}
}

// TestSeedChangesInputs: a second seed generates different inputs.
func TestSeedChangesInputs(t *testing.T) {
	i1, i2 := small(t, "ingest", 1).(*ingest), small(t, "ingest", 2).(*ingest)
	if reflect.DeepEqual(i1.values, i2.values) || reflect.DeepEqual(i1.arrivals, i2.arrivals) {
		t.Error("ingest inputs do not depend on the seed")
	}
	a1, a2 := small(t, "analytics", 1).(*analytics), small(t, "analytics", 2).(*analytics)
	if reflect.DeepEqual(a1.chunks, a2.chunks) || reflect.DeepEqual(a1.sqls, a2.sqls) {
		t.Error("analytics inputs do not depend on the seed")
	}
	e1, e2 := small(t, "etl", 1).(*etl), small(t, "etl", 2).(*etl)
	if reflect.DeepEqual(e1.values, e2.values) || reflect.DeepEqual(e1.want, e2.want) {
		t.Error("etl inputs do not depend on the seed")
	}
}

// TestVerifyCatchesWrongAnswers: a corrupted reference fails the check.
func TestVerifyCatchesWrongAnswers(t *testing.T) {
	w := small(t, "etl", 4).(*etl)
	for k := range w.want[len(w.want)-1] {
		w.want[len(w.want)-1][k]++
		break
	}
	r, err := runEpisode(w.episode(), nil, nil)
	if err == nil || !r.checkFailed {
		t.Fatalf("wrong DAU reference passed verification: %v", err)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestOutputMatchesBenchmarkJSON: every workload prints exactly the
// metrics BENCHMARK.json lists, with the units it gives, in both modes,
// and no end-to-end metric reads zero.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	want := func(ms []specMetric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		for trace, ms := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			run := plainRun
			if trace == 1 {
				run = tracedRun
			}
			out, err := run(small(t, name, 9), 0)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct {
				t.Fatalf("%s trace=%d: incorrect", name, trace)
			}
			got := map[string]string{}
			for k, m := range out.Metrics {
				got[k] = m.Unit
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, k, m.Value)
				}
			}
			if !reflect.DeepEqual(got, want(ms)) {
				t.Errorf("%s trace=%d metrics differ from BENCHMARK.json:\n got %v\nwant %v", name, trace, got, want(ms))
			}
		}
	}
}
