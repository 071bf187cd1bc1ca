// Command perfbench is the repository benchmark: it drives the public
// streamlake API through one of three seeded workloads and prints every
// end-to-end metric by name and unit, or, with -trace 1, the per-layer
// metrics of a traced run. The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
// A run is a sequence of episodes. Each episode opens a fresh lake,
// sets it up (timed as setup_s), drives the workload's fixed amount of
// work (the timed phase), and then checks every output against a
// reference computed from the generated inputs. Episodes repeat until
// -seconds of wall time have passed; wall-clock figures are medians
// over episodes. Virtual-time figures depend only on the seed, so every
// episode must reproduce the first one exactly — the run's determinism
// self-check.
//
//	go run . -workload ingest -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// lakeSeed is the fixed Config.Seed of every lake: the workload seed
// only shapes the generated inputs, so the program sees nothing else.
const lakeSeed = 7

// arrivalSalt separates the arrival schedule's random stream from the
// generators fed by the same workload seed.
const arrivalSalt = 0x9e3779b97f4a7c15

// minEpisodes is the fewest episodes a run makes, however long they take,
// so that its medians have company.
const minEpisodes = 3

func main() {
	name := flag.String("workload", "", "workload: ingest, analytics or etl")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "wall seconds of episodes to run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()

	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	var out result
	if *trace == 1 {
		out, err = tracedRun(w, budget)
	} else {
		out, err = plainRun(w, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("workload=%s (one op: %s) seed=%d episodes=%d\n", *name, w.opName(), *seed, out.episodes)
	for _, k := range names {
		fmt.Printf("%-40s %16.6f %s\n", k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	episodes int
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}
