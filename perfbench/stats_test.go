package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.05, 15}, {0.30, 20}, {0.40, 20}, {0.50, 35}, {1.00, 50}, {0.999, 50},
	}
	for _, c := range cases {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 15 || xs[4] != 50 {
		t.Fatal("percentile reordered its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

func TestPercentileTailRank(t *testing.T) {
	// 10,000 samples 1..10000: p99.9 is the 9,990th, leaving ten above it.
	xs := make([]float64, 10_000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := percentile(xs, 0.999); got != 9990 {
		t.Errorf("p99.9 = %v, want 9990", got)
	}
	if got := percentile(xs, 0.5); got != 5000 {
		t.Errorf("p50 = %v, want 5000", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestDurationsAndRatio(t *testing.T) {
	got := durations([]time.Duration{1500 * time.Microsecond}, time.Millisecond)
	if got[0] != 1.5 {
		t.Errorf("durations = %v, want [1.5]", got)
	}
	if ratio(1, 0) != 0 || ratio(3, 2) != 1.5 {
		t.Error("ratio is wrong")
	}
}
