package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 1.75}, {50, 2.5}, {99, 3.97}, {100, 4}, {-5, 1}, {150, 4},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %v", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1.5, 2.5, 2.0, 9.0, 1.0}, 1.25, 2.0, 5.75},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if q1, q2, q3 := quartiles([]float64{5}); q1 != 5 || q2 != 5 || q3 != 5 {
		t.Errorf("quartiles of one value = %v %v %v", q1, q2, q3)
	}
}

func TestRelSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := relSpread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("relSpread = %v, want %v", got, want)
	}
	if got := relSpread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("relSpread of zeros = %v, want 0", got)
	}
}

func TestDurations(t *testing.T) {
	var d durations
	d.add(1500 * time.Millisecond)
	d.timeIt(func() {})
	if len(d) != 2 || d[0] != 1.5 || d[1] < 0 {
		t.Errorf("durations = %v", d)
	}
}
