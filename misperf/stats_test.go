package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{105, 129, 87, 86, 111, 111, 89, 81, 108, 92, 110, 100, 75, 105, 103, 109, 76, 119, 99, 91}, 87.5, 101.5, 109.75},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if q1, q2, q3 := quartiles([]float64{4}); q1 != 4 || q2 != 4 || q3 != 4 {
		t.Errorf("quartiles of one value = %v %v %v", q1, q2, q3)
	}
}

func TestTailRule(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // 40 … 1, unsorted on purpose
	}
	v, pct, n, ok := tail(xs, 10)
	// Rank 30 of 40: the value 30 has exactly the 10 values 31…40 beyond it.
	if !ok || v != 30 || pct != 75 || n != 40 {
		t.Fatalf("tail = %v %v %v %v, want 30 75 40 true", v, pct, n, ok)
	}

	v, pct, n, ok = tail(xs[:11], 10)
	if !ok || n != 11 || !near(pct, 100.0/11) || v != 30 {
		t.Fatalf("tail of 11 = %v %v %v %v, want the smallest value at 1/11", v, pct, n, ok)
	}
	if _, _, n, ok := tail(xs[:10], 10); ok || n != 10 {
		t.Fatalf("tail of 10 samples reported ok=%v n=%d, want not ok", ok, n)
	}

	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if v, pct, _, _ := tail(big, 10); v != 990 || pct != 99 {
		t.Fatalf("tail of 1..1000 = %v at p%v, want 990 at p99", v, pct)
	}
}

func TestSelfTime(t *testing.T) {
	d := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	parent := interval{d(0), d(100)}
	for _, tc := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, d(100)},
		{"disjoint", []interval{{d(10), d(20)}, {d(50), d(70)}}, d(70)},
		{"overlap counted once", []interval{{d(10), d(40)}, {d(30), d(60)}, {d(35), d(45)}}, d(50)},
		{"identical twins", []interval{{d(20), d(30)}, {d(20), d(30)}}, d(90)},
		{"clipped to parent", []interval{{d(-50), d(10)}, {d(90), d(200)}}, d(80)},
		{"outside entirely", []interval{{d(150), d(160)}}, d(100)},
		{"covers all", []interval{{d(0), d(60)}, {d(50), d(100)}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}
