package main

import (
	"slices"
	"time"
)

// median returns the middle of xs, or the mean of the two middle values
// for an even count. It returns 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs with the
// same interpolation as Python's statistics.quantiles(xs, n=4) (its default
// "exclusive" method, which extrapolates beyond the extremes for tiny
// samples), so spreads computed here and by that function agree. A single
// value is its own quartiles; an empty slice gives zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// tailSamples is how many samples must lie beyond a reported tail value.
const tailSamples = 10

// tail applies the benchmark's tail rule: it returns the highest percentile
// of xs that still has at least minBeyond samples above it — the value at
// 1-based rank n-minBeyond of the sorted samples — together with that
// percentile (100·rank/n) and the sample count. ok is false when there are
// too few samples for any such percentile.
func tail(xs []float64, minBeyond int) (value, pct float64, n int, ok bool) {
	n = len(xs)
	rank := n - minBeyond
	if rank < 1 {
		return 0, 0, n, false
	}
	s := slices.Sorted(slices.Values(xs))
	return s[rank-1], 100 * float64(rank) / float64(n), n, true
}

// interval is a half-open time range [start, end).
type interval struct{ start, end time.Duration }

// selfTime returns parent's duration minus the part of it that children
// cover. Overlapping children are counted once, and the parts of a child
// outside the parent are ignored.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	slices.SortFunc(clipped, func(a, b interval) int {
		return int(a.start - b.start)
	})
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
