package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the fewest samples that must lie beyond a tail percentile
// before it is reported: a p99 over 300 samples rests on 3 values, which
// is not a measurement of anything.
const minBeyond = 10

// quantile returns the q-quantile (0 <= q <= 1) of xs by the nearest-rank
// rule; xs need not be sorted and is not modified.  NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the q-quantile only when at least minBeyond samples lie
// beyond it; ok is false otherwise and the percentile must be omitted.
func tail(xs []float64, q float64) (v float64, ok bool) {
	if float64(len(xs))*(1-q) < minBeyond-1e-9 {
		return 0, false
	}
	return quantile(xs, q), true
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// interval is a half-open [start, end) stretch of time.
type interval struct{ start, end time.Time }

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap each other and may spill past the parent; only the
// union of their intersections with the parent is subtracted.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start.After(cur.end):
			covered += cur.end.Sub(cur.start)
			cur = c
		case c.end.After(cur.end):
			cur.end = c.end
		}
	}
	if len(clipped) > 0 {
		covered += cur.end.Sub(cur.start)
	}
	return parent.end.Sub(parent.start) - covered
}
