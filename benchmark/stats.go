package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of vals with linear
// interpolation between order statistics; 0 for an empty slice.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

// spread is (max−min)/median: the run-internal diagnostic printed next
// to every windowed rate.
func spread(vals []float64) float64 {
	m := median(vals)
	if len(vals) == 0 || m == 0 {
		return 0
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return (hi - lo) / m
}

// interval is one operation's [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// windowRates splits [from, from+n·win) into n windows and returns the
// operations per second of each. An operation counts towards a window
// by the share of its duration that falls inside it, so a window of a
// few long operations (coldstart: ~20) is not quantised to whole
// operations.
func windowRates(ops []interval, from, win int64, n int) []float64 {
	counts := make([]float64, n)
	for _, op := range ops {
		dur := float64(op.end - op.start)
		if dur <= 0 {
			continue
		}
		for w := 0; w < n; w++ {
			lo, hi := from+int64(w)*win, from+int64(w+1)*win
			if ov := min(op.end, hi) - max(op.start, lo); ov > 0 {
				counts[w] += float64(ov) / dur
			}
		}
	}
	for w := range counts {
		counts[w] /= float64(win) / 1e9
	}
	return counts
}

// unionLen is the total length covered by the intervals after clipping
// each to [lo, hi].
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.end <= end {
			continue
		}
		total += iv.end - max(iv.start, end)
		end = iv.end
	}
	return total
}

// byWindow groups the durations (ms) of the intervals by the window of
// [from, from+n·win) each started in. The intervals are operations that
// started inside and their phases, so a start past the end belongs to
// the last window.
func byWindow(ivs []interval, from, win int64, n int) [][]float64 {
	out := make([][]float64, n)
	for _, iv := range ivs {
		w := min(max(int((iv.start-from)/win), 0), n-1)
		out[w] = append(out[w], float64(iv.end-iv.start)/1e6)
	}
	return out
}

// pooled is every sample of every window in one slice, each divided by
// its window's entry in speed (nil: as measured). Percentiles are taken
// over this: all samples of the measured interval.
func pooled(windows [][]float64, speed []float64) []float64 {
	var out []float64
	for w, durs := range windows {
		for _, d := range durs {
			if speed != nil {
				d /= speed[w]
			}
			out = append(out, d)
		}
	}
	return out
}
