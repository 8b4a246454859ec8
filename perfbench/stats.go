package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// sample is one client call as the benchmark saw it: its wall latency
// (our Go code), its virtual latency (the latency model), and whether it
// failed — a call error or an output the correctness checks rejected.
type sample struct {
	wallNS, virtNS uint32
	failed         bool
}

// saturate32 clamps a nanosecond count into a uint32.
func saturate32(ns int64) uint32 {
	if ns < 0 {
		return 0
	}
	if ns > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(ns)
}

// latencies summarises the samples of a measured phase, in µs.
type latencies struct {
	n                int
	wallP50, wallP99 float64
	virtP50, virtP99 float64
	virtTail         float64 // mean of the slowest 1% on the virtual clock
}

// failurePenalty is what a failed call is charged on top of its own
// latency, on each clock, so that it ranks slower than any success: a
// round lasts about this long, and no successful call comes near it.
const failurePenalty = 2 * time.Second

// summarize computes the latency figures over the samples. A
// failed call is charged failurePenalty, or the slowest success if that
// is longer. A figure that reaches the failures therefore reads as about
// 2 s, and stays there until the failures are gone.
func summarize(samples []sample) latencies {
	wallPen, virtPen := float64(failurePenalty), float64(failurePenalty)
	for _, s := range samples {
		if !s.failed {
			wallPen = max(wallPen, float64(s.wallNS))
			virtPen = max(virtPen, float64(s.virtNS))
		}
	}
	ws := make([]float64, len(samples))
	vs := make([]float64, len(samples))
	for i, s := range samples {
		ws[i], vs[i] = float64(s.wallNS), float64(s.virtNS)
		if s.failed {
			ws[i] += wallPen
			vs[i] += virtPen
		}
	}
	sort.Float64s(ws)
	sort.Float64s(vs)
	return latencies{
		n:        len(ws),
		wallP50:  quantileSorted(ws, 0.50) / 1e3,
		wallP99:  quantileSorted(ws, 0.99) / 1e3,
		virtP50:  quantileSorted(vs, 0.50) / 1e3,
		virtP99:  quantileSorted(vs, 0.99) / 1e3,
		virtTail: tailMean(vs, 0.99) / 1e3,
	}
}

// tailMean is the mean of the values of an ascending slice at or above
// rank q·n — the expected latency of the slowest (1−q) share of calls.
// Unlike a quantile it moves with every sample in the tail, where the
// virtual clock's latencies sit on a few exact model values.
func tailMean(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	from := int(q * float64(len(xs)))
	if from >= len(xs) {
		from = len(xs) - 1
	}
	var sum float64
	for _, x := range xs[from:] {
		sum += x
	}
	return sum / float64(len(xs)-from)
}

// quantileSorted interpolates linearly between the order statistics
// around rank q·(n−1) of an ascending slice; 0 for an empty one.
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// hist is a concurrent log-linear histogram of nanosecond durations:
// values below 64 get their own bucket, larger ones 64 buckets per power
// of two (≤1.6% relative error). The traced run's per-layer latencies
// go here, recorded from any goroutine without a lock.
type hist struct {
	counts [64 * 40]atomic.Int64
	n, sum atomic.Int64
}

const histSub = 64

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 7 // v>>e lands in [64,128)
	i := histSub*e + int(v>>uint(e))
	if i >= len(hist{}.counts) {
		return len(hist{}.counts) - 1
	}
	return i
}

// histLow returns the smallest value mapping to bucket i.
func histLow(i int) float64 {
	if i < 2*histSub {
		return float64(i)
	}
	e := i/histSub - 1
	return float64(int64(i-histSub*e) << uint(e))
}

func (h *hist) record(ns int64) {
	h.counts[histIndex(ns)].Add(1)
	h.n.Add(1)
	h.sum.Add(ns)
}

func (h *hist) count() int64 { return h.n.Load() }

// quantileUS returns the q-quantile in microseconds, interpolated inside
// the bucket that holds it (0 when empty).
func (h *hist) quantileUS(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	target := q * float64(n-1)
	var seen float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if seen+c > target {
			lo, hi := histLow(i), histLow(i+1)
			return (lo + (hi-lo)*(target-seen+0.5)/c) / 1e3
		}
		seen += c
	}
	return histLow(len(h.counts)) / 1e3
}

// unionCovered returns how much of [start, end) the intervals cover,
// counting overlapped stretches once. ivs is sorted in place.
func unionCovered(start, end int64, ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var covered int64
	cur := start
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s < cur {
			s = cur
		}
		if e > end {
			e = end
		}
		if e > s {
			covered += e - s
			cur = e
		}
	}
	return covered
}

// interval is a half-open wall-clock stretch in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children
// cover.
func selfTime(start, end int64, children []interval) int64 {
	return end - start - unionCovered(start, end, children)
}

// ratio divides, returning 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
