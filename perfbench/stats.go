package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p95 over 40 samples would rest on two of them, so the rank is lowered
// until minTail samples remain above it.
const minTail = 10

// tailPercentile returns the nearest-rank value at quantile q (≥ 0.5) of
// xs and the quantile actually reported: the rank is lowered until
// minTail samples lie after it, but never below the median's.
func tailPercentile(xs []float64, q float64) (float64, float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), q
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	if lim := n - 1 - minTail; rank > lim {
		rank = lim
	}
	if mid := (n - 1) / 2; rank < mid {
		rank = mid
	}
	return s[rank], float64(rank+1) / float64(n)
}

// median is the lower nearest-rank median.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// span is one timed interval: a client request, or a call into a public
// function during the in-process replay. Parent is the index of the
// enclosing span in the same slice, -1 for a root.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the trace's origin
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	ReqID  string        `json:"request_id,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer collects spans in memory for one goroutine; the slices of
// several tracers are merged when the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

// begin opens a span under parent (-1 for a root) and returns its index.
func (t *tracer) begin(name string, parent int, reqID string) int {
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.origin), Parent: parent, ReqID: reqID})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = time.Since(t.origin) }

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (overlapping children count
// once; child time outside the parent's interval does not count).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered time.Duration
		var curLo, curHi time.Duration
		for k, v := range ivs {
			switch {
			case k == 0:
				curLo, curHi = v.lo, v.hi
			case v.lo > curHi:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			case v.hi > curHi:
				curHi = v.hi
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		out[i] = s.dur() - covered
	}
	return out
}

// selfByName groups self times (in the given unit) by span name.
func selfByName(spans []span, unit time.Duration) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[i])/float64(unit))
	}
	return out
}
