package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of raw
// samples: the smallest value with at least q of the samples at or below
// it. It sorts a copy, so callers keep their arrival order.
func percentile(samples []uint32, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	return rank(s, q)
}

func rank(sorted []uint32, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i])
}

// timing summarises one latency series the way the benchmark reports
// every timing: the median, the highest standard percentile that keeps at
// least ten samples beyond it, and the sample count.
type timing struct {
	N     int
	P50   float64 // same unit as the samples
	P99   float64
	HiQ   float64 // highest percentile with >= 10 samples beyond it (0 if none)
	Hi    float64
	P99OK bool // at least ten samples lie beyond the p99
}

func summarize(samples []uint32) timing {
	t := timing{N: len(samples)}
	if t.N == 0 {
		return t
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	t.P50 = rank(s, 0.50)
	t.P99 = rank(s, 0.99)
	t.P99OK = supported(t.N, 0.99)
	for _, q := range []float64{0.9, 0.99, 0.999, 0.9999} {
		if supported(t.N, q) {
			t.HiQ, t.Hi = q, rank(s, q)
		}
	}
	return t
}

// supported reports whether n samples leave at least ten beyond the
// q-quantile, the least a tail estimate needs.
func supported(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

func (t timing) String() string {
	if t.N == 0 {
		return "no samples"
	}
	s := fmt.Sprintf("p50=%.1fµs p99=%.1fµs n=%d", t.P50/1e3, t.P99/1e3, t.N)
	if !t.P99OK {
		s += " (p99 UNSUPPORTED: fewer than 10 samples beyond it)"
	}
	if t.HiQ > 0.99 {
		s += fmt.Sprintf(" p%g=%.1fµs", t.HiQ*100, t.Hi/1e3)
	}
	return s
}

// nsSample clamps a duration into a uint32 nanosecond sample (4.29 s), so
// millions of raw samples stay small in memory.
func nsSample(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// --- Spans ---------------------------------------------------------------

// span is one timed call the benchmark made into a module's public
// function. Spans of one operation share req; parent links a span to the
// span that caused it (0 for a root).
type span struct {
	ID, Parent, Req uint64
	Name            string
	Start, End      int64 // ns since the recorder's base
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory for the traced run. It holds at most
// limit spans; later ones are counted, not kept, so a long run cannot
// exhaust memory.
type recorder struct {
	base    time.Time
	limit   int
	nextID  atomic.Uint64
	dropped atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder(limit int) *recorder {
	return &recorder{base: time.Now(), limit: limit, spans: make([]span, 0, 1024)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// newID returns a fresh span id; a nil recorder returns 0.
func (r *recorder) newID() uint64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

// add records a finished span. Safe on a nil recorder (tracing off).
func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.spans) < r.limit {
		r.spans = append(r.spans, s)
	} else {
		r.dropped.Add(1)
	}
	r.mu.Unlock()
}

func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children are counted
// once, and a child's time outside its parent is not subtracted).
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, p := range spans {
		out[p.ID] = p.dur() - covered(p, children[p.ID])
	}
	return out
}

// covered measures the union of the children's intervals clipped to p.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total, curLo, curHi int64
	first := true
	for _, x := range iv {
		switch {
		case first:
			curLo, curHi, first = x[0], x[1], false
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if !first {
		total += curHi - curLo
	}
	return total
}

// durationsOf collects the durations (or, with self, the self times) of
// every span with the given name, as raw ns samples.
func durationsOf(spans []span, self map[uint64]int64, name string) []uint32 {
	var out []uint32
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		d := s.dur()
		if self != nil {
			d = self[s.ID]
		}
		out = append(out, nsSample(time.Duration(d)))
	}
	return out
}
