package main

import (
	rtmetrics "runtime/metrics"
	"slices"
	"sync"
	"time"
)

// A window's gated figures are whole-window figures: verified completions
// inside the window over its length, and the window's CPU time and
// allocations over those completions. The window is also cut into equal
// slices whose goodput and p99 are printed, so a stall shows where it
// happened; the slices feed no gated figure. Percentiles are nearest-rank
// over raw samples.

// meter tallies one window's verified completions by slice.
type meter struct {
	base  time.Time
	d     time.Duration
	slice time.Duration
	n     int // slices in the window

	// CPU time and allocation count at the window's start and end.
	cpu    [2]time.Duration
	allocs [2]uint64

	mu      sync.Mutex
	samples [][]uint32 // per slice; index n collects completions after the window
	done    chan struct{}
}

// newMeter starts metering a window of length d, cut into n slices,
// beginning now. A goroutine reads the CPU time and allocation count
// again at the window's end.
func newMeter(d time.Duration, n int) *meter {
	m := &meter{base: time.Now(), d: d, slice: d / time.Duration(n), n: n,
		samples: make([][]uint32, n+1), done: make(chan struct{})}
	m.cpu[0], m.allocs[0] = cpuTime(), allocCount()
	go func() {
		defer close(m.done)
		time.Sleep(time.Until(m.base.Add(d)))
		m.cpu[1], m.allocs[1] = cpuTime(), allocCount()
	}()
	return m
}

// sliceOf maps an instant to its slice; instants after the window map to n.
func (m *meter) sliceOf(t time.Time) int {
	return min(max(0, int(t.Sub(m.base)/m.slice)), m.n)
}

// tally is one goroutine's unshared share of a meter.
type tally [][]uint32

func (m *meter) tally() tally { return make(tally, m.n+1) }

// add records one verified completion attributed to instant at.
func (t tally) add(m *meter, at time.Time, latency time.Duration) {
	k := m.sliceOf(at)
	t[k] = append(t[k], nsSample(latency))
}

// merge folds a goroutine's tally into the meter.
func (m *meter) merge(t tally) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k := range t {
		m.samples[k] = append(m.samples[k], t[k]...)
	}
}

// finish waits for the window's end reading and returns the figures.
func (m *meter) finish() windowFigures {
	<-m.done
	var f windowFigures
	for k := 0; k < m.n; k++ {
		n := len(m.samples[k])
		f.all = append(f.all, m.samples[k]...)
		f.sliceGoodput = append(f.sliceGoodput, float64(n)/m.slice.Seconds())
		if n > 0 {
			f.sliceP99 = append(f.sliceP99, percentile(m.samples[k], 0.99))
		}
	}
	f.inWindow = int64(len(f.all))
	f.goodput = float64(f.inWindow) / m.d.Seconds()
	if f.inWindow > 0 {
		f.p50 = percentile(f.all, 0.5)
		f.p99 = percentile(f.all, 0.99)
		f.cpuPerOp = float64((m.cpu[1] - m.cpu[0]).Nanoseconds()) / 1e3 / float64(f.inWindow)
		f.allocsPerOp = float64(m.allocs[1]-m.allocs[0]) / float64(f.inWindow)
	}
	f.all = append(f.all, m.samples[m.n]...)
	return f
}

// windowFigures is what a meter measured over one window.
type windowFigures struct {
	goodput     float64 // completions inside the window per second
	p50, p99    float64 // ns, over the completions inside the window
	cpuPerOp    float64 // µs of process CPU per completion inside the window
	allocsPerOp float64 // heap objects per completion inside the window
	inWindow    int64   // completions inside the window

	sliceGoodput []float64 // per slice, empty slices included as 0
	sliceP99     []float64 // ns, per slice with a completion
	all          []uint32  // every latency sample, after the window's too
}

// allocCount is the cumulative count of heap objects allocated.
func allocCount() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
