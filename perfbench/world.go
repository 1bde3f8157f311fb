package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/core"
	"ntcs/internal/machine"
	"ntcs/sim"
)

// world is one workload's running topology. It is built during set-up and
// measured by one or more windows.
type world interface {
	// window drives load for d and checks every output; rec is nil when
	// tracing is off. An error means an output check failed.
	window(d time.Duration, rec *recorder) (*result, error)
	// layers adds the workload's per-layer metrics for a traced window,
	// running any probe of its own on the world.
	layers(res *result, m metrics) error
	// nsp reports the set-up's name-resolution timings and cache counts.
	nsp() nspSetup
	close()
}

// result is what one measured window produced.
type result struct {
	attempted, ok int64         // operations tried; completed and verified
	checked       int64         // outputs the verifiers examined
	fig           windowFigures // the verified completions' figures

	extra         map[string]float64 // traced window: workload-specific figures
	before, after counters           // counter snapshots bracketing the window
}

func (r *result) failed() int64 { return r.attempted - r.ok }

// nspSetup is the name-resolution probe every set-up runs once.
type nspSetup struct {
	coldNS, warmNS int64
	hits, misses   uint64
}

// locateTwice resolves name from m cold and then warm, timing both.
func locateTwice(m *core.Module, name string) (addr.UAdd, nspSetup, error) {
	var s nspSetup
	t0 := time.Now()
	u, err := m.LocateContext(context.Background(), name)
	if err != nil {
		return addr.Nil, s, fmt.Errorf("locate %s: %w", name, err)
	}
	t1 := time.Now()
	if _, err := m.LocateContext(context.Background(), name); err != nil {
		return addr.Nil, s, fmt.Errorf("locate %s again: %w", name, err)
	}
	s.coldNS, s.warmNS = int64(t1.Sub(t0)), int64(time.Since(t1))
	c := m.Stats().Snapshot().Counters
	s.hits, s.misses = c["nsp.cache.hits"], c["nsp.cache.misses"]
	return u, s, nil
}

// newWorld raises the name server every workload needs on its first
// network.
func newWorld(networks ...string) (*sim.World, error) {
	w := sim.NewWorld()
	for _, n := range networks {
		w.AddTCPNetwork(n)
	}
	h, err := w.AddHost("ns-host", machine.Apollo, networks[0])
	if err == nil {
		_, err = w.StartNameServer(h, "ns")
	}
	if err != nil {
		w.Close()
		return nil, fmt.Errorf("name server: %w", err)
	}
	return w, nil
}

// attach adds one host of type mt on net and attaches a module to it.
func attach(w *sim.World, name string, mt machine.Type, nets ...string) (*core.Module, error) {
	h, err := w.AddHost(name+"-host", mt, nets...)
	if err != nil {
		return nil, err
	}
	m, err := w.Attach(h, name, nil)
	if err != nil {
		return nil, fmt.Errorf("attach %s: %w", name, err)
	}
	return m, nil
}

// firstErr keeps the first output-check failure of a window.
type firstErr struct {
	once sync.Once
	err  error
	set  atomic.Bool
}

func (f *firstErr) report(err error) {
	f.once.Do(func() { f.err = err; f.set.Store(true) })
}

func (f *firstErr) failed() bool { return f.set.Load() }

// depthSampler polls an inbox depth every millisecond and keeps the
// maximum, for the traced run.
type depthSampler struct {
	stop chan struct{}
	done chan struct{}
	max  atomic.Int64
}

func sampleDepth(depth func() int) *depthSampler {
	s := &depthSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if d := int64(depth()); d > s.max.Load() {
					s.max.Store(d)
				}
			}
		}
	}()
	return s
}

// end stops the sampler, waits for it and returns the maximum seen.
func (s *depthSampler) end() int64 {
	close(s.stop)
	<-s.done
	return s.max.Load()
}
