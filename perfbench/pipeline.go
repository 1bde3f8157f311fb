package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/core"
	"ntcs/internal/machine"
	"ntcs/sim"
)

// pipeline: two sender goroutines on one module fire 64-byte one-way
// messages at one receiver drained by two Recv loops, over one tcpnet
// network. Each sender keeps at most pipeWindow messages sent and not yet
// received, so the smallest-body per-message cost of the ND write path,
// the substrate and the LCM inbox sets the rate, and no message is lost
// while the window fits the inbox. The traced run also drives the same
// world unpaced for pipeOverrun and reports what the inbox drops then.
const (
	pipeSenders = 2
	pipeLoops   = 2
	pipeType    = "bench.pipe"
	// pipeWindow bounds each sender's messages in flight. Both windows
	// together hold 128 messages, half the LCM's default inbox of 256.
	pipeWindow  = 64
	pipeOverrun = 2 * time.Second
	// The drain: once the senders stop, a receive loop ends when every
	// accepted message is delivered, or when it has waited pipeIdle in
	// polls of pipePoll with nothing to receive (the rest were lost).
	pipeIdle = 250 * time.Millisecond
	pipePoll = 10 * time.Millisecond
	pipeWarm = 200
)

type pipeWorld struct {
	w       *sim.World
	tx, rx  *core.Module
	rxU     addr.UAdd
	pattern []byte
	setup   nspSetup
}

func buildPipeline(seed int64) (world, error) {
	w, err := newWorld("lan")
	if err != nil {
		return nil, err
	}
	p := &pipeWorld{w: w, pattern: fillerPattern(seed)}
	if p.tx, err = attach(w, "pipe-tx", machine.VAX, "lan"); err == nil {
		p.rx, err = attach(w, "pipe-rx", machine.VAX, "lan")
	}
	if err == nil {
		p.rxU, p.setup, err = locateTwice(p.tx, "pipe-rx")
	}
	if err == nil {
		err = p.warm()
	}
	if err != nil {
		w.Close()
		return nil, fmt.Errorf("pipeline set-up: %w", err)
	}
	return p, nil
}

// warm opens the circuit and fills the destination cache with checked
// messages sent one at a time, each received before the next.
func (p *pipeWorld) warm() error {
	check := newSeqCheck(1, 1, p.pattern)
	buf := make([]byte, pipeBodySize)
	for i := 0; i < pipeWarm; i++ {
		pipeBody(buf, 0, uint64(i), 0, p.pattern)
		if err := p.tx.SendMsg(context.Background(), p.rxU, pipeType, buf); err != nil {
			return err
		}
		d, err := p.rx.Recv(5 * time.Second)
		if err != nil {
			return err
		}
		var b []byte
		if err := d.Decode(&b); err != nil {
			return err
		}
		if _, err := check.deliver(0, b); err != nil {
			return err
		}
	}
	return nil
}

func (p *pipeWorld) nsp() nspSetup { return p.setup }
func (p *pipeWorld) close()        { p.w.Close() }

// secondSlices cuts a closed-loop window into one-second slices.
func secondSlices(d time.Duration) int { return max(1, int(d/time.Second)) }

// credit is one sender's window: messages sent and not yet received.
// A sender that finds it full waits until the receivers have drained it
// to half, so a full window costs one wake-up per pipeWindow/2 messages.
type credit struct {
	out  atomic.Int64
	wake chan struct{}
}

func newCredits(n int) []*credit {
	c := make([]*credit, n)
	for i := range c {
		c[i] = &credit{wake: make(chan struct{}, 1)}
	}
	return c
}

// acquire takes one slot, waiting while the window is full; it gives up
// when stop closes.
func (c *credit) acquire(stop <-chan struct{}) bool {
	for c.out.Load() >= pipeWindow {
		select {
		case <-c.wake:
		case <-stop:
			return false
		}
	}
	c.out.Add(1)
	return true
}

// release frees the slot of one received message.
func (c *credit) release() {
	if c.out.Add(-1) == pipeWindow/2 {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

func (p *pipeWorld) window(d time.Duration, rec *recorder) (*result, error) {
	return p.drive(d, rec, true)
}

// drive runs the senders for d, paced by their credit windows or, for
// the overrun probe, unpaced, and checks every delivery.
func (p *pipeWorld) drive(d time.Duration, rec *recorder, paced bool) (*result, error) {
	res := &result{}
	credits := newCredits(pipeSenders)
	check := newSeqCheck(pipeSenders, pipeLoops, p.pattern)
	var fail firstErr
	var sendersDone atomic.Bool
	var accepted, sendErrs, busyNS, loopNS atomic.Int64
	var depth *depthSampler
	if rec != nil {
		depth = sampleDepth(p.rx.Nucleus().LCM.InboxDepth)
	}
	res.before = snapshot(p.w, map[string]*core.Module{"tx": p.tx, "rx": p.rx})

	mt := newMeter(d, secondSlices(d))
	base := mt.base
	end := base.Add(d)
	// stop closes at the window's end, releasing a sender that waits on
	// its window then.
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		time.Sleep(time.Until(end))
		close(stop)
	}()
	var recvWG sync.WaitGroup
	for l := 0; l < pipeLoops; l++ {
		recvWG.Add(1)
		go func(l int) {
			defer recvWG.Done()
			local := mt.tally()
			loopStart := time.Now()
			var inRecv, quiet time.Duration
			for !fail.failed() {
				t0 := time.Now()
				dl, err := p.rx.Recv(pipePoll)
				t1 := time.Now()
				inRecv += t1.Sub(t0)
				if err != nil {
					if sendersDone.Load() {
						quiet += t1.Sub(t0)
						if quiet >= pipeIdle || check.delivered() == accepted.Load() {
							break
						}
					}
					continue
				}
				quiet = 0
				var b []byte
				if err := dl.Decode(&b); err != nil {
					fail.report(fmt.Errorf("%w: decode: %v", errCorrupt, err))
					break
				}
				sent, err := check.deliver(l, b)
				if err != nil {
					fail.report(err)
					break
				}
				if paced {
					credits[b[0]].release()
				}
				now := time.Now()
				local.add(mt, now, now.Sub(base)-time.Duration(sent))
				if rec != nil {
					req := uint64(b[0])<<56 | binary.BigEndian.Uint64(b[1:9])
					rec.add(span{ID: rec.newID(), Req: req, Name: "core.Recv", Start: int64(t0.Sub(rec.base)), End: int64(t1.Sub(rec.base))})
					rec.add(span{ID: rec.newID(), Req: req, Name: "core.Decode", Start: int64(t1.Sub(rec.base)), End: int64(now.Sub(rec.base))})
				}
			}
			mt.merge(local)
			busyNS.Add(int64(time.Since(loopStart) - inRecv))
			loopNS.Add(int64(time.Since(loopStart)))
		}(l)
	}

	var sendWG sync.WaitGroup
	for s := 0; s < pipeSenders; s++ {
		sendWG.Add(1)
		go func(s int) {
			defer sendWG.Done()
			buf := make([]byte, pipeBodySize)
			ctx := context.Background()
			var seq uint64
			for !fail.failed() {
				if paced && !credits[s].acquire(stop) {
					break
				}
				now := time.Now()
				if !now.Before(end) {
					break
				}
				pipeBody(buf, uint8(s), seq, int64(now.Sub(base)), p.pattern)
				err := p.tx.SendMsg(ctx, p.rxU, pipeType, buf)
				if rec != nil {
					rec.add(span{ID: rec.newID(), Req: uint64(s)<<56 | seq, Name: "core.SendMsg", Start: int64(now.Sub(rec.base)), End: rec.now()})
				}
				if err != nil {
					sendErrs.Add(1)
				} else {
					accepted.Add(1)
				}
				seq++
			}
		}(s)
	}
	sendWG.Wait()
	sendersDone.Store(true)
	recvWG.Wait()
	<-stopped
	if fail.failed() {
		return nil, fail.err
	}
	res.after = snapshot(p.w, map[string]*core.Module{"tx": p.tx, "rx": p.rx})
	res.attempted = accepted.Load() + sendErrs.Load()
	res.ok = check.delivered()
	res.checked = res.ok
	res.fig = mt.finish()
	if rec != nil {
		res.extra = map[string]float64{
			"inbox_depth_max": float64(depth.end()),
			"recv_busy_frac":  float64(busyNS.Load()) / float64(max(1, loopNS.Load())),
		}
	}
	return res, nil
}

func (p *pipeWorld) layers(res *result, m metrics) error {
	m.set("lcm.inbox_depth_max", "count", res.extra["inbox_depth_max"])
	m.set("core.recv_busy_frac", "frac", res.extra["recv_busy_frac"])
	// The overrun probe: the senders unpaced, so the inbox overflows. Its
	// deliveries are checked like the window's; what the receiver's ND
	// layer took in and the inbox did not deliver was dropped.
	over, err := p.drive(pipeOverrun, nil, false)
	if err != nil {
		return fmt.Errorf("overrun probe: %w", err)
	}
	if framesIn := over.delta("rx", "nd.frames_in"); framesIn > 0 {
		m.set("lcm.inbox_drop_frac", "frac", (framesIn-float64(over.ok))/framesIn)
	}
	return nil
}
