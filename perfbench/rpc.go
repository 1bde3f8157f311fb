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

// rpc_gateway: two closed-loop callers on two Sun68K client modules call
// a benchmark-owned echo server on a VAX across one prime gateway joining
// two tcpnet networks. The machines differ, so the ~1 KiB body converts
// in packed mode both ways; one call is in flight per caller, so latency
// is the chain of blocking steps, not queueing.
const (
	rpcCallers   = 2
	rpcEchoLoops = 2
	rpcType      = "bench.echo"
	rpcBodies    = 64
	rpcWarm      = 50
)

type rpcWorld struct {
	w       *sim.World
	clients []*core.Module
	echo    *core.Module
	gw      *core.Module
	echoU   addr.UAdd
	bodies  []echoBody
	setup   nspSetup

	// The echo server's loops read the current window's recorder and add
	// their own spans, joined to the caller's call span by request id.
	rec      atomic.Pointer[recorder]
	stop     chan struct{}
	loops    sync.WaitGroup
	echoFail firstErr
}

func buildRPC(seed int64) (world, error) {
	w, err := newWorld("net-b", "net-a")
	if err != nil {
		return nil, err
	}
	r := &rpcWorld{w: w, bodies: echoBodies(seed, rpcBodies), stop: make(chan struct{})}
	if err = r.build(); err != nil {
		r.close()
		return nil, fmt.Errorf("rpc_gateway set-up: %w", err)
	}
	return r, nil
}

func (r *rpcWorld) build() error {
	gwHost, err := r.w.AddHost("gw-host", machine.Apollo, "net-a", "net-b")
	if err != nil {
		return err
	}
	if r.gw, err = r.w.StartGateway(gwHost, "gw"); err != nil {
		return fmt.Errorf("gateway: %w", err)
	}
	if r.echo, err = attach(r.w, "bench-echo", machine.VAX, "net-b"); err != nil {
		return err
	}
	for l := 0; l < rpcEchoLoops; l++ {
		r.loops.Add(1)
		go r.serve()
	}
	for c := 0; c < rpcCallers; c++ {
		m, err := attach(r.w, fmt.Sprintf("rpc-client-%d", c), machine.Sun68K, "net-a")
		if err != nil {
			return err
		}
		r.clients = append(r.clients, m)
	}
	if r.echoU, r.setup, err = locateTwice(r.clients[0], "bench-echo"); err != nil {
		return err
	}
	for c, m := range r.clients {
		for i := 0; i < rpcWarm; i++ {
			req := r.bodies[i%len(r.bodies)]
			req.ID, req.Seq = int64(c+1)<<40|int64(i), int64(i)
			var rep echoBody
			if err := m.CallContext(context.Background(), r.echoU, rpcType, req, &rep); err != nil {
				return fmt.Errorf("warm-up call: %w", err)
			}
			if err := checkEcho(&req, &rep); err != nil {
				return err
			}
		}
	}
	return nil
}

// serve is one echo receive loop: decode the request, reply with it. It
// polls in short receives, so closing the world waits little for it.
func (r *rpcWorld) serve() {
	defer r.loops.Done()
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		d, err := r.echo.Recv(10 * time.Millisecond)
		if err != nil {
			continue
		}
		rec := r.rec.Load()
		t0 := time.Now()
		var req echoBody
		if err := d.Decode(&req); err != nil {
			r.echoFail.report(fmt.Errorf("%w: echo server decode: %v", errCorrupt, err))
			_ = r.echo.ReplyError(d, err.Error())
			continue
		}
		t1 := time.Now()
		err = r.echo.Reply(d, rpcType, req)
		t2 := time.Now()
		if err != nil {
			continue // the caller sees the failure as its own
		}
		if rec != nil {
			id := uint64(req.ID)
			rec.add(span{ID: rec.newID(), Parent: id, Req: id, Name: "core.Decode", Start: int64(t0.Sub(rec.base)), End: int64(t1.Sub(rec.base))})
			rec.add(span{ID: rec.newID(), Parent: id, Req: id, Name: "core.Reply", Start: int64(t1.Sub(rec.base)), End: int64(t2.Sub(rec.base))})
		}
	}
}

func (r *rpcWorld) nsp() nspSetup { return r.setup }

func (r *rpcWorld) close() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.loops.Wait()
	r.w.Close()
}

func (r *rpcWorld) mods() map[string]*core.Module {
	return map[string]*core.Module{"gw": r.gw, "echo": r.echo, "c0": r.clients[0], "c1": r.clients[1]}
}

func (r *rpcWorld) window(d time.Duration, rec *recorder) (*result, error) {
	res := &result{}
	r.rec.Store(rec)
	defer r.rec.Store(nil)
	var fail firstErr
	var attempted, ok atomic.Int64
	var depth *depthSampler
	if rec != nil {
		depth = sampleDepth(r.echo.Nucleus().LCM.InboxDepth)
	}
	res.before = snapshot(r.w, r.mods())
	mt := newMeter(d, secondSlices(d))
	end := mt.base.Add(d)
	var wg sync.WaitGroup
	for c, m := range r.clients {
		wg.Add(1)
		go func(c int, m *core.Module) {
			defer wg.Done()
			local := mt.tally()
			ctx := context.Background()
			for seq := int64(0); !fail.failed(); seq++ {
				t0 := time.Now()
				if !t0.Before(end) {
					break
				}
				req := r.bodies[int(seq)%len(r.bodies)]
				req.ID, req.Seq = int64(c+1)<<40|seq, seq
				var rep echoBody
				err := m.CallContext(ctx, r.echoU, rpcType, req, &rep)
				t1 := time.Now()
				attempted.Add(1)
				if rec != nil {
					rec.add(span{ID: uint64(req.ID), Req: uint64(req.ID), Name: "core.CallContext", Start: int64(t0.Sub(rec.base)), End: int64(t1.Sub(rec.base))})
				}
				if err != nil {
					continue
				}
				if err := checkEcho(&req, &rep); err != nil {
					fail.report(err)
					break
				}
				ok.Add(1)
				local.add(mt, t1, t1.Sub(t0))
			}
			mt.merge(local)
		}(c, m)
	}
	wg.Wait()
	if fail.failed() {
		return nil, fail.err
	}
	if r.echoFail.failed() {
		return nil, r.echoFail.err
	}
	res.after = snapshot(r.w, r.mods())
	res.attempted, res.ok = attempted.Load(), ok.Load()
	res.checked = res.ok
	res.fig = mt.finish()
	if rec != nil {
		res.extra = map[string]float64{"inbox_depth_max": float64(depth.end())}
	}
	return res, nil
}

func (r *rpcWorld) layers(res *result, m metrics) error {
	m.set("lcm.inbox_depth_max", "count", res.extra["inbox_depth_max"])
	gatewayLayers(res, m)
	return nil
}
