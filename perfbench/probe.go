package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/core"
	"ntcs/internal/ipcs"
	"ntcs/internal/ipcs/tcpnet"
	"ntcs/internal/machine"
	"ntcs/internal/ndlayer"
	"ntcs/internal/pack"
	"ntcs/internal/wire"
)

// The outbound path is split by timing the stacked public send entries on
// the pipeline's message shape, one layer lower at a time:
//
//	core.Module.SendMsg → lcm.Layer.SendSpan → iplayer.Layer.Send →
//	ndlayer.LVC.Send → tcpnet Conn.Send
//
// Each layer's self time is its median minus the median of the entry
// below it. The probes run in the traced run only, after the workload's
// window, in a probe world of their own.
const (
	probeSends = 2000 // timed sends per layer
	probeBatch = 16   // frames per tcpnet SendBatch
	probeType  = "bench.probe"
)

var probeLayers = []string{"core", "lcm", "iplayer", "ndlayer", "tcpnet"}

// stackProbe holds the probe world.
type stackProbe struct {
	tx, rx  *core.Module
	rxU     addr.UAdd
	payload []byte // the envelope core would build for the body
	hdr     wire.Header
	lvc     *ndlayer.LVC
	conn    ipcs.Conn // bench-owned tcpnet pair: sending side
	peer    ipcs.Conn
	ln      ipcs.Listener
	frame   []byte
	stop    chan struct{}
	drained chan struct{}
}

// probeStack times every send entry and the tcpnet batch path and adds
// the results to m.
func probeStack(seed int64, m metrics) error {
	w, err := newWorld("probe")
	if err != nil {
		return err
	}
	defer w.Close()
	p := &stackProbe{stop: make(chan struct{}), drained: make(chan struct{})}
	if p.tx, err = attach(w, "probe-tx", machine.VAX, "probe"); err != nil {
		return err
	}
	if p.rx, err = attach(w, "probe-rx", machine.VAX, "probe"); err != nil {
		return err
	}
	if p.rxU, err = p.tx.Locate("probe-rx"); err != nil {
		return err
	}
	go p.drain()
	defer func() { close(p.stop); <-p.drained }()

	body := make([]byte, pipeBodySize)
	pipeBody(body, 0, 0, 0, fillerPattern(seed))
	if err := p.tx.SendMsg(context.Background(), p.rxU, probeType, body); err != nil {
		return fmt.Errorf("probe warm-up: %w", err)
	}
	e := pack.GetEncoder()
	e.String(probeType)
	e.NestedBytesField(body)
	p.payload = append([]byte(nil), e.Bytes()...)
	pack.PutEncoder(e)
	p.hdr = wire.Header{Type: wire.TData, Src: p.tx.UAdd(), Dst: p.rxU, SrcMachine: machine.VAX, Mode: wire.ModePacked}
	lvc, ok := p.tx.Nucleus().Bindings[0].Lookup(p.rxU)
	if !ok {
		return fmt.Errorf("probe: no circuit to the receiver after warm-up")
	}
	p.lvc = lvc
	if p.frame, err = wire.Marshal(p.hdr, p.payload); err != nil {
		return err
	}
	if err := p.dialRaw(); err != nil {
		return err
	}
	defer p.closeRaw()

	ctx := context.Background()
	lcmLayer, ipLayer := p.tx.Nucleus().LCM, p.tx.Nucleus().IP
	send := map[string]func() error{
		"core":    func() error { return p.tx.SendMsg(ctx, p.rxU, probeType, body) },
		"lcm":     func() error { return lcmLayer.SendSpan(ctx, lcmLayer.NewSpan(), p.rxU, wire.ModePacked, 0, p.payload) },
		"iplayer": func() error { return ipLayer.Send(p.rxU, p.hdr, p.payload) },
		"ndlayer": func() error { return p.lvc.Send(p.hdr, p.payload) },
		"tcpnet":  func() error { return p.conn.Send(p.frame) },
	}
	batch := make([][]byte, probeBatch)
	for i := range batch {
		batch[i] = p.frame
	}
	times := map[string][]uint32{}
	var batchNS []uint32
	// Layers take turns send by send, so drift in the host's load falls on
	// every layer alike.
	for i := 0; i < probeSends; i++ {
		for _, l := range probeLayers {
			t0 := time.Now()
			if err := send[l](); err != nil {
				return fmt.Errorf("probe %s send: %w", l, err)
			}
			times[l] = append(times[l], nsSample(time.Since(t0)))
		}
		if i%probeBatch == 0 {
			t0 := time.Now()
			if err := p.conn.SendBatch(batch); err != nil {
				return fmt.Errorf("probe tcpnet batch: %w", err)
			}
			batchNS = append(batchNS, nsSample(time.Since(t0)/probeBatch))
			p.settle()
		}
	}
	med := map[string]float64{}
	for _, l := range probeLayers {
		med[l] = percentile(times[l], 0.5)
		if l != "core" { // core's send time under load comes from the pipeline's spans
			m.set(l+".send_us_p50", "us", med[l]/1e3)
		}
	}
	for i, l := range probeLayers[:len(probeLayers)-1] {
		m.set(l+".self_us", "us", (med[l]-med[probeLayers[i+1]])/1e3)
	}
	m.set("tcpnet.sendbatch_us_per_msg", "us", percentile(batchNS, 0.5)/1e3)
	return nil
}

// drain empties the receiver's inbox for as long as the probe runs.
func (p *stackProbe) drain() {
	defer close(p.drained)
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		_, _ = p.rx.Recv(50 * time.Millisecond) // the probe times sends; what arrives is not checked
	}
}

// settle waits until the receiver has caught up, so one layer's backlog
// does not slow the next layer's timings. Messages the inbox dropped never
// arrive, so it waits at most a second.
func (p *stackProbe) settle() {
	deadline := time.Now().Add(time.Second)
	for p.rx.Nucleus().LCM.InboxDepth() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// dialRaw opens the bench-owned loopback tcpnet pair.
func (p *stackProbe) dialRaw() error {
	n := tcpnet.New("probe-raw")
	ln, err := n.Listen("")
	if err != nil {
		return err
	}
	p.ln = ln
	accepted := make(chan ipcs.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	if p.conn, err = n.Dial(ln.Addr()); err != nil {
		_ = ln.Close()
		return err
	}
	c, ok := <-accepted
	if !ok {
		return fmt.Errorf("probe: accept failed")
	}
	p.peer = c
	c.Start(func([]byte, error) {})
	p.conn.Start(func([]byte, error) {})
	return nil
}

func (p *stackProbe) closeRaw() {
	_ = p.conn.Close()
	_ = p.peer.Close()
	_ = p.ln.Close()
}

// --- Codec micro-timings ---------------------------------------------------

// probeCodecs times the wire and pack codecs on the workloads' shapes: the
// pipeline frame for wire, the rpc_gateway body for pack. Each figure is
// the median of five batches.
func probeCodecs(seed int64, m metrics) error {
	body := make([]byte, pipeBodySize)
	pipeBody(body, 0, 0, 0, fillerPattern(seed))
	h := wire.Header{Type: wire.TData, Src: 0x1001, Dst: 0x1002, SrcMachine: machine.VAX, Mode: wire.ModePacked, Circuit: 7, Seq: 9}
	frame, err := wire.Marshal(h, body)
	if err != nil {
		return err
	}
	var sink int
	m.set("wire.marshal_ns", "ns", perOp(20000, func() error {
		f, err := wire.Marshal(h, body)
		sink += len(f)
		return err
	}))
	m.set("wire.unmarshal_ns", "ns", perOp(20000, func() error {
		_, pl, err := wire.Unmarshal(frame)
		sink += len(pl)
		return err
	}))
	m.set("wire.patch_relay_ns", "ns", perOp(20000, func() error {
		return wire.PatchRelay(frame, 11)
	}))
	req := echoBodies(seed, 1)[0]
	data, err := pack.Marshal(req)
	if err != nil {
		return err
	}
	m.set("pack.encode_us", "us", perOp(2000, func() error {
		d, err := pack.Marshal(req)
		sink += len(d)
		return err
	})/1e3)
	m.set("pack.decode_us", "us", perOp(2000, func() error {
		var out echoBody
		return pack.Unmarshal(data, &out)
	})/1e3)
	_ = sink
	return nil
}

// perOp runs fn n times in each of five batches and returns the median
// batch's ns per call; an error reports NaN.
func perOp(n int, fn func() error) float64 {
	var batches []uint32
	for b := 0; b < 5; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if fn() != nil {
				return math.NaN()
			}
		}
		batches = append(batches, nsSample(time.Since(t0)*1000/time.Duration(n)))
	}
	return percentile(batches, 0.5) / 1000
}
