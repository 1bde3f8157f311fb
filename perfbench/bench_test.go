package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"ntcs/internal/ursa"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []uint32
	for i := 100; i >= 1; i-- { // arrival order must not matter
		s = append(s, uint32(i))
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.01, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]uint32{7}, 0.99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	if s[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

func TestSummarizeFlagsUnsupportedTails(t *testing.T) {
	mk := func(n int) []uint32 {
		s := make([]uint32, n)
		for i := range s {
			s[i] = uint32(i + 1)
		}
		return s
	}
	if got := summarize(mk(999)); got.P99OK || got.HiQ != 0.9 {
		t.Errorf("999 samples: P99OK=%v HiQ=%v, want false and 0.9", got.P99OK, got.HiQ)
	}
	if got := summarize(mk(1000)); !got.P99OK || got.HiQ != 0.99 || got.P50 != 500 || got.P99 != 990 {
		t.Errorf("1000 samples: %+v", got)
	}
	if got := summarize(mk(10000)); got.HiQ != 0.999 || got.Hi != 9990 {
		t.Errorf("10000 samples: HiQ=%v Hi=%v, want 0.999 and 9990", got.HiQ, got.Hi)
	}
	if got := summarize(mk(50)); got.HiQ != 0 || !strings.Contains(got.String(), "UNSUPPORTED") {
		t.Errorf("50 samples: HiQ=%v, %q should flag the p99", got.HiQ, got.String())
	}
}

func TestInputsReproduceFromSeed(t *testing.T) {
	if !reflect.DeepEqual(corpus(5, 1, 50), corpus(5, 1, 50)) || reflect.DeepEqual(corpus(5, 0, 50), corpus(5, 1, 50)) {
		t.Error("corpus is not a function of seed and shard")
	}
	if !reflect.DeepEqual(queries(5, 20), queries(5, 20)) || reflect.DeepEqual(queries(5, 20), queries(6, 20)) {
		t.Error("query mix is not a function of the seed")
	}
	if !reflect.DeepEqual(echoBodies(5, 3), echoBodies(5, 3)) || !bytes.Equal(fillerPattern(5), fillerPattern(5)) {
		t.Error("bodies are not a function of the seed")
	}
}

// TestMeterReportsWholeWindow: goodput, CPU and allocations per operation
// cover the whole window, an empty slice counts as 0 goodput, and
// completions after the window feed no gated figure.
func TestMeterReportsWholeWindow(t *testing.T) {
	m := &meter{d: 4 * time.Second, slice: time.Second, n: 4,
		cpu: [2]time.Duration{0, 40 * time.Millisecond}, allocs: [2]uint64{100, 900},
		samples: [][]uint32{{1000, 3000}, {}, {2000, 4000, 5000, 6000}, {7000, 8000}, {9e6}},
		done:    make(chan struct{})}
	close(m.done)
	f := m.finish()
	if f.inWindow != 8 || f.goodput != 2 {
		t.Errorf("inWindow=%d goodput=%v, want 8 and 2", f.inWindow, f.goodput)
	}
	if f.cpuPerOp != 5000 || f.allocsPerOp != 100 {
		t.Errorf("cpuPerOp=%v allocsPerOp=%v, want 5000 and 100", f.cpuPerOp, f.allocsPerOp)
	}
	if f.p50 != 4000 || f.p99 != 8000 {
		t.Errorf("p50=%v p99=%v, want 4000 and 8000", f.p50, f.p99)
	}
	if !slices.Equal(f.sliceGoodput, []float64{2, 0, 4, 2}) || len(f.sliceP99) != 3 || len(f.all) != 9 {
		t.Errorf("slices %v, %v; all %d", f.sliceGoodput, f.sliceP99, len(f.all))
	}
	if ran(&result{attempted: 5, fig: f}) != nil {
		t.Error("a window with completions was rejected")
	}
	if ran(&result{attempted: 5}) == nil || ran(&result{fig: f}) == nil {
		t.Error("a window that completed or attempted nothing was accepted")
	}
}

// TestCreditWindow: a sender takes pipeWindow slots without waiting, then
// waits until the receivers have drained its window to half; closing stop
// releases a waiting sender.
func TestCreditWindow(t *testing.T) {
	c := newCredits(1)[0]
	never := make(chan struct{})
	for i := 0; i < pipeWindow; i++ {
		if !c.acquire(never) {
			t.Fatalf("slot %d refused", i)
		}
	}
	got := make(chan bool)
	go func() { got <- c.acquire(never) }()
	time.Sleep(20 * time.Millisecond) // let the sender find the window full
	for i := 0; i < pipeWindow/2-1; i++ {
		c.release()
	}
	select {
	case <-got:
		t.Fatal("a sender went on before its window drained to half")
	case <-time.After(20 * time.Millisecond):
	}
	c.release()
	if !<-got {
		t.Fatal("the sender was refused after its window drained")
	}
	if n := c.out.Load(); n != pipeWindow/2+1 {
		t.Fatalf("in flight %d, want %d", n, pipeWindow/2+1)
	}
	stop := make(chan struct{})
	for c.out.Load() < pipeWindow {
		c.acquire(never)
	}
	go func() { got <- c.acquire(stop) }()
	close(stop)
	if <-got {
		t.Fatal("a waiting sender took a slot after stop closed")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "call", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "decode", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "reply", Start: 20, End: 50}, // overlaps decode: [10,50] counted once
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120}, // only [90,100] lies inside the call
		{ID: 5, Parent: 3, Name: "inner", Start: 25, End: 35},
		{ID: 6, Name: "other", Start: 0, End: 40},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 40}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if got := durationsOf(spans, self, "call"); !slices.Equal(got, []uint32{50}) {
		t.Errorf("self durations of call = %v", got)
	}
	if got := durationsOf(spans, nil, "reply"); !slices.Equal(got, []uint32{30}) {
		t.Errorf("durations of reply = %v", got)
	}
}

func pipeMsg(sender uint8, seq uint64, pattern []byte) []byte {
	b := make([]byte, pipeBodySize)
	pipeBody(b, sender, seq, int64(seq)*1000, pattern)
	return b
}

func TestSeqCheckRejectsBadDeliveries(t *testing.T) {
	p := fillerPattern(9)
	t.Run("gaps are counted, not rejected", func(t *testing.T) {
		c := newSeqCheck(2, 2, p)
		for _, seq := range []uint64{0, 1, 5, 9} {
			if _, err := c.deliver(0, pipeMsg(1, seq, p)); err != nil {
				t.Fatal(err)
			}
		}
		// The other loop may see an older message than loop 0 last saw.
		if sent, err := c.deliver(1, pipeMsg(1, 3, p)); err != nil || sent != 3000 {
			t.Fatalf("sent=%d err=%v", sent, err)
		}
		if c.delivered() != 5 {
			t.Errorf("delivered %d, want 5", c.delivered())
		}
	})
	cases := []struct {
		name string
		want error
		run  func(c *seqCheck) error
	}{
		{"corrupted payload", errCorrupt, func(c *seqCheck) error {
			b := pipeMsg(0, 0, p)
			b[30] ^= 1
			_, err := c.deliver(0, b)
			return err
		}},
		{"corrupted filler with a valid checksum", errCorrupt, func(c *seqCheck) error {
			_, err := c.deliver(0, pipeMsg(0, 0, fillerPattern(10)))
			return err
		}},
		{"short message", errCorrupt, func(c *seqCheck) error {
			_, err := c.deliver(0, pipeMsg(0, 0, p)[:40])
			return err
		}},
		{"duplicate across loops", errDuplicate, func(c *seqCheck) error {
			if _, err := c.deliver(0, pipeMsg(0, 4, p)); err != nil {
				return err
			}
			_, err := c.deliver(1, pipeMsg(0, 4, p))
			return err
		}},
		{"reordered within a loop", errReorder, func(c *seqCheck) error {
			if _, err := c.deliver(0, pipeMsg(1, 7, p)); err != nil {
				return err
			}
			_, err := c.deliver(0, pipeMsg(1, 6, p))
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(newSeqCheck(2, 2, p)); !errors.Is(err, tc.want) {
				t.Errorf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestCheckEchoRejectsAnyChange(t *testing.T) {
	req := echoBodies(3, 1)[0]
	rep := req
	rep.Block = slices.Clone(req.Block)
	if err := checkEcho(&req, &rep); err != nil {
		t.Fatal(err)
	}
	rep.Block[100] ^= 0x80
	if err := checkEcho(&req, &rep); !errors.Is(err, errCorrupt) {
		t.Errorf("changed block: %v", err)
	}
}

func TestCheckHits(t *testing.T) {
	docs := []doc{
		{ID: 1, Title: "s0-d1 alpha", Text: "network gateway"},
		{ID: 2, Title: "s0-d2 beta", Text: "gateway"},
		{ID: 3, Title: "s0-d3 gamma", Text: "kernel"},
	}
	s := &ursaWorld{corpus: [][]doc{docs}, terms: []map[string][]int64{termIndex(docs)}}
	hit := func(id int64, title string) ursa.Hit { return ursa.Hit{DocID: id, Title: title} }
	for _, c := range []struct {
		name    string
		hits    []ursa.Hit
		ok      bool
		corrupt bool
	}{
		{"exact", []ursa.Hit{hit(1, "s0-d1 alpha"), hit(2, "s0-d2 beta")}, true, false},
		{"degraded title", []ursa.Hit{hit(1, ""), hit(2, "s0-d2 beta")}, false, false},
		{"wrong title", []ursa.Hit{hit(1, "s0-d2 beta"), hit(2, "s0-d2 beta")}, false, true},
		{"non-matching document", []ursa.Hit{hit(1, "s0-d1 alpha"), hit(3, "s0-d3 gamma")}, false, true},
		{"missing hit", []ursa.Hit{hit(1, "s0-d1 alpha")}, false, true},
		{"unknown document", []ursa.Hit{hit(1, "s0-d1 alpha"), hit(9, "x")}, false, true},
	} {
		ok, err := s.checkHits(0, "Gateway", c.hits)
		if ok != c.ok || errors.Is(err, errCorrupt) != c.corrupt {
			t.Errorf("%s: ok=%v err=%v", c.name, ok, err)
		}
	}
}

// TestManifestMatches keeps BENCHMARK.json and the code in step: the same
// workloads and the same per-layer metrics with the same units.
func TestManifestMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
	}
	for _, name := range names {
		if workloads[name] == nil {
			t.Errorf("manifest workload %q is not in the code", name)
		}
	}
	if len(man.PerLayer) != len(perLayer) {
		t.Fatalf("manifest lists %d per-layer metrics, code %d", len(man.PerLayer), len(perLayer))
	}
	for i, l := range perLayer {
		if m := man.PerLayer[i]; m.Name != l.name || m.Unit != l.unit || m.Better != l.better {
			t.Errorf("per-layer %d: manifest %+v, code %+v", i, m, l)
		}
	}
	units := map[string]string{}
	for _, e := range man.EndToEnd {
		units[e.Name] = e.Unit
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "rpc_gateway", "--seconds", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("run exited %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool
		Attempted int64
		Metrics   map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(units) {
		t.Fatalf("result %+v, want every one of %v", res, units)
	}
	for name, m := range res.Metrics {
		if units[name] != m.Unit || m.Value <= 0 {
			t.Errorf("metric %s = %v %s; manifest unit %q", name, m.Value, m.Unit, units[name])
		}
	}
}
