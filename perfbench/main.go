// Command perfbench is the NTCS benchmark. It builds one workload's world
// in-process from sim, ursa and the layer packages, drives it over the
// host's loopback TCP interface from this one process, checks every
// output, and prints its metrics. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, from a run that records spans around the
// benchmark's calls into each module. Any failed output check exits
// non-zero without printing a result.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload pipeline --seed 1 --seconds 45 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"
)

// workloads maps each workload name to its world builder.
var workloads = map[string]func(seed int64) (world, error){
	"pipeline":    buildPipeline,
	"rpc_gateway": buildRPC,
}

// setupRounds: set-up is repeated and its median, over these rounds and
// the set-ups of the measured worlds, reported. Half the rounds run before
// the measured windows and half after them, so a slow spell of the host
// moves only some of them.
const setupRounds = 64

// maxWorlds: an untraced run cuts its window into up to this many equal
// parts of at least a second, each measured on a freshly built world, and
// reports each figure's mean over them. Where a world's connections fall
// on the tcpnet poller shards sets its speed (see README.md, Known
// modes), so a figure is the mean over many placements, and a slow spell
// of the host moves only a few of its parts.
const maxWorlds = 45

func worldsFor(d time.Duration) int { return max(1, min(maxWorlds, int(d/time.Second))) }

// spanLimit bounds the spans a traced run keeps in memory.
const spanLimit = 1 << 18

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: pipeline or rpc_gateway")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Int("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	spanOut := fs.String("spans", "", "traced run: write the recorded spans to this file (TSV)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	build, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	b := &bench{name: *name, seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *traced == 1, out: stdout, spanOut: *spanOut}
	if err := b.run(build); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		if errors.Is(err, errCorrupt) || errors.Is(err, errDuplicate) || errors.Is(err, errReorder) {
			return 3
		}
		return 1
	}
	return 0
}

type bench struct {
	name    string
	seed    int64
	window  time.Duration
	traced  bool
	out     io.Writer
	spanOut string
}

func (b *bench) printf(format string, args ...any) { fmt.Fprintf(b.out, format, args...) }

func (b *bench) run(build func(int64) (world, error)) error {
	b.printf("perfbench workload=%s seed=%d traced=%v substrate=%q commit=%s gomaxprocs=%d numcpu=%d go=%s\n",
		b.name, b.seed, b.traced, "loopback TCP", commit(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	var setups setupClock
	if b.traced {
		w, err := setups.build(build, b.seed)
		if err != nil {
			return err
		}
		defer w.close()
		return b.tracedRun(w)
	}
	if err := setups.repeat(build, b.seed, setupRounds/2); err != nil {
		return err
	}
	n := worldsFor(b.window)
	var goodput, p50, cpu, allocs, heaps []float64
	total := &result{}
	for k := 0; k < n; k++ {
		w, err := setups.build(build, b.seed)
		if err != nil {
			return err
		}
		res, heap, err := measure(w, b.window/time.Duration(n), nil)
		w.close()
		if err == nil {
			err = ran(res)
		}
		if err != nil {
			return err
		}
		f := res.fig
		goodput, p50 = append(goodput, f.goodput), append(p50, f.p50/1e3)
		cpu, allocs, heaps = append(cpu, f.cpuPerOp), append(allocs, f.allocsPerOp), append(heaps, heap)
		total.attempted += res.attempted
		total.ok += res.ok
		total.checked += res.checked
		b.printf("world %d: %s; goodput %.0f/s, %.2f allocs/op, poller dispatches per shard %v\n",
			k+1, summarize(f.all[:f.inWindow]), f.goodput, f.allocsPerOp, res.shardDispatches())
		b.printf("  per-slice goodput (1/s):")
		for _, v := range f.sliceGoodput {
			b.printf(" %.0f", v)
		}
		b.printf("; per-slice p99 (us):")
		for _, v := range f.sliceP99 {
			b.printf(" %.0f", v/1e3)
		}
		b.printf("\n")
	}
	if err := setups.repeat(build, b.seed, setupRounds+n); err != nil {
		return err
	}
	m := metrics{}
	m.set("goodput_per_s", "1/s", mean(goodput))
	m.set("latency_p50_us", "us", mean(p50))
	m.set("cpu_us_per_op", "us", mean(cpu))
	m.set("allocs_per_op", "count", mean(allocs))
	m.set("heap_live_mb", "MB", mean(heaps))
	m.set("setup_s", "s", median(setups.cpu))

	b.printf("latency basis: %s; figures are means over %d worlds of %v each\n", latencyBasis[b.name], n, b.window/time.Duration(n))
	b.printf("checked %d outputs: all correct; attempted %d, completed %d, failed %d (failed_frac %.5f)\n",
		total.checked, total.attempted, total.ok, total.failed(), float64(total.failed())/float64(total.attempted))
	b.printf("set-up over %d rounds: median %.5f s CPU, %.5f s wall-clock\n", len(setups.cpu), median(setups.cpu), median(setups.wall))
	return b.emit(total, m)
}

// setupClock times world set-ups. setup_s is the process CPU time a
// set-up costs, not its wall-clock time: a set-up is a chain of round
// trips, each waiting on a wake-up. On a 2-vCPU virtual machine that
// shares its CPUs with other tenants, the run-to-run interquartile
// spread of the wall-clock median was about 0.4 of it, that of the CPU
// time about 0.1. The wall-clock median is printed beside it.
type setupClock struct{ cpu, wall []float64 }

// build builds one world and records its set-up times.
func (c *setupClock) build(build func(int64) (world, error), seed int64) (world, error) {
	t0, c0 := time.Now(), cpuTime()
	w, err := build(seed)
	if err == nil {
		c.cpu = append(c.cpu, (cpuTime() - c0).Seconds())
		c.wall = append(c.wall, time.Since(t0).Seconds())
	}
	return w, err
}

// repeat builds and closes worlds until n set-ups are recorded.
func (c *setupClock) repeat(build func(int64) (world, error), seed int64, n int) error {
	for len(c.cpu) < n {
		w, err := c.build(build, seed)
		if err != nil {
			return err
		}
		w.close()
	}
	return nil
}

// ran rejects a window that attempted or completed nothing inside it:
// such a run measured no operation, so it has no result to report.
func ran(res *result) error {
	if res.attempted == 0 || res.fig.inWindow == 0 {
		return fmt.Errorf("the window attempted %d operations and completed %d inside it", res.attempted, res.fig.inWindow)
	}
	return nil
}

var latencyBasis = map[string]string{
	"pipeline":    "SendMsg start to Recv return",
	"rpc_gateway": "CallContext",
}

// measure runs one untraced or traced window and returns, besides its
// result, the live heap after forced collections at the window's end, less
// the benchmark's own sample buffers (everything else the window used is
// garbage by then).
func measure(w world, d time.Duration, rec *recorder) (*result, float64, error) {
	res, err := w.window(d, rec)
	if err != nil {
		return nil, 0, err
	}
	// Two collections: the first leaves pooled buffers in the pools'
	// victim caches, the second frees them, so the figure is live data.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	retained := 4 * int64(cap(res.fig.all)) // the result's own sample buffers
	return res, float64(int64(ms.HeapAlloc)-retained) / 1e6, nil
}

// tracedRun measures half the window untraced and half traced (the gap in
// goodput between the two is the tracing overhead), then runs the layer
// probes and reports the per-layer metrics.
func (b *bench) tracedRun(w world) error {
	half := b.window / 2
	plain, _, err := measure(w, half, nil)
	if err != nil {
		return err
	}
	rec := newRecorder(spanLimit)
	res, _, err := measure(w, half, rec)
	if err != nil {
		return err
	}
	if err := errors.Join(ran(plain), ran(res)); err != nil {
		return err
	}
	m := metrics{}
	for _, l := range perLayer {
		m.set(l.name, l.unit, 0)
	}
	gPlain, gTraced := plain.fig.goodput, res.fig.goodput
	// The tail is reported here, unbounded, not as an end-to-end metric:
	// host CPU steal moves it between runs by more than any bound allows.
	m.set("bench.latency_p99_us", "us", plain.fig.p99/1e3)
	m.set("bench.trace_overhead_frac", "frac", (gPlain-gTraced)/gPlain)
	commonLayers(res, m)
	if err := w.layers(res, m); err != nil {
		return err
	}
	spans := rec.all()
	self := selfTimes(spans)
	b.spanLayers(spans, self, m)
	ns := w.nsp()
	m.set("nsp.locate_cold_us", "us", float64(ns.coldNS)/1e3)
	m.set("nsp.locate_warm_us", "us", float64(ns.warmNS)/1e3)
	if ns.hits+ns.misses > 0 {
		m.set("nsp.cache_hit_ratio", "frac", float64(ns.hits)/float64(ns.hits+ns.misses))
	}
	if err := probeStack(b.seed, m); err != nil {
		return fmt.Errorf("layer probe: %w", err)
	}
	if err := probeCodecs(b.seed, m); err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	if err := probeURSA(b.seed, m); err != nil {
		return fmt.Errorf("ursa probe: %w", err)
	}
	if b.spanOut != "" {
		if err := writeSpans(b.spanOut, spans, self); err != nil {
			return err
		}
	}
	b.printf("traced: %d spans kept, %d dropped over the limit\n", len(spans), rec.dropped.Load())
	for _, name := range []string{"core.SendMsg", "core.Recv", "core.Decode", "core.Reply", "core.CallContext"} {
		if d := durationsOf(spans, self, name); len(d) > 0 {
			b.printf("self time %-17s %s\n", name, summarize(d))
		}
	}
	b.printf("checked %d outputs: all correct (untraced half %d, traced half %d)\n", plain.checked+res.checked, plain.checked, res.checked)
	merged := &result{attempted: plain.attempted + res.attempted, ok: plain.ok + res.ok}
	return b.emit(merged, m)
}

// spanLayers derives the per-layer timings the workload's own spans give.
func (b *bench) spanLayers(spans []span, self map[uint64]int64, m metrics) {
	p50 := func(name string, useSelf bool) float64 {
		s := self
		if !useSelf {
			s = nil
		}
		return percentile(durationsOf(spans, s, name), 0.5) / 1e3
	}
	if v := p50("core.SendMsg", false); v > 0 {
		m.set("core.sendmsg_us_p50", "us", v)
	}
	if v := p50("core.Decode", false); v > 0 {
		m.set("core.decode_us_p50", "us", v)
	}
	if v := p50("core.Reply", false); v > 0 {
		m.set("core.reply_us_p50", "us", v)
	}
	if b.name == "rpc_gateway" {
		// The call span's self time is the call less the server's decode
		// and reply: the time the caller spent waiting on the layers.
		m.set("lcm.reply_wait_us_p50", "us", p50("core.CallContext", true))
	}
}

// emit prints the metrics and the result line. It is reached only when
// every output check passed; a failed check ends the run before it.
func (b *bench) emit(res *result, m metrics) error {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		b.printf("%-36s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{true, res.attempted, res.failed(), m})
	if err != nil {
		return err
	}
	b.printf("%s\n", line)
	return nil
}
