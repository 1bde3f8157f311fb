package main

import (
	"math"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"ntcs/internal/core"
	"ntcs/internal/ipcs/tcpnet"
	"ntcs/internal/pack"
	"ntcs/internal/wire"
	"ntcs/sim"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// set records a metric; a value that could not be measured (NaN or
// infinite, from an empty sample) is reported as 0.
func (m metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// counters is a snapshot of the program's own counters: every module's
// registry summed, named modules' registries alone, the tcpnet poller
// shards and the packed-codec plan cache.
type counters struct {
	total                    map[string]uint64
	mods                     map[string]map[string]uint64
	polls, dispatch, wakeups []uint64
	packHits, packCompiles   uint64
	sched                    *rtmetrics.Float64Histogram
	gcCPU, totalCPU          float64
}

var runtimeSamples = []rtmetrics.Sample{
	{Name: "/sched/latencies:seconds"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func snapshot(w *sim.World, mods map[string]*core.Module) counters {
	c := counters{total: w.StatsTotals().Counters, mods: map[string]map[string]uint64{}}
	for role, m := range mods {
		c.mods[role] = m.Stats().Snapshot().Counters
	}
	for i := 0; i < tcpnet.PollerShards(); i++ {
		c.polls = append(c.polls, tcpnet.ShardPolls(i))
		c.dispatch = append(c.dispatch, tcpnet.ShardDispatches(i))
		c.wakeups = append(c.wakeups, tcpnet.ShardWakeups(i))
	}
	c.packHits, c.packCompiles = pack.PlanHits(), pack.Compiles()
	s := make([]rtmetrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	rtmetrics.Read(s)
	if s[0].Value.Kind() == rtmetrics.KindFloat64Histogram {
		c.sched = s[0].Value.Float64Histogram()
	}
	if s[1].Value.Kind() == rtmetrics.KindFloat64 {
		c.gcCPU, c.totalCPU = s[1].Value.Float64(), s[2].Value.Float64()
	}
	return c
}

// delta is the growth of one module's counter over the window.
func (r *result) delta(role, name string) float64 {
	return float64(r.after.mods[role][name] - r.before.mods[role][name])
}

// totalDelta is the growth of a counter summed over every module.
func (r *result) totalDelta(name string) float64 {
	return float64(r.after.total[name] - r.before.total[name])
}

// shardDispatches is each tcpnet poller shard's dispatch count over the
// window. Their balance shows which way the hot connections' descriptors
// fell on the shards (see README.md, Known modes).
func (r *result) shardDispatches() []uint64 {
	var d []uint64
	for i := range min(len(r.before.dispatch), len(r.after.dispatch)) {
		d = append(d, r.after.dispatch[i]-r.before.dispatch[i])
	}
	return d
}

// commonLayers derives the per-layer metrics every workload has from the
// counter snapshots bracketing a traced window.
func commonLayers(r *result, m metrics) {
	ops := float64(max(1, r.ok))
	framesOut := r.totalDelta("nd.frames_out")
	coalesced := r.totalDelta("nd.frames_per_batch")
	writes := r.totalDelta("nd.batches") + framesOut - coalesced
	if writes > 0 {
		m.set("ndlayer.frames_per_write", "count", framesOut/writes)
	}
	if framesOut > 0 {
		m.set("ndlayer.credit_waits_per_kmsg", "count", 1000*r.totalDelta("nd.backpressure.waits")/framesOut)
		m.set("ndlayer.header_overhead_frac", "frac", framesOut*wire.HeaderSize/r.totalDelta("nd.bytes_out"))
	}
	hits, misses := r.totalDelta("lcm.destcache_hits"), r.totalDelta("lcm.destcache_misses")
	if hits+misses > 0 {
		m.set("lcm.destcache_hit_ratio", "frac", hits/(hits+misses))
	}
	var polls, disp, wake, maxDisp float64
	for i := range r.after.dispatch {
		if i >= len(r.before.dispatch) {
			break
		}
		d := float64(r.after.dispatch[i] - r.before.dispatch[i])
		polls += float64(r.after.polls[i] - r.before.polls[i])
		wake += float64(r.after.wakeups[i] - r.before.wakeups[i])
		disp += d
		maxDisp = max(maxDisp, d)
	}
	if polls > 0 {
		m.set("ipcs.dispatches_per_poll", "count", disp/polls)
	}
	m.set("ipcs.wakeups_per_kop", "count", 1000*wake/ops)
	if disp > 0 {
		m.set("ipcs.shard_dispatch_max_over_mean", "ratio", maxDisp/(disp/float64(len(r.after.dispatch))))
	}
	ph := float64(r.after.packHits - r.before.packHits)
	pc := float64(r.after.packCompiles - r.before.packCompiles)
	if ph+pc > 0 {
		m.set("pack.plan_hit_ratio", "frac", ph/(ph+pc))
	}
	if cpu := r.after.totalCPU - r.before.totalCPU; cpu > 0 {
		m.set("go.gc_cpu_frac", "frac", (r.after.gcCPU-r.before.gcCPU)/cpu)
	}
	m.set("go.sched_latency_p99_us", "us", schedP99(r.before.sched, r.after.sched)*1e6)
}

// gatewayLayers adds the gateway's relay ratios (workloads with a gateway).
func gatewayLayers(r *result, m metrics) {
	relays := r.delta("gw", "ip.relays")
	if relays > 0 {
		m.set("iplayer.cutthrough_ratio", "frac", r.delta("gw", "ip.cutthrough")/relays)
	}
	m.set("iplayer.relays_per_op", "count", relays/float64(max(1, r.ok)))
}

// schedP99 is the 99th percentile of goroutine scheduling latency over
// the window, from the runtime's own histogram (seconds).
func schedP99(a, b *rtmetrics.Float64Histogram) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	d := make([]uint64, len(b.Counts))
	for i := range d {
		d[i] = b.Counts[i] - a.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, n := range d {
		cum += n
		if cum >= target {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
