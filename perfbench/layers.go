package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// layerMetric is one per-layer metric: its unit and which direction is
// better. BENCHMARK.json lists the same set (a test keeps them equal).
type layerMetric struct{ name, unit, better string }

// perLayer is every per-layer metric the traced run reports, grouped by
// the module it measures. A metric a workload does not exercise (the
// gateway's relay ratio on pipeline, URSA's on rpc_gateway) reads 0.
var perLayer = []layerMetric{
	{"core.sendmsg_us_p50", "us", "lower"},
	{"core.self_us", "us", "lower"},
	{"core.recv_busy_frac", "frac", "lower"},
	{"core.decode_us_p50", "us", "lower"},
	{"core.reply_us_p50", "us", "lower"},
	{"lcm.send_us_p50", "us", "lower"},
	{"lcm.self_us", "us", "lower"},
	{"lcm.inbox_depth_max", "count", "lower"},
	{"lcm.inbox_drop_frac", "frac", "lower"},
	{"lcm.reply_wait_us_p50", "us", "lower"},
	{"lcm.destcache_hit_ratio", "frac", "higher"},
	{"iplayer.send_us_p50", "us", "lower"},
	{"iplayer.self_us", "us", "lower"},
	{"iplayer.cutthrough_ratio", "frac", "higher"},
	{"iplayer.relays_per_op", "count", "lower"},
	{"ndlayer.send_us_p50", "us", "lower"},
	{"ndlayer.self_us", "us", "lower"},
	{"ndlayer.frames_per_write", "count", "higher"},
	{"ndlayer.credit_waits_per_kmsg", "count", "lower"},
	{"ndlayer.header_overhead_frac", "frac", "lower"},
	{"tcpnet.send_us_p50", "us", "lower"},
	{"tcpnet.sendbatch_us_per_msg", "us", "lower"},
	{"ipcs.dispatches_per_poll", "count", "higher"},
	{"ipcs.wakeups_per_kop", "count", "lower"},
	{"ipcs.shard_dispatch_max_over_mean", "ratio", "lower"},
	{"wire.marshal_ns", "ns", "lower"},
	{"wire.unmarshal_ns", "ns", "lower"},
	{"wire.patch_relay_ns", "ns", "lower"},
	{"pack.encode_us", "us", "lower"},
	{"pack.decode_us", "us", "lower"},
	{"pack.plan_hit_ratio", "frac", "higher"},
	{"nsp.locate_cold_us", "us", "lower"},
	{"nsp.locate_warm_us", "us", "lower"},
	{"nsp.cache_hit_ratio", "frac", "higher"},
	{"ursa.backend_calls_per_query", "count", "lower"},
	{"ursa.index_call_us_p50", "us", "lower"},
	{"ursa.fetch_call_us_p50", "us", "lower"},
	{"ursa.search_admitted_frac", "frac", "higher"},
	{"go.sched_latency_p99_us", "us", "lower"},
	{"go.gc_cpu_frac", "frac", "lower"},
	{"bench.latency_p99_us", "us", "lower"},
	{"bench.trace_overhead_frac", "frac", "lower"},
}

// commit names the code measured: the git commit when the checkout is a
// repository, else a hash of the Go sources and module files under root.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(data))
			h.Write(data)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// writeSpans writes the traced run's spans, one per line, tab-separated:
// id, parent, request, name, start and end (ns since the run's base) and
// self time (ns).
func writeSpans(path string, spans []span, self map[uint64]int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns\tself_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", s.ID, s.Parent, s.Req, s.Name, s.Start, s.End, self[s.ID])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
