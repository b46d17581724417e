// Command perfbench is the repository's benchmark: it drives the
// controller daemon (internal/daemon) and the supercharger
// (internal/core + internal/dataplane) through their public APIs on
// generated inputs, checks their outputs, and prints every metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With -trace 0
// the metrics are the end-to-end ones; with -trace 1 the run records
// spans around every layer call in every other repetition and reports
// the per-layer metrics.
//
//	perfbench -workload serve-churn -seed 1 -seconds 12 -trace 0
//
// See NOTES.md for the workloads and the layer map.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"supercharged/internal/core"
	"supercharged/internal/daemon"
)

// metricDef is one reported metric. It mirrors BENCHMARK.json.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"routes_per_s", "1/s"},
	{"propagation_p50_ms", "ms"},
	{"propagation_p99_ms", "ms"},
	{"recovery_p50_ms", "ms"},
	{"reconverge_p50_ms", "ms"},
	{"failback_p50_ms", "ms"},
	{"heap_bytes_per_prefix", "B"},
}

var perLayer = []metricDef{
	{"feed.render_s", "s"},
	{"daemon.ingest.busy_s", "s"},
	{"daemon.ingest.routes", "count"},
	{"daemon.batch.dwell_p50_ms", "ms"},
	{"daemon.batch.changes_p50", "count"},
	{"daemon.queue.wait_p50_ms", "ms"},
	{"daemon.queue.wait_p99_ms", "ms"},
	{"daemon.sink.apply_busy_s", "s"},
	{"daemon.sink.apply_ns_per_change", "ns"},
	{"daemon.sink.batches", "count"},
	{"daemon.sink.changes_per_route", "ratio"},
	{"daemon.sink.noop_change_frac", "frac"},
	{"core.processor.process_p50_us", "us"},
	{"core.processor.process_p99_us", "us"},
	{"core.processor.out_per_in", "ratio"},
	{"core.processor.peerdown_ms", "ms"},
	{"core.groups", "count"},
	{"core.engine.peerdown_us", "us"},
	{"core.engine.rules_rewritten", "count"},
	{"dataplane.flowtable.push_us", "us"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_bytes_per_route", "B"},
	{"runtime.allocs_per_route", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"feed.self_s", "s"},
	{"daemon.ingest.self_s", "s"},
	{"daemon.queue.self_s", "s"},
	{"daemon.sink.self_s", "s"},
	{"core.processor.self_s", "s"},
	{"core.engine.self_s", "s"},
	{"dataplane.flowtable.self_s", "s"},
	{"trace.spans", "count"},
	{"trace.overhead_frac", "frac"},
}

// config sizes one workload run. The defaults per workload are in
// workloads; tests shrink them.
type config struct {
	seed     int64
	seconds  float64
	trace    bool
	prefixes int // per-peer table size
	peers    int
	routers  int
	rate     int           // serve-churn: offered single-prefix UPDATEs per second
	rounds   int           // minimum set-up repetitions (rounds or episodes) per run
	events   int           // failover events per run (serve-load: exactly; failover workloads: at least)
	timeout  time.Duration // longest wait on the program (0 = one minute)

	// Fault injection for the checker's self-tests: when set, these wrap
	// router r's sink and the supercharger's rule pusher.
	wrapSink   func(e *serveEnv, r int, s daemon.RouterSink) daemon.RouterSink
	wrapPusher func(h *superHarness, p core.FlowPusher) core.FlowPusher
}

// patience bounds every wait on the program: a wait that expires is a
// failed check, never a hang.
func (c config) patience() time.Duration {
	if c.timeout > 0 {
		return c.timeout
	}
	return time.Minute
}

type workload struct {
	name string
	run  func(config, *tracer) *report
	cfg  config
}

var workloads = []workload{
	{"serve-load", runServeLoad, config{prefixes: 250_000, peers: 4, routers: 2, rounds: 3, events: 6}},
	{"serve-churn", runServeChurn, config{prefixes: 250_000, peers: 4, routers: 2, rate: 20_000, rounds: 3}},
	{"serve-failover", runServeFailover, config{prefixes: 100_000, peers: 4, routers: 2, rounds: 5, events: 2*minTail + 1}},
	{"supercharge-failover", runSupercharge, config{prefixes: 100_000, peers: 4, rounds: 5, events: 2*minTail + 1}},
}

func main() {
	name := flag.String("workload", "", "workload: serve-load, serve-churn, serve-failover or supercharge-failover")
	seed := flag.Int64("seed", 1, "input seed: the same seed generates the same tables and schedules")
	seconds := flag.Float64("seconds", 12, "how long the measured phases run")
	trace := flag.Int("trace", 0, "1 = record layer spans and report the per-layer metrics")
	flag.Parse()
	// A program that hangs fails the run instead of holding the caller
	// past its time limit.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: the run did not finish within 170 s")
		os.Exit(1)
	})

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := w.cfg
	cfg.seed, cfg.seconds, cfg.trace = *seed, *seconds, *trace == 1
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0))

	tr := newTracer(cfg.trace)
	epoch := time.Now()
	r := w.run(cfg, tr)

	defs := endToEnd
	if cfg.trace {
		finishTrace(r, tr)
		path := filepath.Join(".bench_build", "traces", w.name+".json") // the latest traced run per workload
		if err := tr.writeChrome(path, epoch); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: trace written to %s\n", path)
		}
		defs = perLayer
	}
	r.print(os.Stderr)
	if err := r.emit(os.Stdout, defs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if r.failed > 0 {
		os.Exit(1)
	}
}

// finishTrace folds the span-derived self times and the measured
// tracing overhead into the per-layer metrics.
func finishTrace(r *report, tr *tracer) {
	lt := tr.selfTimes()
	for _, layer := range []string{"feed", "daemon.ingest", "daemon.queue", "daemon.sink", "core.processor", "core.engine", "dataplane.flowtable"} {
		r.layer[layer+".self_s"] = lt[layer].self
	}
	names := make([]string, 0, len(lt))
	spans := 0
	for n := range lt {
		names = append(names, n)
		spans += lt[n].count
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%-22s %8s %12s %12s\n", "layer", "spans", "total_s", "self_s")
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-22s %8d %12.4f %12.4f\n", n, lt[n].count, lt[n].total, lt[n].self)
	}
	r.layer["trace.spans"] = float64(spans)
	if kept, dropped := tr.len(); dropped > 0 {
		fmt.Fprintf(os.Stderr, "WARNING: the trace file holds only the first %d of %d spans; the per-layer times count them all\n", kept, kept+dropped)
	}
	if f, ok := r.over.frac(); ok {
		r.layer["trace.overhead_frac"] = f
		fmt.Fprintf(os.Stderr, "tracing overhead: %+.1f%% CPU per route in the timed phases, traced repetitions against untraced ones\n", 100*f)
	} else {
		fmt.Fprintln(os.Stderr, "tracing overhead: the run had no untraced repetition to compare against")
	}
}
