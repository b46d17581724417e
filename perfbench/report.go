package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// report collects one run's checks and metrics.
type report struct {
	attempted, failed int
	failures          []string // the first few failed checks, for the self-tests
	e2e               map[string]float64
	layer             map[string]float64
	over              overhead
}

// overhead compares the CPU the timed phases use per route in the traced
// and the untraced repetitions of one run.
type overhead struct {
	cpu    [2]float64 // seconds: untraced, traced
	routes [2]float64
}

// add counts one repetition's timed-phase CPU and the routes it ingested.
func (o *overhead) add(traced bool, cpu float64, routes int64) {
	i := 0
	if traced {
		i = 1
	}
	o.cpu[i] += cpu
	o.routes[i] += float64(routes)
}

// frac is the traced repetitions' CPU per route over the untraced ones',
// minus one; false when either side is missing.
func (o *overhead) frac() (float64, bool) {
	if o.routes[0] == 0 || o.routes[1] == 0 || o.cpu[0] == 0 {
		return 0, false
	}
	return (o.cpu[1]/o.routes[1])/(o.cpu[0]/o.routes[0]) - 1, true
}

func newReport() *report {
	return &report{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

// check counts one correctness check; a failed one is described on
// standard error.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		msg := fmt.Sprintf(format, args...)
		if len(r.failures) < 20 {
			r.failures = append(r.failures, msg)
		}
		fmt.Fprintf(os.Stderr, "CHECK FAILED: %s\n", msg)
	}
}

// pct sets an end-to-end percentile. Too few samples beyond the
// percentile is a failed check: the number would not be a measurement.
func (r *report) pct(name string, s series, q float64) {
	v, ok := percentile(s, q)
	r.check(ok, "%s: %d samples cannot support p%g", name, len(s), q*100)
	r.e2e[name] = v
}

// pctReps sets an end-to-end percentile as the median over repetitions
// (rounds, episodes or events) of each one's own percentile, so one
// repetition the host disturbed does not decide the run. Every
// repetition must support the percentile by itself.
func (r *report) pctReps(name string, reps []series, q float64) {
	var per series
	ok := len(reps) > 0
	for _, s := range reps {
		v, enough := percentile(s, q)
		ok = ok && enough
		per.add(v)
	}
	r.check(ok, "%s: a repetition has too few samples for p%g", name, q*100)
	r.e2e[name] = median(per)
}

// layerPct sets a per-layer percentile, 0 when unsupported.
func (r *report) layerPct(name string, s series, q float64) {
	v, _ := percentile(s, q)
	r.layer[name] = v
}

// runtimeLayer reports the runtime accounting of the timed phases.
func (r *report) runtimeLayer(a *rtAccount, routes int64) {
	d := a.delta
	if d.totalCPU > 0 {
		r.layer["runtime.gc_cpu_frac"] = d.gcCPU / d.totalCPU
	}
	r.layer["runtime.gc_pause_ms"] = d.pause * 1e3
	if routes > 0 {
		r.layer["runtime.alloc_bytes_per_route"] = float64(d.allocBytes) / float64(routes)
		r.layer["runtime.allocs_per_route"] = float64(d.allocObjects) / float64(routes)
	}
}

// print writes the human-readable table: every metric by name and unit.
func (r *report) print(w io.Writer) {
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%-34s %16.4f %s\n", d.name, r.e2e[d.name], d.unit)
	}
	for _, d := range perLayer {
		if v, ok := r.layer[d.name]; ok {
			fmt.Fprintf(w, "%-34s %16.4f %s\n", d.name, v, d.unit)
		}
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-34s %16.4f frac (%d of %d checks failed)\n", "fail_frac", frac, r.failed, r.attempted)
}

// emit writes the result line: defs pick the metric set.
func (r *report) emit(w io.Writer, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := r.e2e[d.name]
		if !ok {
			v = r.layer[d.name]
		}
		metrics[d.name] = value{v, d.unit}
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1 // a run that checked nothing still attempted the workload
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, attempted, r.failed, metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// logRound prints one set-up repetition's figures on standard error.
func logRound(n int, setup, rate float64) {
	fmt.Fprintf(os.Stderr, "repetition %d: set-up %.4f s, load %.0f routes/s\n", n, setup, rate)
}
