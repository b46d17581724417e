package main

import (
	"strings"
	"testing"
	"time"

	"supercharged/internal/core"
	"supercharged/internal/daemon"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	s := make(series, 0, 1000)
	for i := 1; i <= 1000; i++ {
		s.add(float64(i))
	}
	if v, ok := percentile(s, 0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := percentile(s[:999], 0.99); ok {
		t.Fatal("p99 of 999 samples has 9 beyond it and must not be reported")
	}
	if v, ok := percentile(s[:21], 0.5); !ok || v != 11 {
		t.Fatalf("p50 of 1..21 = %v, %v; want 11, true", v, ok)
	}
	if _, ok := percentile(s[:19], 0.5); ok {
		t.Fatal("p50 of 19 samples has 9 beyond it and must not be reported")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("empty series reported a percentile")
	}
}

// small shrinks a workload's default configuration to a quick run that
// still yields enough samples for every reported percentile.
func small(name string, mutate func(*config)) config {
	for _, w := range workloads {
		if w.name == name {
			c := w.cfg
			c.seed, c.timeout = 7, 10*time.Second
			mutate(&c)
			return c
		}
	}
	panic("no workload " + name)
}

// The sizes keep at least 1000 latency samples per repetition, which a
// p99 needs.
var smokeConfigs = map[string]func(*config){
	"serve-load":           func(c *config) { c.prefixes, c.rounds, c.events, c.seconds = 60_000, 3, 3, 0 },
	"serve-churn":          func(c *config) { c.prefixes, c.rate, c.rounds, c.seconds = 20_000, 5_000, 1, 2 },
	"serve-failover":       func(c *config) { c.prefixes, c.rounds, c.seconds = 60_000, 1, 0 },
	"supercharge-failover": func(c *config) { c.prefixes, c.rounds, c.seconds = 60_000, 1, 0 },
}

// Each workload runs once, traced, which exercises every untraced code
// path as well.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := small(w.name, smokeConfigs[w.name])
			cfg.trace = true
			r := w.run(cfg, newTracer(true))
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("%d of %d checks failed", r.failed, r.attempted)
			}
			for _, d := range endToEnd {
				if v := r.e2e[d.name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.name, v)
				}
			}
		})
	}
}

func TestSuperchargeCountsRepeat(t *testing.T) {
	cfg := small("supercharge-failover", func(c *config) { c.prefixes, c.rounds, c.events = 5_000, 1, 3 })
	a, b := runSupercharge(cfg, nil), runSupercharge(cfg, nil)
	for _, m := range []string{"core.engine.rules_rewritten", "core.groups"} {
		if a.layer[m] != b.layer[m] || a.layer[m] <= 0 {
			t.Errorf("%s: %v then %v; want the same positive count", m, a.layer[m], b.layer[m])
		}
	}
	if a.layer["core.groups"] < 2 {
		t.Errorf("only %v backup-groups formed; the per-peer permutations should form several", a.layer["core.groups"])
	}
}

// dropOne is a router sink that loses the first change of the first
// batch it gets during a failover: the only change that prefix gets in
// that event.
type dropOne struct {
	daemon.RouterSink
	e       *serveEnv
	dropped bool
}

func (d *dropOne) Apply(b daemon.Batch) error {
	if !d.dropped && d.e.failing.Load() && len(b.Changes) > 0 {
		b.Changes = b.Changes[1:]
		d.dropped = true
	}
	return d.RouterSink.Apply(b)
}

// The checker must catch a router that silently loses one change.
func TestCheckerCatchesDroppedChange(t *testing.T) {
	cfg := small("serve-load", func(c *config) { c.prefixes, c.rounds, c.events = 5_000, 1, 1 })
	cfg.timeout = 2 * time.Second
	cfg.wrapSink = func(e *serveEnv, r int, s daemon.RouterSink) daemon.RouterSink {
		if r != 0 {
			return s
		}
		return &dropOne{RouterSink: s, e: e}
	}
	r := runServeLoad(cfg, nil)
	if !failedWith(r, "failover: a router kept prefixes on the failed peer") {
		t.Fatalf("a dropped change passed: failures %q", r.failures)
	}
}

// The checker must catch rule retargets that point at the failed peer.
func TestCheckerCatchesBadRetarget(t *testing.T) {
	cfg := small("supercharge-failover", func(c *config) { c.prefixes, c.rounds, c.events = 5_000, 1, 1 })
	cfg.wrapPusher = func(h *superHarness, p core.FlowPusher) core.FlowPusher {
		return core.FlowPusherFunc(func(g core.Group, target core.PeerPort) error {
			if h.down {
				target = h.ports[0] // the failed peer
			}
			return p.PushGroupRule(g, target)
		})
	}
	r := runSupercharge(cfg, nil)
	if !failedWith(r, "still forwards to the failed peer") {
		t.Fatalf("retargets at the failed peer passed: failures %q", r.failures)
	}
}

func failedWith(r *report, what string) bool {
	for _, f := range r.failures {
		if strings.Contains(f, what) {
			return true
		}
	}
	return false
}
