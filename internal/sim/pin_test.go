package sim_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"supercharged/internal/scenario"
	"supercharged/internal/sim"
)

// paperFig5Timeline compiles the paper-fig5 builtin for one (mode, size,
// seed) cell the way the scenario engine does: the calibrated defaults
// plus the spec's peers and events. The spec sets no other knob, which
// the test checks so that a new one cannot slip past the pin.
func paperFig5Timeline(t *testing.T, mode sim.Mode, n int, seed int64) sim.TimelineConfig {
	t.Helper()
	spec, ok := scenario.Lookup("paper-fig5")
	if !ok {
		t.Fatal("paper-fig5 not registered")
	}
	if spec.Flows != 0 || spec.GroupSize != 0 || spec.HoldTimer != 0 || spec.Cost != nil ||
		spec.Replicas != 0 || spec.Takeover != 0 || spec.Durable || len(spec.Routers) != 0 || spec.Table != "" {
		t.Fatalf("paper-fig5 sets knobs beyond peers and events: %+v", spec)
	}
	cfg := sim.TimelineConfig{Config: sim.DefaultConfig(mode, n)}
	cfg.Seed = seed
	for _, p := range spec.Peers {
		cfg.Peers = append(cfg.Peers, sim.PeerSpec{Name: p.Name, Weight: p.Weight, Prefixes: p.Prefixes, Offset: p.Offset})
	}
	for _, e := range spec.Events {
		cfg.Events = append(cfg.Events, sim.TimelineEvent{
			At: e.At, Kind: e.Kind, Peer: e.Peer, Peers: e.Peers, Hold: e.Hold,
			Fraction: e.Fraction, Detection: e.Detection, Graceful: e.Graceful, Rate: e.Rate,
		})
	}
	return cfg
}

// TestRunMatchesPaperFig5Timeline pins sim.Run to the scenario engine's
// paper-fig5 builtin: the same per-flow convergence, detection, groups and
// rule rewrites, with the control plane done Elapsed − FailAt after the
// failure (FailAt being the event's time).
func TestRunMatchesPaperFig5Timeline(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []sim.Mode{sim.Standalone, sim.Supercharged} {
		for _, n := range []int{1000, 10_000} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/%d/seed%d", mode, n, seed), func(t *testing.T) {
					res, err := sim.Run(ctx, sim.Config{Mode: mode, NumPrefixes: n, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					cfg := paperFig5Timeline(t, mode, n, seed)
					tl, err := sim.RunTimeline(ctx, cfg)
					if err != nil {
						t.Fatal(err)
					}
					ev := tl.Events[0]
					if !slices.Equal(res.Durations(), ev.Convergence) {
						t.Fatalf("per-flow convergence differs:\nRun      %v\nTimeline %v", res.Durations(), ev.Convergence)
					}
					if res.DetectAt != ev.DetectAt {
						t.Fatalf("DetectAt: Run %v, timeline %v", res.DetectAt, ev.DetectAt)
					}
					if res.Groups != tl.Groups || res.RuleRewrites != tl.RuleRewrites {
						t.Fatalf("groups/rewrites: Run %d/%d, timeline %d/%d",
							res.Groups, res.RuleRewrites, tl.Groups, tl.RuleRewrites)
					}
					if want := tl.Elapsed - ev.At; res.ControlPlaneDone != want {
						t.Fatalf("ControlPlaneDone %v, want Elapsed − FailAt = %v", res.ControlPlaneDone, want)
					}
				})
			}
		}
	}
}
