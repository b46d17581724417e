package sim

import (
	"context"
	"math"
	"testing"
	"time"

	"supercharged/internal/metrics"
)

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestStandaloneConvergenceIsLinear(t *testing.T) {
	// The paper's core baseline behaviour: worst-case convergence grows
	// linearly with the prefix count (≈ fixed + N × perEntry).
	resSmall := run(t, Config{Mode: Standalone, NumPrefixes: 1000, Seed: 1})
	resBig := run(t, Config{Mode: Standalone, NumPrefixes: 10000, Seed: 1})

	maxSmall := metrics.SummarizeDurations(resSmall.Durations()).Max
	maxBig := metrics.SummarizeDurations(resBig.Durations()).Max

	// Slope check: (maxBig-maxSmall)/(9000 entries) ≈ 280µs within 20%.
	slope := (maxBig - maxSmall) / 9000
	if slope < 0.000280*0.8 || slope > 0.000280*1.2 {
		t.Fatalf("per-entry slope %.0fµs, want ≈280µs", slope*1e6)
	}
}

func TestStandaloneWorstCaseMatchesPaperShape(t *testing.T) {
	res := run(t, Config{Mode: Standalone, NumPrefixes: 1000, Seed: 1})
	s := metrics.SummarizeDurations(res.Durations())
	// Paper @1k: max 0.9s. Ours must land in the same regime (0.4–1.2s).
	if s.Max < 0.4 || s.Max > 1.2 {
		t.Fatalf("1k worst case %.3fs outside [0.4,1.2]", s.Max)
	}
	// Best case must reflect detection+ctl+first entry (paper: 375 ms).
	if s.Min < 0.3 || s.Min > 0.8 {
		t.Fatalf("1k best case %.3fs outside [0.3,0.8]", s.Min)
	}
	if len(res.Flows) != 100 {
		t.Fatalf("flows %d", len(res.Flows))
	}
}

func TestFirstEntryMatchesPaperRegime(t *testing.T) {
	// E2: the standalone best case — the first FIB entry rewritten — is
	// 375 ms in the paper. Ours: detection 90 ms + control plane 285 ms +
	// jitter ≥ 375 ms, bounded above by jitter and quantization.
	best := time.Duration(math.MaxInt64)
	for seed := int64(1); seed <= 3; seed++ {
		res := run(t, Config{Mode: Standalone, NumPrefixes: 1000, Seed: seed})
		for _, d := range res.Durations() {
			best = min(best, d)
		}
	}
	if best < 350*time.Millisecond || best > 700*time.Millisecond {
		t.Fatalf("first-entry best case %v outside the paper's regime", best)
	}
}

func TestSuperchargedIsFlatAndFast(t *testing.T) {
	// Fig. 5's headline: supercharged convergence is ~150 ms regardless
	// of the number of prefixes.
	var maxes []float64
	for _, n := range []int{1000, 10000, 50000} {
		res := run(t, Config{Mode: Supercharged, NumPrefixes: n, Seed: 1})
		s := metrics.SummarizeDurations(res.Durations())
		if s.Max > 0.160 {
			t.Fatalf("supercharged @%d max %.3fs exceeds 160ms", n, s.Max)
		}
		if s.Min < 0.050 {
			t.Fatalf("supercharged @%d min %.3fs suspiciously small", n, s.Min)
		}
		maxes = append(maxes, s.Max)
	}
	// Flat: spread across sizes within one flow-mod latency.
	spread := maxes[len(maxes)-1] - maxes[0]
	if spread < 0 {
		spread = -spread
	}
	if spread > 0.030 {
		t.Fatalf("supercharged spread %.3fs across sizes; not flat", spread)
	}
}

func TestSuperchargedSingleGroupSingleRewrite(t *testing.T) {
	// Two providers, full shared table: exactly one backup-group and one
	// rule rewrite on failure (Fig. 2's "only one entry needs to update").
	res := run(t, Config{Mode: Supercharged, NumPrefixes: 2000, Seed: 3})
	if res.Groups != 1 {
		t.Fatalf("groups %d, want 1", res.Groups)
	}
	if res.RuleRewrites != 1 {
		t.Fatalf("rewrites %d, want 1", res.RuleRewrites)
	}
}

// bfdIntervals are ablation A3's BFD transmit intervals; the default
// 30 ms gives the paper's 90 ms detection.
var bfdIntervals = []time.Duration{10 * time.Millisecond, 30 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond}

func TestDetectionTimeIsBFD(t *testing.T) {
	for _, iv := range bfdIntervals {
		res := run(t, Config{Mode: Supercharged, NumPrefixes: 1000, Seed: 1, BFDInterval: iv})
		if want := 3 * iv; res.DetectAt != want { // default BFDMult 3
			t.Fatalf("interval %v: detected at %v, want %v", iv, res.DetectAt, want)
		}
	}
}

func TestBFDSweepMonotone(t *testing.T) {
	// Ablation A3: the supercharged worst case grows with the BFD
	// interval, since detection is the largest share of its ~130 ms.
	var prevMax time.Duration
	for _, iv := range bfdIntervals {
		res := run(t, Config{Mode: Supercharged, NumPrefixes: 1000, Seed: 1, BFDInterval: iv})
		worst := time.Duration(metrics.SummarizeDurations(res.Durations()).Max * float64(time.Second))
		if worst < prevMax {
			t.Fatalf("interval %v: max convergence %v below the shorter interval's %v", iv, worst, prevMax)
		}
		prevMax = worst
	}
}

func TestControlPlaneLagsDataPlaneWhenSupercharged(t *testing.T) {
	// The insight of the paper: data plane converges in ~150ms while the
	// router's FIB walk (control plane) takes its usual slow pace.
	res := run(t, Config{Mode: Supercharged, NumPrefixes: 20000, Seed: 1})
	if res.DataPlaneDone > 200*time.Millisecond {
		t.Fatalf("data plane %v", res.DataPlaneDone)
	}
	// 20000 entries × 280µs ≈ 5.6s of FIB walking afterwards.
	if res.ControlPlaneDone < 3*time.Second {
		t.Fatalf("control plane done after only %v — FIB walk missing", res.ControlPlaneDone)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	a := run(t, Config{Mode: Standalone, NumPrefixes: 2000, Seed: 99})
	b := run(t, Config{Mode: Standalone, NumPrefixes: 2000, Seed: 99})
	if len(a.Flows) != len(b.Flows) {
		t.Fatal("flow count differs")
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			t.Fatalf("flow %d differs: %+v vs %+v", i, a.Flows[i], b.Flows[i])
		}
	}
}

func TestSeedChangesJitter(t *testing.T) {
	a := run(t, Config{Mode: Standalone, NumPrefixes: 1000, Seed: 1})
	b := run(t, Config{Mode: Standalone, NumPrefixes: 1000, Seed: 2})
	sa := metrics.SummarizeDurations(a.Durations())
	sb := metrics.SummarizeDurations(b.Durations())
	if sa.Min == sb.Min && sa.Max == sb.Max {
		t.Fatal("different seeds produced identical distributions")
	}
}

func TestConvergencePositionCorrelation(t *testing.T) {
	// In the standalone router, a flow's convergence is ordered by its
	// prefix's FIB position — the entry-by-entry walk made visible.
	res := run(t, Config{Mode: Standalone, NumPrefixes: 5000, Seed: 5})
	flows := res.Flows
	for i := 0; i < len(flows); i++ {
		for j := 0; j < len(flows); j++ {
			if flows[i].Position < flows[j].Position && flows[i].Convergence > flows[j].Convergence {
				t.Fatalf("position %d converged after position %d",
					flows[i].Position, flows[j].Position)
			}
		}
	}
}

// doubleFailure runs ablation A2's script with backup groups of size k:
// three providers; the primary fails at 1 s, then the first backup 500 ms
// later.
func doubleFailure(t *testing.T, k int) *TimelineResult {
	t.Helper()
	res, err := RunTimeline(context.Background(), TimelineConfig{
		Config: Config{Mode: Supercharged, NumPrefixes: 1000, Seed: 1, GroupSize: k},
		Peers:  []PeerSpec{{Name: "R2"}, {Name: "R3"}, {Name: "R4"}},
		Events: []TimelineEvent{
			{At: time.Second, Kind: EventPeerDown, Peer: "R2"},
			{At: 1500 * time.Millisecond, Kind: EventPeerDown, Peer: "R3"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGroupSize3SurvivesDoubleFailure(t *testing.T) {
	// Ablation A2: k=3 with 3 providers; primary fails, then the first
	// backup fails 500ms later; flows recover both times.
	res := doubleFailure(t, 3)
	first := res.Events[0]
	if first.Affected != 100 || first.Recovered != 100 {
		t.Fatalf("first failure: affected %d recovered %d, want 100/100", first.Affected, first.Recovered)
	}
	s := metrics.SummarizeDurations(first.Convergence)
	// First-failure convergence still fast — and strictly positive (a
	// second failure must never shift a measured flow's window).
	if s.Max > 0.160 {
		t.Fatalf("first failover max %.3fs", s.Max)
	}
	if s.Min <= 0 {
		t.Fatalf("non-positive convergence %.3fs after double failure", s.Min)
	}
	for _, ev := range res.Events {
		if ev.Unrecovered != 0 {
			t.Fatalf("event %d (%s %s): %d flows never recovered", ev.Index, ev.Kind, ev.Peer, ev.Unrecovered)
		}
	}
	if res.RuleRewrites < 2 {
		t.Fatalf("rewrites %d, want ≥2 (both failures)", res.RuleRewrites)
	}
}

func TestK3Ablation(t *testing.T) {
	// A2's point: with k=3 the second failure is a rule rewrite too, as
	// fast as the first. With k=2 the group has no second backup, so some
	// flows wait for the router's control plane.
	k3, k2 := doubleFailure(t, 3), doubleFailure(t, 2)
	second3 := metrics.SummarizeDurations(k3.Events[1].Convergence)
	second2 := metrics.SummarizeDurations(k2.Events[1].Convergence)
	if second3.Max > 0.160 {
		t.Fatalf("k=3 second failover max %.3fs", second3.Max)
	}
	if second2.Max <= second3.Max {
		t.Fatalf("k=2 second failover max %.3fs not above k=3's %.3fs", second2.Max, second3.Max)
	}
	if k3.RuleRewrites <= k2.RuleRewrites {
		t.Fatalf("k=3 rewrites %d, k=2 %d: k=3 must rewrite more rules", k3.RuleRewrites, k2.RuleRewrites)
	}
}

func TestProbeQuantizationRespectsInterval(t *testing.T) {
	res := run(t, Config{Mode: Supercharged, NumPrefixes: 1000, Seed: 1})
	iv := 70 * time.Microsecond
	for _, f := range res.Flows {
		if f.Convergence%iv != 0 {
			t.Fatalf("convergence %v not quantized to %v", f.Convergence, iv)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{Mode: Standalone, NumPrefixes: 0}); err == nil {
		t.Fatal("accepted zero prefixes")
	}
	if _, err := Run(context.Background(), Config{Mode: Standalone, NumPrefixes: 10, Cost: ControllerCost{Base: -1}}); err == nil {
		t.Fatal("accepted a negative controller cost")
	}
}

func TestImprovementFactorAtScale(t *testing.T) {
	// E5: the paper reports 900× at 512k. At 50k (kept CI-friendly) the
	// factor must already exceed ~80×.
	std := run(t, Config{Mode: Standalone, NumPrefixes: 50000, Seed: 1})
	sup := run(t, Config{Mode: Supercharged, NumPrefixes: 50000, Seed: 1})
	f := metrics.SummarizeDurations(std.Durations()).Max / metrics.SummarizeDurations(sup.Durations()).Max
	if f < 80 {
		t.Fatalf("improvement factor %.0f× too small", f)
	}
}

func TestFig5ShapeOnReducedSweep(t *testing.T) {
	// Fig. 5 on a reduced sweep, two runs of 50 flows per cell: the
	// standalone maxima grow with the table, the supercharged ones stay
	// flat, and at the largest size every supercharged flow beats every
	// standalone one.
	sizes := []int{1000, 5000, 10000}
	cell := func(mode Mode, n int) metrics.Summary {
		var samples []float64
		for r := int64(0); r < 2; r++ {
			res := run(t, Config{Mode: mode, NumPrefixes: n, NumFlows: 50, Seed: 3 + r*7919})
			for _, d := range res.Durations() {
				samples = append(samples, d.Seconds())
			}
		}
		return metrics.Summarize(samples)
	}
	var std, sup metrics.Summary
	prevMax := 0.0
	for _, n := range sizes {
		std, sup = cell(Standalone, n), cell(Supercharged, n)
		if std.Max <= prevMax {
			t.Fatalf("standalone max %.3fs @%d not above %.3fs at the smaller size", std.Max, n, prevMax)
		}
		prevMax = std.Max
		if sup.Max > 0.160 {
			t.Fatalf("supercharged max %.3fs @%d", sup.Max, n)
		}
	}
	if sup.Max >= std.Min {
		t.Fatalf("no crossover at %d: supercharged max %.3fs, standalone min %.3fs", sizes[len(sizes)-1], sup.Max, std.Min)
	}
	if f := std.Max / sup.Max; f < 10 {
		t.Fatalf("improvement factor %.1f too small even at 10k", f)
	}
}

func BenchmarkSimStandalone10k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), Config{Mode: Standalone, NumPrefixes: 10000, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimSupercharged10k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), Config{Mode: Supercharged, NumPrefixes: 10000, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
