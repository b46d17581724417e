package supercharged

// Benchmarks of the paper's headline experiment (§4, Fig. 5) on the
// convergence lab. Absolute numbers come from the simulated substrate
// (see DESIGN.md §1); the asserted artifacts are the shapes — linear vs
// flat, improvement factor.
//
// Run with: go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"testing"

	"supercharged/internal/metrics"
	"supercharged/internal/sim"
)

// BenchmarkFig5 regenerates Fig. 5 cell by cell over the paper's
// 1k..500k sweep: per prefix count and mode, one lab run per iteration.
// Custom metrics report the measured convergence distribution alongside
// the paper's reference maxima (the non-supercharged numbers printed on
// top of its box plots; a flat 150 ms bound when supercharged).
func BenchmarkFig5(b *testing.B) {
	paperMax := map[int]float64{
		1_000: 0.9, 5_000: 1.6, 10_000: 3.4, 50_000: 13.8, 100_000: 29.2,
		200_000: 56.9, 300_000: 86.4, 400_000: 113.1, 500_000: 140.9,
	}
	for _, n := range []int{1_000, 5_000, 10_000, 50_000, 100_000, 200_000, 300_000, 400_000, 500_000} {
		for _, mode := range []sim.Mode{sim.Standalone, sim.Supercharged} {
			name := fmt.Sprintf("%s/prefixes=%d", mode, n)
			b.Run(name, func(b *testing.B) {
				var last metrics.Summary
				for i := 0; i < b.N; i++ {
					res, err := sim.Run(context.Background(), sim.Config{Mode: mode, NumPrefixes: n, Seed: int64(i + 1)})
					if err != nil {
						b.Fatal(err)
					}
					last = metrics.SummarizeDurations(res.Durations())
				}
				b.ReportMetric(last.Median, "median-s")
				b.ReportMetric(last.Max, "max-s")
				if mode == sim.Standalone {
					b.ReportMetric(paperMax[n], "paper-max-s")
				} else {
					b.ReportMetric(0.150, "paper-max-s")
				}
			})
		}
	}
}

// BenchmarkImprovementFactor regenerates E5: the headline speed-up at the
// largest table size the bench budget allows per iteration (50k; the
// paper reports 900× at 512k, and `cmd/scenario sweep paper-fig5-xl`
// measures it at 1M).
func BenchmarkImprovementFactor(b *testing.B) {
	var factor float64
	for i := 0; i < b.N; i++ {
		std, err := sim.Run(context.Background(), sim.Config{Mode: sim.Standalone, NumPrefixes: 50_000, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		sup, err := sim.Run(context.Background(), sim.Config{Mode: sim.Supercharged, NumPrefixes: 50_000, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		factor = metrics.SummarizeDurations(std.Durations()).Max /
			metrics.SummarizeDurations(sup.Durations()).Max
	}
	b.ReportMetric(factor, "x-improvement@50k")
	b.ReportMetric(900, "paper-x@512k")
}
