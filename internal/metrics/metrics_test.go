package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarizeSimple(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Fatalf("unexpected summary %+v", s)
	}
	if s.P25 != 2 || s.P75 != 4 {
		t.Fatalf("quartiles %v/%v, want 2/4", s.P25, s.P75)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Max != 0 {
		t.Fatalf("empty summary = %+v, want zero", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestPercentileBounds(t *testing.T) {
	s := []float64{10, 20, 30, 40}
	if Percentile(s, 0) != 10 || Percentile(s, 1) != 40 {
		t.Fatal("extreme quantiles must be min/max")
	}
	if got := Percentile(s, 0.5); got != 25 {
		t.Fatalf("median of 10..40 = %v, want 25 (interpolated)", got)
	}
}

// The HF-7 estimator hits order statistics exactly whenever the
// continuous rank q·(n−1) is an integer — no neighbour averaging at
// those points, and no extrapolation past the sample at the extremes.
func TestPercentileBoundaryExactness(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for i, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := Percentile(s, q); got != s[i] {
			t.Errorf("Percentile(q=%v) = %v, want exact order statistic %v", q, got, s[i])
		}
	}
	// Single sample: every quantile is that sample.
	one := []float64{42}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
		if got := Percentile(one, q); got != 42 {
			t.Errorf("Percentile([42], %v) = %v, want 42", q, got)
		}
	}
	// q just below 1 must stay within the sample even when rounding
	// pushes q·(n−1) against the top rank.
	under := math.Nextafter(1, 0)
	if got := Percentile(s, under); got < s[3] || got > s[4] {
		t.Errorf("Percentile(q=1-ulp) = %v, outside [%v, %v]", got, s[3], s[4])
	}
	// Two samples: q=0.5 is the midpoint, the simplest interpolation.
	if got := Percentile([]float64{1, 3}, 0.5); got != 2 {
		t.Errorf("Percentile([1 3], 0.5) = %v, want 2", got)
	}
}

func TestPercentilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty sample")
		}
	}()
	Percentile(nil, 0.5)
}

// Property: for any sample set, summary invariants hold:
// min ≤ p5 ≤ p25 ≤ median ≤ p75 ≤ p95 ≤ p99 ≤ max, and mean within [min,max].
func TestSummaryInvariantsQuick(t *testing.T) {
	f := func(raw []float64) bool {
		samples := raw[:0]
		for _, x := range raw {
			// Restrict to a physically plausible measurement range;
			// float64 extremes overflow any mean computation.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				samples = append(samples, x)
			}
		}
		if len(samples) == 0 {
			return true
		}
		s := Summarize(samples)
		ordered := sort.Float64sAreSorted([]float64{s.Min, s.P5, s.P25, s.Median, s.P75, s.P95, s.P99, s.Max})
		meanOK := s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9
		return ordered && meanOK && s.N == len(samples)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotonic in q.
func TestPercentileMonotonicQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(100)
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.NormFloat64() * 100
		}
		sort.Float64s(s)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.01 {
			v := Percentile(s, q)
			if v < prev-1e-9 {
				t.Fatalf("percentile not monotonic at q=%v: %v < %v", q, v, prev)
			}
			prev = v
		}
	}
}

func TestSummarizeDurations(t *testing.T) {
	s := SummarizeDurations([]time.Duration{time.Second, 3 * time.Second})
	if s.Min != 1 || s.Max != 3 || s.Mean != 2 {
		t.Fatalf("duration summary %+v", s)
	}
}

func TestSecondsFormatting(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{140.9, "140.9s"},
		{1.6, "1.60s"},
		{0.150, "150ms"},
		{0.000070, "70µs"},
		{0, "0"},
		{2e-9, "2ns"},
	}
	for _, c := range cases {
		if got := Seconds(c.in); got != c.want {
			t.Errorf("Seconds(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{Header: []string{"prefixes", "mode", "max"}}
	tbl.Add(1000, "standalone", "0.9s")
	tbl.Add(500000, "supercharged", "150ms")
	out := tbl.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "prefixes") {
		t.Fatalf("header line %q", lines[0])
	}
	if !strings.Contains(lines[3], "supercharged") || !strings.Contains(lines[3], "150ms") {
		t.Fatalf("row line %q", lines[3])
	}
	// Columns must be aligned: "mode" column starts at the same offset.
	idx := strings.Index(lines[0], "mode")
	if !strings.HasPrefix(lines[2][idx:], "standalone") {
		t.Fatalf("misaligned columns:\n%s", out)
	}
}
