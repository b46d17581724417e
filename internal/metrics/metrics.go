// Package metrics provides the summary statistics the paper's evaluation
// reports: box-plot five-number summaries (median, inter-quartile range,
// 5th/95th-percentile whiskers, maxima) over convergence-time samples, plus
// fixed-width table rendering for the experiment reports.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
	"unicode/utf8"
)

// Summary is a box-plot style five-number summary (plus mean and count) of a
// sample set, mirroring Fig. 5's presentation: the box spans P25–P75, the
// line in the box is the median, whiskers reach P5 and P95, and the number
// printed on top is the maximum.
type Summary struct {
	N      int
	Min    float64
	P5     float64
	P25    float64
	Median float64
	P75    float64
	P95    float64
	P99    float64
	Max    float64
	Mean   float64
}

// Summarize computes a Summary of samples. It does not modify samples.
// Summarize of an empty slice returns the zero Summary.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	// Incremental mean avoids overflow on extreme samples.
	var mean float64
	for i, x := range s {
		mean += (x - mean) / float64(i+1)
	}
	return Summary{
		N:      len(s),
		Min:    s[0],
		P5:     Percentile(s, 0.05),
		P25:    Percentile(s, 0.25),
		Median: Percentile(s, 0.50),
		P75:    Percentile(s, 0.75),
		P95:    Percentile(s, 0.95),
		P99:    Percentile(s, 0.99),
		Max:    s[len(s)-1],
		Mean:   mean,
	}
}

// SummarizeDurations converts durations to seconds and summarizes them.
func SummarizeDurations(ds []time.Duration) Summary {
	samples := make([]float64, len(ds))
	for i, d := range ds {
		samples[i] = d.Seconds()
	}
	return Summarize(samples)
}

// Percentile returns the q-quantile (0 ≤ q ≤ 1) of an ascending-sorted
// sample. It panics if sorted is empty.
//
// The estimator is Hyndman & Fan type 7 (numpy's default, R's
// quantile(type=7)): the quantile sits at continuous rank h = q·(n−1)
// over the order statistics, linearly interpolated between the two
// closest ranks. Consequences worth knowing at the boundaries:
//
//   - q=0 and q=1 are exactly the sample min and max — the estimator
//     never extrapolates beyond the observed range.
//   - Whenever h lands on an integer rank (every quantile of the form
//     k/(n−1)), the result is exactly that order statistic, not an
//     average of neighbours; e.g. the median of an odd-length sample is
//     the middle element bit-for-bit.
//   - For n=1 every quantile is the single sample.
//
// The hi index is clamped as a defence against floating-point rounding
// pushing q·(n−1) past n−1 for q just below 1.
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("metrics: Percentile of empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Seconds formats a duration expressed in seconds with a unit-appropriate
// precision, e.g. "140.9s", "150ms", "375ms", "70µs".
func Seconds(sec float64) string {
	switch {
	case sec >= 10:
		return fmt.Sprintf("%.1fs", sec)
	case sec >= 1:
		return fmt.Sprintf("%.2fs", sec)
	case sec >= 1e-3:
		return fmt.Sprintf("%.0fms", sec*1e3)
	case sec >= 1e-6:
		return fmt.Sprintf("%.0fµs", sec*1e6)
	case sec <= 0:
		return "0"
	default:
		return fmt.Sprintf("%.0fns", sec*1e9)
	}
}

// Table renders rows of strings as a fixed-width text table with a header,
// for harness output that is readable both on a terminal and in
// EXPERIMENTS.md code blocks.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row; cells are formatted with fmt.Sprint.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.Rows = append(t.Rows, row)
}

// Render returns the table as an aligned multi-line string. Column
// widths count runes, not bytes, so cells with multibyte characters
// (the spread columns' en-dashes) stay aligned.
func (t *Table) Render() string {
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); i < len(width) && n > width[i] {
				width[i] = n
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", width[i]-utf8.RuneCountInString(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
