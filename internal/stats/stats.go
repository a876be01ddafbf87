// Package stats provides the small statistics toolkit the evaluation needs:
// sample histograms with percentiles (request latency), mean/normalization
// helpers, and plain-text table rendering for the experiment reports.
package stats

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// Histogram collects float64 samples and answers quantile queries. It keeps
// all samples (the evaluation's request counts are modest). All methods are
// safe for concurrent use: quantile queries sort a cached copy of the
// samples under a mutex instead of reordering them in place, so concurrent
// readers (e.g. two experiment cells rendering the same result) never race.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	sorted  []float64 // cached ascending copy of samples; nil when stale
}

// Add records a sample.
func (h *Histogram) Add(v float64) {
	h.mu.Lock()
	h.samples = append(h.samples, v)
	h.sorted = nil
	h.mu.Unlock()
}

// N returns the sample count.
func (h *Histogram) N() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum() / float64(len(h.samples))
}

// Sum returns the sum of the samples (0 when empty).
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum()
}

// sum adds the samples in insertion order; the caller holds h.mu.
func (h *Histogram) sum() float64 {
	var s float64
	for _, v := range h.samples {
		s += v
	}
	return s
}

// Percentile returns the p-th percentile (p in [0,100]) using the
// nearest-rank method; 0 when empty.
func (h *Histogram) Percentile(p float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	if h.sorted == nil {
		h.sorted = append(make([]float64, 0, len(h.samples)), h.samples...)
		sort.Float64s(h.sorted)
	}
	if p <= 0 {
		return h.sorted[0]
	}
	if p >= 100 {
		return h.sorted[len(h.sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(h.sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return h.sorted[rank]
}

// Median is Percentile(50).
func (h *Histogram) Median() float64 { return h.Percentile(50) }

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() float64 { return h.Percentile(100) }

// Table renders aligned plain-text tables for experiment output.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// RenderCSV writes the table as CSV (for external plotting). The title is
// emitted as a comment line.
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if t.Title != "" {
		fmt.Fprintf(w, "# %s\n", t.Title)
	}
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	if err := cw.WriteAll(t.rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Ratio returns a/b, or 0 when b is 0 — for normalized-to-vanilla columns.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Improvement returns the relative improvement of optimized over baseline
// for a lower-is-better metric, e.g. 0.30 = 30% faster.
func Improvement(baseline, optimized float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - optimized) / baseline
}
