package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Percentile(50) != 0 || h.N() != 0 || h.Sum() != 0 {
		t.Error("empty histogram must return zeros")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		h.Add(v)
	}
	if h.N() != 5 {
		t.Errorf("N = %d, want 5", h.N())
	}
	if h.Mean() != 3 {
		t.Errorf("Mean = %v, want 3", h.Mean())
	}
	if h.Sum() != 15 {
		t.Errorf("Sum = %v, want 15", h.Sum())
	}
	if h.Median() != 3 {
		t.Errorf("Median = %v, want 3", h.Median())
	}
	if h.Max() != 5 {
		t.Errorf("Max = %v, want 5", h.Max())
	}
	if h.Percentile(0) != 1 {
		t.Errorf("P0 = %v, want 1", h.Percentile(0))
	}
	if h.Percentile(100) != 5 {
		t.Errorf("P100 = %v, want 5", h.Percentile(100))
	}
}

func TestHistogramAddAfterQuery(t *testing.T) {
	var h Histogram
	h.Add(10)
	_ = h.Median()
	h.Add(1)
	if h.Median() != 1 {
		t.Errorf("Median after re-add = %v, want 1 (nearest-rank of 2 samples)", h.Median())
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if got := h.Percentile(99); got != 99 {
		t.Errorf("P99 = %v, want 99", got)
	}
	if got := h.Percentile(50); got != 50 {
		t.Errorf("P50 = %v, want 50", got)
	}
	if got := h.Percentile(1); got != 1 {
		t.Errorf("P1 = %v, want 1", got)
	}
}

func TestPercentileMonotonic(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			h.Add(rng.NormFloat64() * 100)
		}
		last := math.Inf(-1)
		for p := 0.0; p <= 100; p += 2.5 {
			v := h.Percentile(p)
			if v < last {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPercentileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var h Histogram
	var vals []float64
	for i := 0; i < 333; i++ {
		v := rng.Float64() * 1000
		h.Add(v)
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	for _, p := range []float64{10, 25, 50, 75, 90, 95, 99, 99.9} {
		rank := int(math.Ceil(p/100*float64(len(vals)))) - 1
		if got := h.Percentile(p); got != vals[rank] {
			t.Errorf("P%v = %v, want %v", p, got, vals[rank])
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Demo", "name", "value", "ratio")
	tab.AddRow("alpha", 42, 0.12345)
	tab.AddRow("beta-long-name", 7, 1.5)
	out := tab.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "0.123") {
		t.Error("float not formatted to 3 decimals")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("rendered %d lines, want 5:\n%s", len(lines), out)
	}
	// Columns aligned: each data line at least as wide as the header line.
	if len(lines[3]) < len("beta-long-name") {
		t.Error("column alignment broken")
	}
}

func TestTableWithoutTitle(t *testing.T) {
	tab := NewTable("", "a")
	tab.AddRow(1)
	if strings.Contains(tab.String(), "==") {
		t.Error("untitled table rendered a title line")
	}
}

func TestRatioAndImprovement(t *testing.T) {
	if Ratio(3, 4) != 0.75 {
		t.Error("Ratio wrong")
	}
	if Ratio(3, 0) != 0 {
		t.Error("Ratio by zero must be 0")
	}
	if got := Improvement(100, 60); got != 0.4 {
		t.Errorf("Improvement(100,60) = %v, want 0.4", got)
	}
	if Improvement(0, 10) != 0 {
		t.Error("Improvement with zero baseline must be 0")
	}
}

func TestRenderCSV(t *testing.T) {
	tab := NewTable("Demo", "name", "value")
	tab.AddRow("a,b", 1) // comma must be quoted
	tab.AddRow("c", 2.5)
	var b strings.Builder
	if err := tab.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "# Demo\n") {
		t.Errorf("missing title comment:\n%s", out)
	}
	if !strings.Contains(out, "name,value") {
		t.Error("missing header row")
	}
	if !strings.Contains(out, `"a,b",1`) {
		t.Errorf("comma cell not quoted:\n%s", out)
	}
}

// TestHistogramConcurrentReads is the -race regression test for the
// in-place sort Percentile used to perform: concurrent quantile queries on
// a shared Histogram must not race with each other or with Mean and Sum.
func TestHistogramConcurrentReads(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 2000; i++ {
		h.Add(float64((i * 7919) % 997))
	}
	want95 := h.Percentile(95)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := h.Percentile(95); got != want95 {
					t.Errorf("concurrent Percentile(95) = %v, want %v", got, want95)
					return
				}
				h.Median()
				h.Mean()
				h.Sum()
				h.Max()
				h.N()
			}
		}()
	}
	wg.Wait()
}

func TestHistogramAddInvalidatesSortedCache(t *testing.T) {
	h := &Histogram{}
	h.Add(5)
	h.Add(9)
	if got := h.Percentile(0); got != 5 {
		t.Fatalf("Percentile(0) = %v, want 5", got)
	}
	h.Add(1) // smaller than everything seen; cache must refresh
	if got := h.Percentile(0); got != 1 {
		t.Errorf("Percentile(0) after Add = %v, want 1", got)
	}
	if got := h.Percentile(100); got != 9 {
		t.Errorf("Percentile(100) = %v, want 9", got)
	}
}
