package postmortem

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/stats"
)

// ExportSchema versions the postmortem JSON format.
const ExportSchema = "gcsim-postmortem/v1"

// SumToleranceNs is the permitted |sum(buckets) - pause| slack when
// verifying a report. The decomposition is exact by construction, so the
// tolerance only absorbs event-granularity rounding in hand-built or
// future streams.
const SumToleranceNs = 1000

// Export is the machine-readable postmortem. Field order is fixed so
// repeated marshals of the same run are byte-identical.
type Export struct {
	Schema       string         `json:"schema"`
	Collections  int            `json:"collections"`
	TotalPauseNs int64          `json:"total_pause_ns"`
	Pathology    string         `json:"pathology"`
	BucketNames  []string       `json:"bucket_names"`
	PauseMs      Quantiles      `json:"pause_ms"`
	Buckets      []BucketExport `json:"buckets"`
	Worst        []ReportExport `json:"worst"`
	Reports      []ReportExport `json:"reports"`
}

// Quantiles is one distribution summary in milliseconds.
type Quantiles struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// BucketExport is one bucket's run-level totals.
type BucketExport struct {
	Name    string    `json:"name"`
	TotalNs int64     `json:"total_ns"`
	Share   float64   `json:"share"`
	Ms      Quantiles `json:"ms"`
}

// ReportExport is one collection's blame decomposition. Buckets is
// indexed by the top-level BucketNames order.
type ReportExport struct {
	Engine   int     `json:"engine"`
	Seq      int     `json:"seq"`
	Kind     string  `json:"kind"`
	StartNs  int64   `json:"start_ns"`
	EndNs    int64   `json:"end_ns"`
	PauseNs  int64   `json:"pause_ns"`
	Workers  int     `json:"workers"`
	Buckets  []int64 `json:"buckets"`
	Dominant string  `json:"dominant"`
	SeqLo    uint64  `json:"seq_lo"`
	SeqHi    uint64  `json:"seq_hi"`
}

func quantiles(h *stats.Histogram) Quantiles {
	return Quantiles{
		P50: h.Percentile(50), P95: h.Percentile(95),
		P99: h.Percentile(99), Max: h.Percentile(100),
	}
}

func exportReport(r *PauseReport) ReportExport {
	return ReportExport{
		Engine: r.Engine, Seq: r.Seq, Kind: r.Kind,
		StartNs: r.StartNs, EndNs: r.EndNs, PauseNs: r.PauseNs(),
		Workers: r.Workers, Buckets: append([]int64(nil), r.Buckets[:]...),
		Dominant: r.Dominant().String(), SeqLo: r.SeqLo, SeqHi: r.SeqHi,
	}
}

// Export builds the machine-readable form of the analyzer's results.
func (an *Analyzer) Export() *Export {
	pm := an.Postmortem()
	ex := &Export{
		Schema:       ExportSchema,
		Collections:  pm.Collections,
		TotalPauseNs: pm.TotalPauseNs,
		Pathology:    pm.Pathology,
		BucketNames:  BucketNames(),
		PauseMs:      quantiles(&pm.PauseMs),
		Buckets:      make([]BucketExport, NumBuckets),
		Worst:        make([]ReportExport, 0, len(pm.Worst)),
	}
	for b := Bucket(0); b < NumBuckets; b++ {
		share := 0.0
		if pm.TotalPauseNs > 0 {
			share = float64(pm.Totals[b]) / float64(pm.TotalPauseNs)
		}
		ex.Buckets[b] = BucketExport{
			Name: b.String(), TotalNs: pm.Totals[b], Share: share,
			Ms: quantiles(&pm.BucketMs[b]),
		}
	}
	for i := range pm.Worst {
		ex.Worst = append(ex.Worst, exportReport(&pm.Worst[i]))
	}
	reports := an.Reports()
	ex.Reports = make([]ReportExport, 0, len(reports))
	for i := range reports {
		ex.Reports = append(ex.Reports, exportReport(&reports[i]))
	}
	return ex
}

// WriteJSON writes the export as indented JSON.
func (ex *Export) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ex)
}

// ParseJSON decodes and validates a postmortem export.
func ParseJSON(data []byte) (*Export, error) {
	var ex Export
	if err := json.Unmarshal(data, &ex); err != nil {
		return nil, fmt.Errorf("postmortem: bad JSON: %w", err)
	}
	if ex.Schema != ExportSchema {
		return nil, fmt.Errorf("postmortem: schema %q, want %q", ex.Schema, ExportSchema)
	}
	return &ex, nil
}

// Verify checks the per-report sum invariant: each collection's buckets
// must sum to its pause wall time within SumToleranceNs. Returns the
// violations as error strings (empty = clean).
func (ex *Export) Verify() []string {
	var bad []string
	for i := range ex.Reports {
		r := &ex.Reports[i]
		var sum int64
		for _, v := range r.Buckets {
			sum += v
		}
		diff := sum - r.PauseNs
		if diff < 0 {
			diff = -diff
		}
		if diff > SumToleranceNs {
			bad = append(bad, fmt.Sprintf(
				"engine %d gc %d: buckets sum %d != pause %d (|diff| %d > %d)",
				r.Engine, r.Seq, sum, r.PauseNs, diff, int64(SumToleranceNs)))
		}
	}
	return bad
}

// Compare renders the bucket-attributed delta between two postmortems —
// the observability twin of `benchjson compare`: where did the pause time
// go (or come from) between run a and run b?
func Compare(w io.Writer, labelA string, a *Export, labelB string, b *Export) {
	fmt.Fprintf(w, "postmortem compare: %s -> %s\n", labelA, labelB)
	fmt.Fprintf(w, "  collections: %d -> %d\n", a.Collections, b.Collections)
	dTot := b.TotalPauseNs - a.TotalPauseNs
	fmt.Fprintf(w, "  total pause: %.2fms -> %.2fms (%+.2fms, %+.1f%%)\n",
		float64(a.TotalPauseNs)/1e6, float64(b.TotalPauseNs)/1e6,
		float64(dTot)/1e6, pct(dTot, a.TotalPauseNs))
	fmt.Fprintf(w, "  pause p99: %.3fms -> %.3fms\n", a.PauseMs.P99, b.PauseMs.P99)
	fmt.Fprintf(w, "  per-bucket delta (share of total pause delta):\n")
	for i := range a.Buckets {
		if i >= len(b.Buckets) {
			break
		}
		ba, bb := &a.Buckets[i], &b.Buckets[i]
		d := bb.TotalNs - ba.TotalNs
		attr := 0.0
		if dTot != 0 {
			attr = 100 * float64(d) / float64(dTot)
		}
		fmt.Fprintf(w, "    %-10s %10.2fms -> %10.2fms  %+10.2fms  %6.1f%%\n",
			ba.Name, float64(ba.TotalNs)/1e6, float64(bb.TotalNs)/1e6,
			float64(d)/1e6, attr)
	}
	if a.Pathology != b.Pathology {
		fmt.Fprintf(w, "  pathology changed:\n    %s: %s\n    %s: %s\n",
			labelA, a.Pathology, labelB, b.Pathology)
	} else {
		fmt.Fprintf(w, "  pathology (both): %s\n", a.Pathology)
	}
}

func pct(d, base int64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(d) / float64(base)
}
