// Package fleet holds the sweep report: the gcsim-sweep/v1 format
// (BuildReport), its per-cell rows (CellRecord), and the runner for the
// check-package cell space (CheckRunner). Every row is a pure function of
// its cell index, so the report is byte-identical however many cells ran
// at once and in whatever order they finished; cmd/sweepd's determinism
// oracle compares those bytes.
package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ReportSchema names the merged sweep report format.
const ReportSchema = "gcsim-sweep/v1"

// Report is the merged, machine-readable result of one sweep. It is a
// pure function of the sweep definition (base seed, cell count, items)
// and the per-cell records — byte-identical however the sweep was
// executed. Execution facts (job count, wall time) are deliberately
// absent; they go to stderr.
type Report struct {
	Schema   string `json:"schema"`
	BaseSeed int64  `json:"base_seed"`
	Cells    int    `json:"cells"`
	Items    int    `json:"items,omitempty"`
	Bare     bool   `json:"bare,omitempty"` // bare-metal replay digests included

	// Partial is the number of recorded cells when the sweep was drained
	// before completion, zero included; omitted (nil) for a full sweep.
	Partial *int `json:"partial,omitempty"`

	Failed     int    `json:"failed"`
	Events     uint64 `json:"events"`
	Violations int    `json:"violations"`
	Drops      uint64 `json:"drops"`

	// Pathologies counts cells per postmortem classifier verdict,
	// serialized with sorted keys (json.Marshal sorts map keys).
	Pathologies map[string]int `json:"pathologies,omitempty"`

	// SweepDigest is sha256 over "index:digest\n" lines in index order —
	// one line summarizing the whole sweep, comparable across runs.
	SweepDigest string `json:"sweep_digest"`

	Rows []CellRecord `json:"rows"`
}

// BuildReport folds an index-sorted record slice into a Report.
// full is the intended cell count; when fewer records exist the report is
// marked Partial.
func BuildReport(baseSeed int64, full, items int, bare bool, records []CellRecord) *Report {
	rep := &Report{
		Schema:   ReportSchema,
		BaseSeed: baseSeed,
		Cells:    full,
		Items:    items,
		Bare:     bare,
		Rows:     records,
	}
	if len(records) < full {
		n := len(records)
		rep.Partial = &n
	}
	h := sha256.New()
	for _, r := range records {
		fmt.Fprintf(h, "%d:%s\n", r.Index, r.Digest)
		rep.Events += r.Events
		rep.Violations += r.Violations
		rep.Drops += r.Drops
		if r.Failed {
			rep.Failed++
		}
		if r.Pathology != "" {
			if rep.Pathologies == nil {
				rep.Pathologies = make(map[string]int)
			}
			rep.Pathologies[r.Pathology]++
		}
	}
	rep.SweepDigest = hex.EncodeToString(h.Sum(nil))
	return rep
}

// CellRecord is one cell's report row. Every field is a deterministic
// function of the cell index (and the sweep's fixed configuration), never
// of which goroutine ran it or when: that is what makes the report
// byte-identical across job counts.
type CellRecord struct {
	Index int `json:"index"`

	// Digest is the cell's observable-output digest.
	Digest string `json:"digest,omitempty"`

	Events     uint64 `json:"events,omitempty"`
	Violations int    `json:"violations,omitempty"`
	Drops      uint64 `json:"drops,omitempty"`
	Pathology  string `json:"pathology,omitempty"`

	Failed  bool   `json:"failed,omitempty"`
	Summary string `json:"summary,omitempty"`
}

// WriteJSON writes the report as indented JSON with a trailing newline —
// the exact bytes the determinism oracle compares.
func (rep *Report) WriteJSON(w io.Writer) error {
	// Rows are required sorted; enforce rather than trust.
	sort.Slice(rep.Rows, func(i, j int) bool { return rep.Rows[i].Index < rep.Rows[j].Index })
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
