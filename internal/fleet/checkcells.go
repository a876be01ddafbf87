package fleet

import (
	"encoding/json"

	"repro/internal/check"
)

// RunFunc executes one cell. index names the cell in the sweep's
// prefix-stable space, which derives everything else about it. payload is
// always nil: no cell space carries per-cell data. The returned record's
// Index must equal index.
type RunFunc func(index int, payload json.RawMessage) (CellRecord, error)

// CheckRunner runs cells of the check-package cell space: the cell index
// alone names the cell (check.CellAt is prefix-stable and O(1) in the
// index), so a sweep can run any subset of cells in any order.
func CheckRunner(baseSeed int64, opts check.RunOptions) RunFunc {
	return func(index int, _ json.RawMessage) (CellRecord, error) {
		cell := check.CellAt(baseSeed, index)
		res := check.RunCellOpts(cell, opts)
		return checkRecord(index, res), nil
	}
}

// checkRecord flattens a CellResult into its report row. Every field is a
// deterministic function of the cell (Summary includes the cell string and
// violation text, never timing), which is what the byte-identity oracle
// rides on.
func checkRecord(index int, res *check.CellResult) CellRecord {
	rec := CellRecord{
		Index:      index,
		Digest:     res.Digest,
		Events:     res.Events,
		Violations: res.Total + len(res.BlameViolations),
		Drops:      res.Drops,
		Pathology:  res.Pathology,
	}
	if res.Failed() {
		rec.Failed = true
		rec.Summary = res.Summary()
	}
	return rec
}
