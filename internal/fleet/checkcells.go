package fleet

import (
	"encoding/json"

	"repro/internal/check"
)

// CheckRunner adapts the check-package cell space to the fleet worker: the
// cell index alone names the cell (check.CellAt is prefix-stable and O(1)
// in the index), so only the index travels on the wire.
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
