package check

import "testing"

// BenchmarkCheckedCell times the checked path a sweep cell takes —
// RunCellOpts with the invariant checker, VerifyHeap and the postmortem
// analyzer on a bus that keeps no records, then the bare replay — over the
// first 16 cells of the seed-42 space in order, and reports cells/s. The
// cells pass, so none pays for a triage replay. Run it at a
// multiple of 16 iterations (`-benchtime 64x`) so every run does the same
// work.
func BenchmarkCheckedCell(b *testing.B) {
	cells := Cells(42, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := RunCellOpts(cells[i%len(cells)], RunOptions{}); r.Failed() {
			b.Fatal(r.Summary())
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}
