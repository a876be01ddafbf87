package check

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/evtrace"
	"repro/internal/jvm"
	"repro/internal/workload"
)

// TestCheckerOnRealRun: a full optimized-configuration simulation with the
// checker attached satisfies every invariant end to end.
func TestCheckerOnRealRun(t *testing.T) {
	p := workload.Lusearch()
	p.TotalItems = 1500
	tr := evtrace.New(0)
	ck := New()
	ck.Attach(tr)
	cfg := jvm.Config{Profile: p, Mutators: 8, GCThreads: 8}
	if _, err := jvm.Run(jvm.RunSpec{Config: cfg.WithOptimizations(), Seed: 7, EvTracer: tr}); err != nil {
		t.Fatal(err)
	}
	ck.Finish()
	if err := ck.Err(); err != nil {
		t.Fatalf("%v\nfull report:\n%s", err, ck.Report())
	}
	if ck.EventsSeen() == 0 {
		t.Fatal("checker saw no events; subscription broken")
	}
}

// TestSweepSmoke runs the head of the default sweep — the same cells
// `make check-invariants` and cmd/simcheck cover — and requires every cell
// clean: no invariant violations, and byte-identical checked/bare replays.
func TestSweepSmoke(t *testing.T) {
	n := 8
	if testing.Short() {
		n = 3
	}
	for _, cell := range Cells(42, n) {
		r := RunCell(cell)
		if r.Failed() {
			t.Errorf("%s", r.Summary())
		}
	}
}

// TestDigestStableAcrossRepeatedRuns: the sweep digest — the same encoding
// the gcsimd response cache hashes — must be byte-stable: digesting one
// cell's results repeatedly, and re-running the same cell from scratch,
// always yields the identical hex string. Any map-iteration order leaking
// into the digested encoding would flake this test.
func TestDigestStableAcrossRepeatedRuns(t *testing.T) {
	cell := Cells(42, 1)[0]
	results, err := runCellOnce(cell, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := digestResults(results)
	for i := 0; i < 10; i++ {
		if got := digestResults(results); got != want {
			t.Fatalf("repeated digest of one result set differs: %s != %s", got, want)
		}
	}
	rerun, err := runCellOnce(cell, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := digestResults(rerun); got != want {
		t.Fatalf("fresh replay digest differs: %s != %s", got, want)
	}
}

// TestSweepDigestsMatchFixture pins the checked-run digest of the first 16
// cells of the seed-42 sweep to testdata/sweep_digests_seed42.txt. A
// refactor that claims to leave simulated behaviour unchanged must leave
// every line of that file unchanged; a deliberate behaviour change updates
// the file in the same commit and says why.
func TestSweepDigestsMatchFixture(t *testing.T) {
	want, err := os.ReadFile("testdata/sweep_digests_seed42.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, cell := range Cells(42, 16) {
		r := RunCellOpts(cell, RunOptions{SkipBare: true})
		if r.Failed() {
			t.Errorf("%s", r.Summary())
		}
		fmt.Fprintf(&got, "%d %s\n", cell.Index, r.Digest)
	}
	if got.String() != string(want) {
		t.Errorf("sweep digests diverged from the fixture:\ngot:\n%swant:\n%s", got.String(), want)
	}
}

// TestCellsPrefixStable: cell i must not depend on the sweep length, so a
// short smoke sweep covers a prefix of the full one and any failure
// reproduces with "-cells index+1".
func TestCellsPrefixStable(t *testing.T) {
	long, short := Cells(42, 32), Cells(42, 8)
	for i := range short {
		if long[i] != short[i] {
			t.Fatalf("cell %d differs between n=8 and n=32:\n  %s\n  %s", i, short[i], long[i])
		}
	}
	if Cells(43, 1)[0] == Cells(42, 1)[0] {
		t.Fatal("different base seeds produced identical cells")
	}
}

// TestWriteViolationWindow: the pre-violation export is valid trace-event
// JSON containing only the window's events.
func TestWriteViolationWindow(t *testing.T) {
	tr := evtrace.New(0)
	ck := New()
	ck.Attach(tr)
	for i := 0; i < 100; i++ {
		tr.Emit(evtrace.Event{Kind: evtrace.KPreempt, At: int64(i), Core: 0, TID: 1})
	}
	// Seed a violation at seq 101.
	tr.Emit(evtrace.Event{Kind: evtrace.KLockRelease, At: 100, Core: -1, TID: 1, Name: "L"})
	if ck.Total() != 1 {
		t.Fatalf("expected exactly one seeded violation, got %d", ck.Total())
	}
	v := ck.Violations()[0]
	var buf bytes.Buffer
	if err := WriteViolationWindow(&buf, tr, v, 10); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("window is not valid JSON: %v", err)
	}
	instants := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "i" {
			instants++
		}
	}
	// 10 seqs of context + the violation event itself.
	if instants != 11 {
		t.Errorf("window holds %d instants, want 11 (10 context + violation)", instants)
	}
}

// TestReplayWindowMatchesRetainedRun: the triage replay of a cell exports
// byte-identically the window a checked run on retained rings would have,
// both for a violation in mid-run and for a Finish-time one (Seq 0, which
// exports the whole run).
func TestReplayWindowMatchesRetainedRun(t *testing.T) {
	cell := CellAt(42, 0)
	retained := evtrace.New(0)
	ck := New()
	ck.Attach(retained)
	if _, err := runCellOnce(cell, 0, retained, nil); err != nil {
		t.Fatal(err)
	}
	ck.Finish()
	if ck.Total() != 0 || len(retained.Drops()) != 0 {
		t.Fatalf("retained run: %d violations, drops %v; want a clean, complete run", ck.Total(), retained.Drops())
	}

	res := &CellResult{Cell: cell}
	res.Triage()
	if res.Drops != 0 {
		t.Fatalf("triage replay dropped %d events", res.Drops)
	}
	if got, want := res.Tracer.Len(), retained.Len(); got != want {
		t.Fatalf("replay retained %d events, checked run %d", got, want)
	}
	for _, v := range []Violation{
		{Inv: "synthetic", Seq: uint64(retained.Len()) / 2},
		{Inv: "synthetic-finish"},
	} {
		var want, got bytes.Buffer
		if err := WriteViolationWindow(&want, retained, v, 0); err != nil {
			t.Fatal(err)
		}
		if err := WriteViolationWindow(&got, res.Tracer, v, 0); err != nil {
			t.Fatal(err)
		}
		if want.Len() < 1000 || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("seq %d: replay window (%d bytes) differs from the retained run's (%d bytes)",
				v.Seq, got.Len(), want.Len())
		}
	}
}
