package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/fleet"
)

// sweepOut runs realMain with the report written to a temp file and
// returns the exit code, the report bytes and stderr.
func sweepOut(t *testing.T, ctx context.Context, newRun func(int64, check.RunOptions) fleet.RunFunc, args ...string) (int, []byte, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	var stderr bytes.Buffer
	code := realMain(ctx, append(args, "-out", path), &stderr, newRun)
	rep, err := os.ReadFile(path)
	if err != nil && code != 2 {
		t.Fatalf("report not written (exit %d): %v\nstderr:\n%s", code, err, stderr.String())
	}
	return code, rep, stderr.String()
}

// fakeRun builds cells whose digest is a pure function of the index;
// onCell, if set, runs first.
func fakeRun(onCell func(int)) func(int64, check.RunOptions) fleet.RunFunc {
	return func(int64, check.RunOptions) fleet.RunFunc {
		return func(i int, _ json.RawMessage) (fleet.CellRecord, error) {
			if onCell != nil {
				onCell(i)
			}
			return fleet.CellRecord{Index: i, Digest: fmt.Sprintf("d%d", i), Events: uint64(i)}, nil
		}
	}
}

// TestCleanSweepExitsZero runs a tiny clean sweep through realMain.
func TestCleanSweepExitsZero(t *testing.T) {
	code, rep, stderr := sweepOut(t, context.Background(), fleet.CheckRunner, "-cells", "2", "-jobs", "1")
	if code != 0 {
		t.Fatalf("clean sweep exit code = %d, want 0\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "2/2 cells") || !strings.Contains(stderr, "0 failed, 0 violations, 0 drops") {
		t.Fatalf("missing clean summary line in stderr:\n%s", stderr)
	}
	if !bytes.Contains(rep, []byte(`"failed": 0`)) {
		t.Fatalf("report does not record a clean sweep:\n%s", rep)
	}
}

// TestFailureExitFlushesViolationWindow: a failing sweep with -window-dir
// must write a complete, parseable Perfetto window holding trace events
// before it exits 1, and name the failure and how to reproduce it.
func TestFailureExitFlushesViolationWindow(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := sweepOut(t, context.Background(), fleet.CheckRunner,
		"-cells", "2", "-jobs", "1", "-inject-fail", "-window-dir", dir)
	if code != 1 {
		t.Fatalf("failing sweep exit code = %d, want 1\nstderr:\n%s", code, stderr)
	}
	path := filepath.Join(dir, "violation-cell-000.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("violation window not written: %v", err)
	}
	var win struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &win); err != nil {
		t.Fatalf("violation window is not complete JSON (unflushed exit?): %v\n%d bytes: %.200s",
			err, len(b), b)
	}
	// The window comes from the triage replay of the injected cell: it
	// holds the cell's events, not only track metadata.
	events := 0
	for _, e := range win.TraceEvents {
		if e.Ph != "M" {
			events++
		}
	}
	if events == 0 {
		t.Fatalf("violation window holds no trace events (%d metadata records only)", len(win.TraceEvents))
	}
	for _, want := range []string{"injected failure", "minimal failing cell: cell 0:", "reproduce: sweepd -seed 42 -cells 1\n"} {
		if !strings.Contains(stderr, want) {
			t.Fatalf("stderr lacks %q:\n%s", want, stderr)
		}
	}
}

// TestReproduceCarriesDigestFlags: the reproduce: line names every flag
// the cell digests depend on, so pasting it re-runs the same cell.
func TestReproduceCarriesDigestFlags(t *testing.T) {
	_, _, stderr := sweepOut(t, context.Background(), fleet.CheckRunner,
		"-cells", "1", "-seed", "7", "-items", "150", "-skip-bare", "-inject-fail")
	if want := "reproduce: sweepd -seed 7 -cells 1 -items 150 -skip-bare\n"; !strings.Contains(stderr, want) {
		t.Fatalf("stderr lacks %q:\n%s", want, stderr)
	}
}

// TestReportByteIdenticalAcrossJobs is the determinism oracle: the report
// must not depend on how many cells ran at once.
func TestReportByteIdenticalAcrossJobs(t *testing.T) {
	var base []byte
	for _, jobs := range []string{"1", "2", "8"} {
		code, rep, stderr := sweepOut(t, context.Background(), fleet.CheckRunner,
			"-cells", "12", "-items", "150", "-skip-bare", "-jobs", jobs)
		if code != 0 {
			t.Fatalf("-jobs %s: exit %d\nstderr:\n%s", jobs, code, stderr)
		}
		if base == nil {
			base = rep
		} else if !bytes.Equal(rep, base) {
			t.Fatalf("-jobs %s report differs from -jobs 1:\n%s\nvs\n%s", jobs, rep, base)
		}
	}
}

// TestCancelWritesPartialReport: cancelling the context (SIGTERM/SIGINT)
// stops handing out cells; the cells that ran make a "partial" report and
// sweepd exits 3.
func TestCancelWritesPartialReport(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	code, rep, stderr := sweepOut(t, ctx, fakeRun(func(i int) {
		if i == 3 {
			cancel()
		}
	}), "-cells", "10", "-jobs", "1")
	if code != 3 {
		t.Fatalf("drained sweep exit code = %d, want 3\nstderr:\n%s", code, stderr)
	}
	var r fleet.Report
	if err := json.Unmarshal(rep, &r); err != nil {
		t.Fatalf("partial report does not parse: %v\n%s", err, rep)
	}
	// Cell 3 was in flight when the context was cancelled: it finishes
	// and is kept.
	if r.Partial == nil {
		t.Fatalf("drained report has no partial field:\n%s", rep)
	}
	if r.Cells != 10 || *r.Partial != 4 || len(r.Rows) != 4 || r.Rows[3].Index != 3 {
		t.Fatalf("got cells=%d partial=%d rows=%d, want 10, 4, 4 ending at cell 3:\n%s",
			r.Cells, *r.Partial, len(r.Rows), rep)
	}
}

// TestPanickingCellIsFailedRow: a RunFunc that panics yields a failed row
// and exit 1, and the other cells still run.
func TestPanickingCellIsFailedRow(t *testing.T) {
	code, rep, stderr := sweepOut(t, context.Background(), fakeRun(func(i int) {
		if i == 2 {
			panic("boom")
		}
	}), "-cells", "5", "-jobs", "2")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, stderr)
	}
	var r fleet.Report
	if err := json.Unmarshal(rep, &r); err != nil {
		t.Fatalf("report does not parse: %v\n%s", err, rep)
	}
	if r.Failed != 1 || len(r.Rows) != 5 || !r.Rows[2].Failed || !strings.Contains(r.Rows[2].Summary, "panic: boom") {
		t.Fatalf("want 5 rows with only cell 2 failed by its panic:\n%s", rep)
	}
	if !strings.Contains(stderr, "reproduce: sweepd -seed 42 -cells 3\n") {
		t.Fatalf("stderr lacks the reproduce line for cell 2:\n%s", stderr)
	}
}

// TestBadFlagsExit2 rejects out-of-range values before any cell runs,
// naming the flag.
func TestBadFlagsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-cells", "0"}, "-cells"},
		{[]string{"-cells", "-1"}, "-cells"},
		{[]string{"-jobs", "-1"}, "-jobs"},
		{[]string{"-items", "-5"}, "-items"},
		{[]string{"-window-dir", filepath.Join(t.TempDir(), "missing")}, "-window-dir"},
		{[]string{"-no-such-flag"}, "-no-such-flag"},
	} {
		ran := false
		var stderr bytes.Buffer
		code := realMain(context.Background(), tc.args, &stderr, fakeRun(func(int) { ran = true }))
		if code != 2 || ran {
			t.Errorf("%v: exit %d, cells ran %v; want exit 2 before any cell", tc.args, code, ran)
		}
		if !strings.Contains(stderr.String(), tc.flag) {
			t.Errorf("%v: stderr does not name %s:\n%s", tc.args, tc.flag, stderr.String())
		}
	}
}
