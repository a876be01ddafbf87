package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCleanSweepExitsZero runs a tiny clean sweep through realMain.
func TestCleanSweepExitsZero(t *testing.T) {
	var buf bytes.Buffer
	if code := realMain([]string{"-cells", "2", "-jobs", "1"}, &buf); code != 0 {
		t.Fatalf("clean sweep exit code = %d, want 0\noutput:\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "all invariants hold") {
		t.Fatalf("missing success line in output:\n%s", buf.String())
	}
}

// TestFailureExitFlushesViolationWindow is the regression test for the
// exit-path bug: a failing sweep with -out used to reach os.Exit with the
// window file's buffers unflushed. The injected failure forces the failure
// path; the written window must be complete, parseable Perfetto JSON that
// holds trace events.
func TestFailureExitFlushesViolationWindow(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	code := realMain([]string{"-cells", "2", "-jobs", "1", "-inject-fail", "-out", dir}, &buf)
	if code != 1 {
		t.Fatalf("failing sweep exit code = %d, want 1\noutput:\n%s", code, buf.String())
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
	if !strings.Contains(buf.String(), "injected failure") {
		t.Fatalf("failure summary missing injected violation:\n%s", buf.String())
	}
}
