// Command simcheck is the seed-sweep property harness: it runs randomized
// simulation configurations (topology × thread counts × mutex policy ×
// steal policy × affinity × terminator options) with the cross-layer
// invariant checker attached, and replays each cell uninstrumented to
// verify byte-identical output (same-seed determinism, and proof that the
// checker never perturbs a run).
//
// On failure it reports the minimal failing cell — the lowest-index one,
// which reproduces from the base seed alone — and, when -out is given,
// writes the pre-violation window of that cell's event bus, taken from a
// replay of the cell on retained rings, as Perfetto trace-event JSON for
// triage in ui.perfetto.dev. All exits route through
// cmdutil.Exit so that file is flushed and closed even on the failure
// path.
//
// Exit status: 0 when every cell is clean, 1 otherwise.
//
// Usage:
//
//	simcheck [-cells 256] [-seed 42] [-jobs N] [-out DIR] [-v]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/check"
	"repro/internal/cmdutil"
	"repro/internal/runner"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(argv []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("simcheck", flag.ContinueOnError)
	var (
		cells      = fs.Int("cells", 256, "number of sweep cells to run")
		seed       = fs.Int64("seed", 42, "base seed of the sweep (cell i uses seed+i)")
		jobs       = fs.Int("jobs", 0, "concurrent cells (0 = GOMAXPROCS)")
		out        = fs.String("out", "", "directory for violation-window Perfetto traces (must exist)")
		window     = fs.Uint64("window", 400, "pre-violation context, in bus sequence numbers")
		verbose    = fs.Bool("v", false, "print every cell, not just failures")
		injectFail = fs.Bool("inject-fail", false, "testing: force cell 0 to fail, exercising the failure exit path")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	matrix := check.Cells(*seed, *cells)
	pool := runner.New(*jobs)
	start := time.Now()
	results := runner.Map(pool, len(matrix), func(i int) *check.CellResult {
		return check.RunCell(matrix[i])
	})
	if *injectFail && len(results) > 0 {
		// The injected cell passed, so it was not replayed for triage;
		// replay it now, as a real failure would have been.
		results[0].BlameViolations = append(results[0].BlameViolations,
			"injected failure (-inject-fail)")
		results[0].Triage()
	}

	var failed []*check.CellResult
	var events, drops uint64
	for _, r := range results {
		events += r.Events
		drops += r.Drops
		if r.Failed() {
			failed = append(failed, r)
		} else if *verbose {
			fmt.Fprintln(stdout, r.Summary())
		}
	}
	fmt.Fprintf(stdout, "simcheck: %d cells, %d bus events validated, %d dropped in %v (%d workers)\n",
		len(results), events, drops, time.Since(start).Round(time.Millisecond), pool.Workers())
	if len(failed) == 0 {
		fmt.Fprintln(stdout, "simcheck: all invariants hold; all replays byte-identical")
		return 0
	}

	// The minimal failing cell: lowest index, hence smallest seed offset.
	sort.Slice(failed, func(i, j int) bool { return failed[i].Cell.Index < failed[j].Cell.Index })
	fmt.Fprintf(stdout, "simcheck: %d of %d cells FAILED\n", len(failed), len(results))
	for _, r := range failed {
		fmt.Fprintln(stdout, r.Summary())
	}
	min := failed[0]
	fmt.Fprintf(stdout, "minimal failing cell: %s\n", min.Cell)
	fmt.Fprintf(stdout, "reproduce: simcheck -seed %d -cells %d\n", *seed, min.Cell.Index+1)

	if *out == "" || min.Tracer == nil {
		return 1
	}
	v := check.Violation{} // determinism-only failures export the full tail
	if len(min.Violations) > 0 {
		v = min.Violations[0]
	}
	path := filepath.Join(*out, fmt.Sprintf("violation-cell-%03d.json", min.Cell.Index))
	win, err := cmdutil.NewOutput(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simcheck: %v\n", err)
		return 1
	}
	if err := check.WriteViolationWindow(win, min.Tracer, v, *window); err != nil {
		fmt.Fprintf(os.Stderr, "simcheck: %v\n", err)
		return cmdutil.Exit(1, win)
	}
	fmt.Fprintf(stdout, "pre-violation window written to %s (load in ui.perfetto.dev)\n", path)
	return cmdutil.Exit(1, win)
}
