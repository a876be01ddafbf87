// Command sweepd runs the check package's seed-sweep cell space: each cell
// is a randomized simulation configuration (topology × thread counts ×
// mutex policy × steal policy × affinity × terminator options) run with the
// cross-layer invariant checker attached, then replayed bare to verify
// byte-identical output (same-seed determinism, and proof that the checker
// never perturbs a run).
//
// Cells run in process on a bounded pool (-jobs). Each becomes one row of
// the gcsim-sweep/v1 report, which is byte-identical for any -jobs value.
// A cell that panics becomes a failed row; one that deadlocks or passes
// its simulated-time cap fails with the simulator's error.
//
// On failure sweepd names the minimal failing cell — the lowest-index one,
// which reproduces from the base seed alone — with a reproduce: line. With
// -window-dir it re-runs that cell on retained rings and writes the
// pre-violation window of its event bus as Perfetto trace-event JSON for
// triage in ui.perfetto.dev. All exits route through cmdutil.Exit, so the
// report is flushed and closed on every path.
//
// SIGTERM/SIGINT stops handing out cells: cells in flight finish, the
// report is written with "partial" set, and sweepd exits 3.
//
// Exit status: 0 when every cell is clean, 1 when any failed, 2 on a bad
// flag, 3 when drained.
//
// Usage:
//
//	sweepd [-cells 1000] [-seed 42] [-items N] [-skip-bare] [-jobs N]
//	       [-out report.json] [-window-dir DIR] [-inject-fail]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"time"

	"repro/internal/check"
	"repro/internal/cmdutil"
	"repro/internal/fleet"
	"repro/internal/runner"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	code := realMain(ctx, os.Args[1:], os.Stderr, fleet.CheckRunner)
	stop()
	os.Exit(code)
}

// realMain runs one sweep whose cells newRun executes; cancelling ctx
// drains it.
func realMain(ctx context.Context, argv []string, stderr io.Writer,
	newRun func(int64, check.RunOptions) fleet.RunFunc) int {
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cells      = fs.Int("cells", 1000, "number of sweep cells (cell i is the same for any -cells)")
		seed       = fs.Int64("seed", 42, "base seed of the cell space")
		items      = fs.Int("items", 0, "per-cell workload items (0 = check.DefaultItems)")
		skipBare   = fs.Bool("skip-bare", false, "skip the bare determinism replay (one simulation per cell instead of two)")
		jobs       = fs.Int("jobs", 0, "concurrent cells (0 = GOMAXPROCS)")
		out        = fs.String("out", "", "write the gcsim-sweep/v1 report to this file (default stdout)")
		windowDir  = fs.String("window-dir", "", "directory for the minimal failing cell's Perfetto violation window (must exist)")
		injectFail = fs.Bool("inject-fail", false, "testing: force cell 0 to fail, exercising the failure exit path")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	for _, f := range []struct {
		name string
		bad  bool
		want string
	}{
		{"cells", *cells < 1, "at least 1"},
		{"jobs", *jobs < 0, "0 (GOMAXPROCS) or more"},
		{"items", *items < 0, "0 (check.DefaultItems) or more"},
	} {
		if f.bad {
			fmt.Fprintf(stderr, "sweepd: -%s %s: must be %s\n", f.name, fs.Lookup(f.name).Value, f.want)
			return 2
		}
	}

	// Both outputs are checked before the sweep, not after it.
	if fi, err := os.Stat(*windowDir); *windowDir != "" && (err != nil || !fi.IsDir()) {
		fmt.Fprintf(stderr, "sweepd: -window-dir %s: not a directory\n", *windowDir)
		return 2
	}
	output, err := cmdutil.NewOutput(*out)
	if err != nil {
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}

	opts := check.RunOptions{Items: *items, SkipBare: *skipBare}
	run := newRun(*seed, opts)
	if *injectFail {
		run = failCellZero(run, *seed)
	}
	pool := runner.New(*jobs)
	start := time.Now()
	recs := sweep(ctx, pool, *cells, run)
	elapsed := time.Since(start)

	rep := fleet.BuildReport(*seed, *cells, *items, !*skipBare, recs)
	if err := rep.WriteJSON(output); err != nil {
		fmt.Fprintln(stderr, "sweepd:", err)
		return cmdutil.Exit(1, output)
	}
	fmt.Fprintf(stderr, "sweepd: %d/%d cells in %v (%.1f cells/s, %d jobs): %d failed, %d violations, %d drops\n",
		len(recs), *cells, elapsed.Round(time.Millisecond), float64(len(recs))/elapsed.Seconds(),
		pool.Workers(), rep.Failed, rep.Violations, rep.Drops)

	code := 0
	if rep.Failed > 0 || rep.Violations > 0 || rep.Drops > 0 {
		code = 1
	}
	// The minimal failing cell: lowest index, hence smallest seed offset.
	if i := slices.IndexFunc(recs, func(r fleet.CellRecord) bool { return r.Failed }); i >= 0 {
		r := recs[i]
		fmt.Fprintf(stderr, "minimal failing cell: %s\n", r.Summary)
		fmt.Fprintf(stderr, "reproduce: sweepd -seed %d -cells %d%s\n", *seed, r.Index+1, digestFlags(opts))
		if *windowDir != "" {
			path, err := writeWindow(*windowDir, *seed, opts, r.Index)
			if err != nil {
				fmt.Fprintln(stderr, "sweepd:", err)
			} else {
				fmt.Fprintf(stderr, "pre-violation window written to %s (load in ui.perfetto.dev)\n", path)
			}
		}
	}
	if len(recs) < *cells {
		fmt.Fprintf(stderr, "sweepd: drained after %d of %d cells; report is partial\n", len(recs), *cells)
		code = 3
	}
	return cmdutil.Exit(code, output)
}

// sweep runs cells [0, n) on pool and returns the records of those that
// ran, in index order. Once ctx is done no further cell starts; cells
// already running finish and are kept.
func sweep(ctx context.Context, pool *runner.Pool, n int, run fleet.RunFunc) []fleet.CellRecord {
	recs := make([]fleet.CellRecord, n)
	ran := make([]bool, n)
	pool.ForEach(n, func(i int) {
		if ctx.Err() == nil {
			recs[i], ran[i] = runOne(run, i), true
		}
	})
	done := recs[:0]
	for i, r := range recs {
		if ran[i] {
			done = append(done, r)
		}
	}
	return done
}

// runOne executes one cell, converting errors and panics into a Failed
// record so a poisoned cell is reported, not fatal.
func runOne(run fleet.RunFunc, idx int) (rec fleet.CellRecord) {
	defer func() {
		if r := recover(); r != nil {
			rec = fleet.CellRecord{Index: idx, Failed: true,
				Summary: fmt.Sprintf("cell %d: panic: %v", idx, r)}
		}
	}()
	rec, err := run(idx, nil)
	if err != nil {
		return fleet.CellRecord{Index: idx, Failed: true, Summary: fmt.Sprintf("cell %d: %v", idx, err)}
	}
	rec.Index = idx
	return rec
}

// failCellZero wraps run so that cell 0 fails the way a postmortem blame
// violation would fail it.
func failCellZero(run fleet.RunFunc, seed int64) fleet.RunFunc {
	return func(i int, payload json.RawMessage) (fleet.CellRecord, error) {
		rec, err := run(i, payload)
		if i != 0 || err != nil {
			return rec, err
		}
		if !rec.Failed {
			rec.Failed = true
			rec.Summary = fmt.Sprintf("%s: FAIL", check.CellAt(seed, i))
		}
		rec.Violations++
		rec.Summary += "\n  postmortem: injected failure (-inject-fail)"
		return rec, nil
	}
}

// digestFlags renders the options the cell digests depend on as sweepd
// flags, so a reproduce: line re-runs the same cell.
func digestFlags(o check.RunOptions) string {
	s := ""
	if o.Items != 0 {
		s += fmt.Sprintf(" -items %d", o.Items)
	}
	if o.SkipBare {
		s += " -skip-bare"
	}
	return s
}

// writeWindow re-runs cell index and writes the pre-violation window of
// its event bus to dir. RunCellOpts replays a failed cell on retained
// rings (CellResult.Triage); a cell that passes when re-run (an injected
// failure) is replayed the same way, and, with no violation to centre on,
// exports the tail of the run, as a determinism-only failure does.
func writeWindow(dir string, seed int64, opts check.RunOptions, index int) (string, error) {
	res := check.RunCellOpts(check.CellAt(seed, index), opts)
	if res.Tracer == nil {
		res.Triage()
	}
	var v check.Violation
	if len(res.Violations) > 0 {
		v = res.Violations[0]
	}
	path := filepath.Join(dir, fmt.Sprintf("violation-cell-%03d.json", index))
	win, err := cmdutil.NewOutput(path)
	if err != nil {
		return "", err
	}
	// Window 0 keeps check's default of 400 bus sequence numbers of context.
	err = check.WriteViolationWindow(win, res.Tracer, v, 0)
	if cerr := win.Close(); err == nil {
		err = cerr
	}
	return path, err
}
