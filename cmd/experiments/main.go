// Command experiments regenerates the paper's tables and figures on the
// simulated testbed.
//
// Usage:
//
//	experiments -list
//	experiments -run fig10
//	experiments -run all -scale 4 -jobs 8 -o results.txt
//
// Simulation cells fan out across a bounded worker pool (-jobs, default
// GOMAXPROCS); output is byte-identical for any -jobs value because every
// cell derives its own seed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"time"

	"repro/internal/cmdutil"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/schedtrace"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		runID = flag.String("run", "all", "experiment id, or 'all'")
		list  = flag.Bool("list", false, "list experiments and exit")
		seed  = flag.Int64("seed", 42, "simulation seed")
		scale = flag.Int("scale", 1, "divide workload sizes by this (1 = full evaluation)")
		jobs  = flag.Int("jobs", 0, "max concurrent simulation cells (0 = GOMAXPROCS, 1 = serial)")
		out   = flag.String("o", "", "write output to file (default stdout)")
		csv   = flag.String("csv", "", "also write each table as CSV into this directory")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
		traceFile  = flag.String("trace", "", "write a runtime execution trace to this file")

		evtraceDir    = flag.String("evtrace-dir", "", "write per-cell Perfetto traces into <dir>/<experiment>/cell-NNN.json")
		postmortemDir = flag.String("postmortem-dir", "", "write per-cell pause postmortems into <dir>/<experiment>/postmortem-NNN.json")
		timeline      = flag.Int("timeline", -1, "render a scheduling timeline for this cell index (single -run only)")
		checkF        = flag.Bool("check", false, "attach the cross-layer invariant checker to every cell (exit 1 on violation)")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return err
		}
		defer trace.Stop()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // flush accurate allocation stats before the snapshot
			if werr := pprof.Lookup("allocs").WriteTo(f, 0); werr != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", werr)
			}
			f.Close()
		}()
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-6s %s\n", e.ID, e.Title)
		}
		return nil
	}

	var todo []experiments.Experiment
	if *runID == "all" {
		todo = experiments.All()
	} else {
		e, err := experiments.ByID(*runID)
		if err != nil {
			return err
		}
		todo = []experiments.Experiment{e}
	}

	if *csv != "" {
		if err := os.MkdirAll(*csv, 0o755); err != nil {
			return err
		}
	}
	if *timeline >= 0 && len(todo) > 1 {
		return fmt.Errorf("-timeline needs a single experiment (use -run <id>)")
	}
	ropt := runOptions{
		seed: *seed, scale: *scale, jobs: *jobs,
		csvDir: *csv, evtraceDir: *evtraceDir, postmortemDir: *postmortemDir,
		timeline: *timeline,
	}
	if *checkF {
		ropt.check = &experiments.CheckCollector{}
	}

	if *out != "" {
		// Close on every exit path (including experiment errors) and
		// surface write and Close errors so a full disk is not reported
		// as success (table rendering itself ignores fmt errors; the
		// buffered Output retains the first failure and Close reports it).
		o, err := cmdutil.NewOutput(*out)
		if err != nil {
			return err
		}
		err = runExperiments(o, todo, ropt)
		if cerr := o.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return runExperiments(os.Stdout, todo, ropt)
}

// runOptions carries the CLI knobs that shape an experiment batch.
type runOptions struct {
	seed          int64
	scale, jobs   int
	csvDir        string
	evtraceDir    string
	postmortemDir string
	timeline      int                         // cell index to render, -1 = off
	check         *experiments.CheckCollector // non-nil when -check is set
}

func runExperiments(w io.Writer, todo []experiments.Experiment, ro runOptions) error {
	pool := runner.New(ro.jobs)
	opt := experiments.Options{Seed: ro.seed, Scale: ro.scale, Jobs: ro.jobs, Pool: pool, Check: ro.check}
	start := time.Now()
	for _, e := range todo {
		eopt := opt
		if ro.evtraceDir != "" {
			eopt.TraceDir = filepath.Join(ro.evtraceDir, e.ID)
			if err := os.MkdirAll(eopt.TraceDir, 0o755); err != nil {
				return err
			}
		}
		if ro.postmortemDir != "" {
			eopt.PostmortemDir = filepath.Join(ro.postmortemDir, e.ID)
			if err := os.MkdirAll(eopt.PostmortemDir, 0o755); err != nil {
				return err
			}
		}
		if ro.timeline >= 0 {
			eopt.Timeline = &experiments.TimelineCapture{Cell: ro.timeline}
		}
		t0 := time.Now()
		snap := pool.Snapshot()
		res := e.Run(eopt)
		wall := time.Since(t0)
		cells, busy := pool.StatsSince(snap)
		res.Render(w)
		if ro.csvDir != "" {
			if err := res.WriteCSV(ro.csvDir); err != nil {
				return err
			}
		}
		if eopt.Timeline != nil {
			if err := renderTimeline(w, e.ID, eopt.Timeline); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "%s done in %.1fs (%d cells, %.1fx speedup, jobs=%d)\n",
			e.ID, wall.Seconds(), cells, speedup(busy, wall), pool.Workers())
	}
	if len(todo) > 1 {
		wall := time.Since(start)
		cells, busy := pool.Stats()
		fmt.Fprintf(os.Stderr, "total: %d cells in %.1fs wall (%.1fs cpu, %.1fx speedup)\n",
			cells, wall.Seconds(), busy.Seconds(), speedup(busy, wall))
	}
	if ro.check != nil {
		fmt.Fprint(os.Stderr, ro.check.Report())
		if n := ro.check.Total(); n > 0 {
			return fmt.Errorf("invariant checker found %d violation(s)", n)
		}
	}
	return nil
}

// renderTimeline draws the captured cell's scheduling around a mid-run
// GC — the same view as gcsim -timeline, but for an experiment cell.
func renderTimeline(w io.Writer, id string, tc *experiments.TimelineCapture) error {
	r := tc.Result
	if r == nil {
		return fmt.Errorf("-timeline %d: experiment %s has no such cell", tc.Cell, id)
	}
	title := fmt.Sprintf("timeline: %s cell %d (%s)", id, tc.Cell, r.Benchmark)
	if err := schedtrace.RenderMidGC(w, tc.Recorder, r.NumCPUs, r.Reports, title); err != nil {
		return fmt.Errorf("-timeline %d: %w", tc.Cell, err)
	}
	return nil
}

// speedup is aggregate in-cell time over wall time: ~1.0 when serial,
// approaching the worker count when the fan-out keeps every worker busy.
func speedup(busy, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(busy) / float64(wall)
}
