// Command sweepd runs fleet-scale check sweeps: a coordinator that shards
// the prefix-stable cell space across worker processes (re-invocations of
// this binary with -worker) with work stealing, heartbeat/deadline failure
// detection, and bounded re-dispatch. The merged gcsim-sweep/v1 report is
// byte-identical regardless of sharding, worker count, steal interleaving,
// or injected worker kills.
//
// Coordinator:
//
//	sweepd -cells 100000 -workers 8 -out report.json
//
// Fault-injection harness (worker 0 only):
//
//	sweepd -cells 1000 -workers 4 -kill-worker-after 5   # crash, no goodbye
//	sweepd -cells 1000 -workers 4 -hang-worker 5         # alive but stuck
//
// SIGTERM/SIGINT triggers a graceful drain: in-flight cells finish, the
// partial report is written (with "partial" set), and sweepd exits 3.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/check"
	"repro/internal/cmdutil"
	"repro/internal/fleet"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(argv []string) int {
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	var (
		worker    = fs.Bool("worker", false, "run as a worker process (internal; speaks the fleet protocol on stdin/stdout)")
		cells     = fs.Int("cells", 1000, "number of sweep cells")
		seed      = fs.Int64("seed", 42, "base seed of the cell space")
		items     = fs.Int("items", 0, "per-cell workload items (0 = check.DefaultItems)")
		skipBare  = fs.Bool("skip-bare", false, "skip the bare determinism replay (one simulation per cell instead of two)")
		workers   = fs.Int("workers", 2, "worker processes")
		shards    = fs.Int("shards", 0, "shard count (0 = 4x workers)")
		noSteal   = fs.Bool("no-steal", false, "disable cross-shard work stealing")
		heartbeat = fs.Duration("heartbeat", 0, "ping interval (0 = 500ms)")
		deadline  = fs.Duration("deadline", 0, "per-worker progress deadline (0 = 30s)")
		retries   = fs.Int("retries", 0, "max re-dispatches per shard (0 = 3)")
		out       = fs.String("out", "", "write the gcsim-sweep/v1 report to this file (default stdout)")
		quiet     = fs.Bool("quiet", false, "suppress coordinator progress on stderr")
		killAfter = fs.Int("kill-worker-after", 0, "fault injection: worker 0 exits without goodbye after N cells")
		hangAfter = fs.Int("hang-worker", 0, "fault injection: worker 0 hangs (pings still answered) after N cells")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	runOpts := check.RunOptions{Items: *items, SkipBare: *skipBare}
	if *worker {
		// Workers receive their fault injections via argv too (the
		// coordinator only appends them for worker 0).
		wopts := fleet.WorkerOptions{KillAfter: *killAfter, HangAfter: *hangAfter}
		if err := fleet.ServeWorker(os.Stdin, os.Stdout, fleet.CheckRunner(*seed, runOpts), wopts); err != nil {
			fmt.Fprintln(os.Stderr, "sweepd worker:", err)
			return 1
		}
		return 0
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		return 1
	}

	output, err := cmdutil.NewOutput(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		return 1
	}

	cfg := fleet.Config{
		Cells:        *cells,
		Workers:      *workers,
		Shards:       *shards,
		DisableSteal: *noSteal,
		Heartbeat:    *heartbeat,
		Deadline:     *deadline,
		Retries:      *retries,
		Command: func(i int) (*exec.Cmd, error) {
			args := []string{"-worker",
				"-seed", strconv.FormatInt(*seed, 10),
				"-items", strconv.Itoa(*items)}
			if *skipBare {
				args = append(args, "-skip-bare")
			}
			if i == 0 {
				if *killAfter > 0 {
					args = append(args, "-kill-worker-after", strconv.Itoa(*killAfter))
				}
				if *hangAfter > 0 {
					args = append(args, "-hang-worker", strconv.Itoa(*hangAfter))
				}
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			return cmd, nil
		},
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	start := time.Now()
	res, runErr := fleet.Run(ctx, cfg)
	elapsed := time.Since(start)

	code := 0
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", runErr)
		code = 1
		if res != nil && res.Stats.Drained {
			code = 3
		}
		if res == nil {
			return cmdutil.Exit(code, output)
		}
	}

	rep := fleet.BuildReport(*seed, *cells, *items, !*skipBare, res.Records)
	if err := rep.WriteJSON(output); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		return cmdutil.Exit(1, output)
	}
	if !*quiet {
		st := res.Stats
		fmt.Fprintf(os.Stderr,
			"sweepd: %d/%d cells in %v (%.1f cells/s) workers=%d shards=%d steals=%d redispatches=%d deaths=%d hangs=%d\n",
			len(res.Records), *cells, elapsed.Round(time.Millisecond),
			float64(len(res.Records))/elapsed.Seconds(),
			st.Workers, st.Shards, st.Steals, st.Redispatches, st.WorkerDeaths, st.WorkerHangs)
	}
	if code == 0 && (rep.Failed > 0 || rep.Violations > 0 || rep.Drops > 0) {
		fmt.Fprintf(os.Stderr, "sweepd: sweep found problems: %d failed cells, %d violations, %d drops\n",
			rep.Failed, rep.Violations, rep.Drops)
		code = 1
	}
	return cmdutil.Exit(code, output)
}
