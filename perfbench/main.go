// Command perfbench is the repository benchmark. It runs one workload
// against the simulator's public packages (jvm, runner, service,
// check/fleet), measures host time with tracing off, checks the simulated
// outputs, and prints one JSON result line last. With -trace 1 it instead
// makes a traced run that reports per-layer costs: simulated work counters
// and blame, a CPU profile grouped by package, and the tracing overhead.
//
//	go build -o perfbench . && ./perfbench -workload gc-heavy -seed 42 -seconds 20 -trace 0
//
// Host time is what the simulator costs on the machine running it.
// Simulated time is deterministic and serves only as an identity check:
// the model is not validated against real hardware, so no accuracy figure
// is reported. See README.md for the workloads and the layer map.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the conventional seed; it and one held-out seed have
// committed reference digests (refs.json).
const defaultSeed = 42

// A run sets the workload up at least minSetupReps times and for at least
// minSetupSeconds, at most maxSetupReps times; setup_s is the median. The
// time floor gives cheap set-ups more repetitions, whose median is steadier.
const (
	minSetupReps    = 7
	maxSetupReps    = 50
	minSetupSeconds = 1.0
)

// minCells is the fewest simulation cells a timed run completes, so that
// cell_ms_p90 has at least ten samples beyond it.
const minCells = 100

var workloadNames = []string{"gc-heavy", "mutator-heavy", "whatif-mix", "checked-sweep"}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	state    string
}

// bench is one set-up workload: its seed-derived inputs and the executor
// they run on.
type bench interface {
	// warm runs the untimed warm-up that fills each worker's scratch.
	warm() error
	// pass runs the whole input list once; sp is nil when untraced.
	pass(sp *spans) (*passResult, error)
	// replay re-simulates the list's cells with an evtrace counter and a
	// postmortem analyzer subscribed, returning the simulated statistics
	// and any cell whose replay disagrees with the digests in want.
	replay(want []string) (simStats, []string, error)
	close()
}

// passResult is one replay of a workload's input list.
type passResult struct {
	wall    time.Duration
	cellMs  []float64 // host ms per simulation cell
	reqMs   []float64 // host ms per request; a cell workload's request is a cell
	hitMs   []float64 // host ms per cache hit (whatif-mix)
	digests []string  // per operation, in list order
	fails   []string  // per operation: why its output is wrong, "" if right
	stats   simStats
	busy    float64 // executor busy time / (workers × wall)
	peakMB  float64 // the process's peak RSS during the pass
}

func newBench(name string, seed int64) (bench, error) {
	switch name {
	case "gc-heavy":
		return asBench(newJVMBench(seed, gcHeavyShapes(), 2))
	case "mutator-heavy":
		return asBench(newJVMBench(seed, mutatorHeavyShapes(), 6))
	case "whatif-mix":
		return asBench(newWhatifBench(seed))
	case "checked-sweep":
		return newCheckedBench(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// asBench converts a constructor's result to a bench, keeping a failed
// constructor's nil pointer out of the interface.
func asBench[B bench](b B, err error) (bench, error) {
	if err != nil {
		return nil, err
	}
	return b, nil
}

// verdict collects the run's failed checks.
type verdict struct{ problems []string }

func (v *verdict) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	v.problems = append(v.problems, msg)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	start := time.Now()
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed; the inputs are a function of it")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the timed passes run")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run printing per-layer metrics instead of end-to-end ones")
	flag.StringVar(&o.state, "state", filepath.Join(".bench_build", "perfbench-state"), "directory for cross-run identity records, profiles and spans")
	flag.Parse()
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(start, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(start time.Time, o options) (*result, error) {
	if err := os.MkdirAll(o.state, 0o755); err != nil {
		return nil, err
	}
	b, setups, err := setUp(start, o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	defer b.close()

	v := &verdict{}
	var out map[string]metric
	var sum *summary
	if o.trace == 0 {
		passes, err := timedPasses(b, o.seconds)
		if err != nil {
			return nil, err
		}
		sum = summarize(passes, v)
		out = endToEnd(sum, setups)
		if err := replayCheck(b, sum, v); err != nil {
			return nil, err
		}
	} else {
		out, sum, err = tracedRun(b, o, v)
		if err != nil {
			return nil, err
		}
	}
	checkOracle(o, sum, v)
	printSummary(o, sum, len(setups), out)
	return &result{
		Correct:   len(v.problems) == 0 && sum.failed == 0,
		Attempted: sum.attempted,
		Failed:    sum.failed,
		Metrics:   out,
	}, nil
}

// setUp builds and warms the workload repeatedly and keeps the last
// instance. The first repetition is timed from process start.
func setUp(start time.Time, name string, seed int64) (bench, []float64, error) {
	var b bench
	var times []float64
	for r := 0; r < maxSetupReps && (r < minSetupReps || time.Since(start).Seconds() < minSetupSeconds); r++ {
		t0 := time.Now()
		if r == 0 {
			t0 = start
		}
		nb, err := newBench(name, seed)
		if err != nil {
			if b != nil {
				b.close()
			}
			return nil, nil, err
		}
		if b != nil {
			b.close()
		}
		b = nb
		if err := b.warm(); err != nil {
			b.close()
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return b, times, nil
}

// timedPasses replays the input list until seconds have passed and at
// least minCells cells have run.
func timedPasses(b bench, seconds float64) ([]*passResult, error) {
	var passes []*passResult
	cells := 0
	t0 := time.Now()
	for len(passes) == 0 || cells < minCells || time.Since(t0).Seconds() < seconds {
		resetPeakRSS()
		pr, err := b.pass(nil)
		if err != nil {
			return nil, err
		}
		pr.peakMB = peakRSSMB()
		passes = append(passes, pr)
		cells += len(pr.cellMs)
	}
	return passes, nil
}

// summary aggregates a run's passes.
type summary struct {
	passes               []*passResult
	wall                 float64 // seconds
	cellMs, reqMs, hitMs []float64
	attempted, failed    int
	digest               string   // the workload digest: per-operation digests of one pass
	stats                simStats // simulated statistics of one pass
}

// summarize pools the passes and checks that every pass reproduced the
// first one exactly: the same per-operation digests and the same
// simulated statistics.
func summarize(passes []*passResult, v *verdict) *summary {
	first := passes[0]
	s := &summary{passes: passes, digest: listDigest(first.digests), stats: first.stats}
	for p, pr := range passes {
		s.wall += pr.wall.Seconds()
		s.cellMs = append(s.cellMs, pr.cellMs...)
		s.reqMs = append(s.reqMs, pr.reqMs...)
		s.hitMs = append(s.hitMs, pr.hitMs...)
		s.attempted += len(pr.digests)
		for i, d := range pr.digests {
			switch {
			case pr.fails[i] != "":
				s.failed++
				if s.failed <= 5 {
					fmt.Fprintf(os.Stderr, "perfbench: pass %d operation %d: %s\n", p+1, i, pr.fails[i])
				}
			case d != first.digests[i]:
				s.failed++
				v.fail("pass %d operation %d: output digest differs from pass 1", p+1, i)
			}
		}
		if k, ok := pr.stats.equalOn(first.stats); !ok || len(pr.stats) != len(first.stats) {
			v.fail("pass %d: simulated statistic %q differs from pass 1", p+1, k)
		}
	}
	return s
}

// replayCheck replays the list once more with an evtrace counter and a
// postmortem analyzer attached, fails the run where the replay disagrees
// with the measured passes, and adds the replay's statistics (bus events,
// blame, simulated pauses) to s.stats.
func replayCheck(b bench, s *summary, v *verdict) error {
	replayed, fails, err := b.replay(s.passes[0].digests)
	if err != nil {
		return err
	}
	for _, f := range fails {
		v.fail("%s", f)
	}
	if k, ok := replayed.equalOn(s.stats); !ok {
		v.fail("traced replay: simulated %q = %v, measured passes %v", k, replayed[k], s.stats[k])
	}
	for k, val := range replayed {
		s.stats[k] = val
	}
	return nil
}

// endToEnd computes the metrics a user of the simulator sees. Rates and
// peak RSS are the median over passes, so a stall of the host or an
// unlucky Go GC cycle during one pass moves them little; latencies pool
// every pass's samples.
func endToEnd(s *summary, setups []float64) map[string]metric {
	var cellRates, reqRates, peaks []float64
	for _, pr := range s.passes {
		cellRates = append(cellRates, float64(len(pr.cellMs))/pr.wall.Seconds())
		reqRates = append(reqRates, float64(len(pr.reqMs))/pr.wall.Seconds())
		peaks = append(peaks, pr.peakMB)
	}
	cells := sortedCopy(s.cellMs)
	reqs := sortedCopy(s.reqMs)
	return map[string]metric{
		"cells_per_s": {median(cellRates), "cells/s"},
		"cell_ms_p50": {quantile(cells, 0.50), "ms"},
		"cell_ms_p90": {quantile(cells, 0.90), "ms"},
		"req_ms_p50":  {quantile(reqs, 0.50), "ms"},
		"rps":         {median(reqRates), "req/s"},
		"setup_s":     {median(append([]float64(nil), setups...)), "s"},
		"peak_rss_mb": {median(peaks), "MB"},
	}
}

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) accounting from the
// current RSS. Where that is not allowed, peaks stay cumulative.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// printSummary writes the human-readable report: every metric with its
// unit and sample count, the workload digest and the simulated statistics.
func printSummary(o options, s *summary, setups int, out map[string]metric) {
	fmt.Printf("perfbench workload=%s seed=%d trace=%d passes=%d wall=%.2fs digest=%s\n",
		o.workload, o.seed, o.trace, len(s.passes), s.wall, s.digest)
	samples := map[string]string{
		"cells_per_s": fmt.Sprintf("%d passes, %d cells", len(s.passes), len(s.cellMs)),
		"cell_ms_p50": fmt.Sprint(len(s.cellMs)), "cell_ms_p90": fmt.Sprint(len(s.cellMs)),
		"req_ms_p50": fmt.Sprint(len(s.reqMs)),
		"rps":        fmt.Sprintf("%d passes, %d requests", len(s.passes), len(s.reqMs)),
		"setup_s":    fmt.Sprint(setups),
	}
	for _, k := range sortedKeys(out) {
		n := ""
		if c, ok := samples[k]; ok {
			n = "  (n=" + c + ")"
		}
		fmt.Printf("  %-28s %14.6g %s%s\n", k, out[k].Value, out[k].Unit, n)
	}
	if o.trace == 0 {
		cold, hits, reqs := sortedCopy(s.cellMs), sortedCopy(s.hitMs), sortedCopy(s.reqMs)
		fmt.Printf("  %-28s %14.6g ms  (n=%d)\n", "req_ms_p99", quantile(reqs, 0.99), len(reqs))
		if len(hits) > 0 {
			fmt.Printf("  %-28s %14.6g ms  (n=%d)\n", "cold_ms_p50", quantile(cold, 0.5), len(cold))
			fmt.Printf("  %-28s %14.6g ms  (n=%d)\n", "hit_ms_p50", quantile(hits, 0.5), len(hits))
		}
		fmt.Printf("  %-28s %14.6g ratio  (%d of %d)\n", "failed_frac",
			ratio(float64(s.failed), float64(s.attempted)), s.failed, s.attempted)
	}
	for _, k := range sortedKeys(s.stats) {
		fmt.Printf("  sim %-24s %.10g\n", k, s.stats[k])
	}
}

// refs are the committed reference digests: workload → seed → digest.
var refs = mustRefs()

func mustRefs() map[string]map[string]string {
	var r map[string]map[string]string
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		panic(fmt.Sprintf("refs.json: %v", err))
	}
	return r
}

// buildID names the running binary by a hash of its contents, so identity
// records only ever compare runs of one build.
func buildID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return "unknown"
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:6])
}

// identity is the cross-run record of one (workload, seed): its digest and
// simulated statistics, which every later run of that seed must reproduce.
type identity struct {
	Digest string   `json:"digest"`
	Stats  simStats `json:"stats"`
}

// checkOracle compares the run's digest with the committed reference for
// its seed, if there is one, and its digest and simulated statistics with
// what earlier runs of the same seed recorded.
func checkOracle(o options, s *summary, v *verdict) {
	if want, ok := refs[o.workload][strconv.FormatInt(o.seed, 10)]; ok && want != s.digest {
		v.fail("digest %s differs from the committed reference %s", s.digest, want)
		s.failed += len(s.passes[0].digests)
	}
	path := filepath.Join(o.state, fmt.Sprintf("identity-%s-%d-%s.json", o.workload, o.seed, buildID()))
	rec := identity{Digest: s.digest, Stats: simStats{}}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &rec); err != nil {
			v.fail("identity record %s: %v", path, err)
			return
		}
		if rec.Digest != s.digest {
			v.fail("digest %s differs from an earlier run's %s", s.digest, rec.Digest)
		}
		if k, ok := s.stats.equalOn(rec.Stats); !ok {
			v.fail("simulated statistic %q = %v differs from an earlier run's %v", k, s.stats[k], rec.Stats[k])
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		v.fail("identity record: %v", err)
		return
	}
	if rec.Stats == nil {
		rec.Stats = simStats{}
	}
	for k, val := range s.stats {
		rec.Stats[k] = val
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		v.fail("identity record: %v", err)
	}
}
