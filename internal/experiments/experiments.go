// Package experiments regenerates every table and figure of the paper's
// evaluation (§3, §5) on the simulated testbed. Each experiment returns a
// Result holding plain-text tables whose rows mirror the paper's series;
// EXPERIMENTS.md records the paper-vs-measured comparison.
//
// All experiments are deterministic given Options.Seed. Options.Scale
// divides the workloads' item counts so quick runs (tests, benchmarks)
// finish fast; Scale=1 reproduces the full configuration.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/check"
	"repro/internal/evtrace"
	"repro/internal/jvm"
	"repro/internal/runner"
	"repro/internal/schedtrace"
	"repro/internal/simkit"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options configure an experiment run.
type Options struct {
	// Seed drives all randomness (default 42).
	Seed int64
	// Scale divides batch workloads' TotalItems and server request counts
	// (1 = the full evaluation configuration; tests use 4-10).
	Scale int
	// Jobs bounds how many simulation cells run concurrently: 0 means
	// GOMAXPROCS, 1 forces serial execution. Every cell derives its own
	// seed, so the rendered output is identical for any Jobs value.
	Jobs int
	// Pool, when non-nil, executes the cells instead of a pool built from
	// Jobs. The CLI shares one pool across experiments so per-experiment
	// speedup can be reported from its aggregate stats.
	Pool *runner.Pool
	// TraceDir, when non-empty, writes one Perfetto trace-event JSON file
	// per simulation cell (cell-NNN.json) into this directory (which must
	// exist). Cells are numbered in submission order, so their indexes are
	// identical for any Jobs value; tracing only records and never
	// perturbs the rendered tables. It is the one cell option that keeps
	// evtrace rings: the others subscribe to a bus that keeps no records.
	TraceDir string
	// Timeline, when non-nil, additionally records the scheduling trace of
	// the requested cell and publishes its result for timeline rendering.
	Timeline *TimelineCapture
	// Check, when non-nil, attaches a fresh cross-layer invariant checker
	// to every cell, co-running multi-JVM cells included, and merges each
	// cell's findings into the collector. Like tracing, checking is
	// record-only: the rendered tables are byte-identical with or without
	// it.
	Check *CheckCollector
	// PostmortemDir, when non-empty, attaches a pause-postmortem analyzer
	// to every cell and writes its blame decomposition as
	// postmortem-NNN.json into this directory (which must exist). Cell
	// numbering matches TraceDir's, so cell-007.json and
	// postmortem-007.json describe the same simulation. Record-only, like
	// tracing and checking.
	PostmortemDir string

	// cellSeq numbers the experiment's cells; created by norm().
	cellSeq *int64
}

// TimelineCapture selects one simulation cell (by submission index) whose
// scheduling timeline should be kept. After the experiment returns, Result
// holds that cell's run (its first JVM's) and Recorder its run segments,
// for rendering with schedtrace.RenderMidGC.
type TimelineCapture struct {
	Cell     int
	Result   *jvm.Result
	Recorder *schedtrace.Recorder
}

// CheckCollector accumulates invariant-checker outcomes across all the
// cells of an experiment batch. Cells run concurrently on the worker
// pool, so merging is mutex-protected; retained violation messages are
// capped at check.DefaultMaxViolations (the totals keep counting).
type CheckCollector struct {
	mu         sync.Mutex
	cells      int
	events     uint64
	total      int
	violations []string
}

// merge folds one finished cell's checker into the collector.
func (cc *CheckCollector) merge(idx int, ck *check.Checker) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.cells++
	cc.events += ck.EventsSeen()
	cc.total += ck.Total()
	for _, v := range ck.Violations() {
		if len(cc.violations) >= check.DefaultMaxViolations {
			break
		}
		cc.violations = append(cc.violations, fmt.Sprintf("cell %d: %s", idx, v))
	}
}

// Total is the number of invariant violations found across all cells.
func (cc *CheckCollector) Total() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.total
}

// Report renders a one-line summary plus any violations.
func (cc *CheckCollector) Report() string {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	s := fmt.Sprintf("check: %d cells, %d events, %d violation(s)\n",
		cc.cells, cc.events, cc.total)
	for _, v := range cc.violations {
		s += "  " + v + "\n"
	}
	if cc.total > len(cc.violations) {
		s += fmt.Sprintf("  ... %d more suppressed\n", cc.total-len(cc.violations))
	}
	return s
}

func (o Options) norm() Options {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Pool == nil {
		o.Pool = runner.New(o.Jobs)
	}
	if o.cellSeq == nil {
		o.cellSeq = new(int64)
	}
	return o
}

// nextCells reserves n consecutive cell indexes and returns the first.
// Every fan-out reserves its batch on the submitting goroutine, before
// any of its cells runs, so cell numbering is the same for any Jobs.
func (o Options) nextCells(n int) int {
	return int(atomic.AddInt64(o.cellSeq, int64(n))) - n
}

// scaled returns the profile with its work divided by the scale factor.
func (o Options) scaled(p workload.Profile) workload.Profile {
	if p.TotalItems > 0 {
		p.TotalItems /= o.Scale
		if p.TotalItems < 200 {
			p.TotalItems = 200
		}
	}
	return p
}

func (o Options) requests(full int) int {
	r := full / o.Scale
	if r < 300 {
		r = 300
	}
	return r
}

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Tables []*stats.Table
	Notes  []string
}

// Render writes the experiment's tables and notes to w.
func (r *Result) Render(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		t.Render(w)
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	if len(r.Notes) > 0 {
		fmt.Fprintln(w)
	}
}

// String renders the result.
func (r *Result) String() string {
	var b strings.Builder
	r.Render(&b)
	return b.String()
}

// WriteCSV writes each of the experiment's tables as a CSV file named
// <id>-<n>.csv under dir.
func (r *Result) WriteCSV(dir string) error {
	for i, t := range r.Tables {
		if err := writeFile(filepath.Join(dir, fmt.Sprintf("%s-%d.csv", r.ID, i)), t.RenderCSV); err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates path and fills it with write, reporting the first of
// the write and close errors.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Experiment couples an identifier with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) *Result
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig3a", "Impact of GC: DaCapo time breakdown vs mutators", Fig3a},
		{"fig3b", "Impact of GC: kmeans small/large vs mutators", Fig3b},
		{"fig3c", "GC scalability vs number of GC threads", Fig3c},
		{"fig3d", "Cassandra read latency and GC ratio vs clients", Fig3d},
		{"fig4", "Task and thread load imbalance (vanilla lusearch)", Fig4},
		{"fig5", "Lock acquisition trace: unfair mutex dynamics (§3.2)", Fig5},
		{"fig6", "Decomposition of minor GC time", Fig6},
		{"tab1", "Total and failed steal attempts (steal_best_of_2)", Table1},
		{"fig8", "Improved thread and task balance (optimized lusearch)", Fig8},
		{"fig9", "Steal attempts and failure rate: default vs optimized", Fig9},
		{"fig10", "Overall and GC improvement on DaCapo and SPECjvm2008", Fig10},
		{"fig11", "Comparison with NUMA node affinity and NUMA-aware stealing", Fig11},
		{"fig12", "Overall and GC scalability (DaCapo, 1-16 mutators)", Fig12},
		{"fig13", "Application results: Spark jobs and Cassandra latency", Fig13},
		{"fig14", "Heap-size sweeps: lusearch and kmeans", Fig14},
		{"fig15", "Multi-application environments", Fig15},
		{"fig16", "Effect of simultaneous multithreading", Fig16},
		{"abl1", "Ablation: rejected mutex fixes vs thread affinity (§4.1)", AblationMutex},
		{"abl2", "Ablation: stealing policies incl. SmartStealing (§6.1)", AblationSteal},
		{"abl3", "Ablation: NUMA memory-locality cost model (extension)", AblationNUMA},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %s)", id, idList())
}

func idList() string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return strings.Join(ids, ", ")
}

// --- shared helpers ---------------------------------------------------------

// cellSpec is the machine one JVM configuration runs on as a cell.
func cellSpec(opt Options, cfg jvm.Config, seedOff int64, busy int) jvm.RunSpec {
	cfg.Seed = opt.Seed + seedOff
	return jvm.RunSpec{Config: cfg, Seed: opt.Seed + seedOff, BusyLoops: busy}
}

// runSpec executes cfgs side by side on spec's machine (none runs
// spec.Config alone) as cell idx, with obs plus the observers the options
// ask for: the invariant checker, the postmortem analyzer, the Timeline
// recorder, and rings for the TraceDir/cell-NNN.json export. All of them
// are record-only, so results are unchanged. The cell's machine is built
// from (and harvested back into) a per-worker scratch held on the pool's
// free-list, so a sweep rebuilds its event arenas, runqueues, and heap
// object tables once per worker instead of once per cell.
func runSpec(opt Options, idx int, obs check.Observers, spec jvm.RunSpec, cfgs ...jvm.Config) *check.Observed {
	sc, _ := opt.Pool.GetScratch().(*jvm.Scratch)
	if sc == nil {
		sc = new(jvm.Scratch)
	}
	spec.Scratch = sc
	defer opt.Pool.PutScratch(sc)
	capture := opt.Timeline != nil && idx == opt.Timeline.Cell
	obs.Check = opt.Check != nil
	obs.Postmortem = opt.PostmortemDir != ""
	obs.Timeline = capture
	if opt.TraceDir != "" {
		obs.Rings = evtrace.DefaultSinkCap
	}
	ob, err := obs.Run(spec, cfgs...)
	if err != nil {
		panic(fmt.Sprintf("experiment run failed: %v", err))
	}
	if ob.Checker != nil {
		opt.Check.merge(idx, ob.Checker)
	}
	// Cell idx's exports: TraceDir/cell-NNN.json and
	// PostmortemDir/postmortem-NNN.json describe the same simulation.
	if opt.TraceDir != "" {
		path := filepath.Join(opt.TraceDir, fmt.Sprintf("cell-%03d.json", idx))
		if err := writeFile(path, func(w io.Writer) error { return evtrace.WritePerfetto(w, ob.Tracer) }); err != nil {
			panic(fmt.Sprintf("experiment trace export failed: %v", err))
		}
	}
	if ob.Analyzer != nil {
		path := filepath.Join(opt.PostmortemDir, fmt.Sprintf("postmortem-%03d.json", idx))
		if err := writeFile(path, ob.Analyzer.Export().WriteJSON); err != nil {
			panic(fmt.Sprintf("experiment postmortem export failed: %v", err))
		}
	}
	if capture {
		opt.Timeline.Result, opt.Timeline.Recorder = ob.Results[0], ob.Timeline
	}
	return ob
}

// runSpecCells fans prepared RunSpecs out on the pool with the same
// per-cell numbering and observers as runCells (for figures that build
// their specs directly, e.g. custom topologies).
func runSpecCells(opt Options, specs []jvm.RunSpec) []*jvm.Result {
	base := opt.nextCells(len(specs))
	return runner.Map(opt.Pool, len(specs), func(i int) *jvm.Result {
		return runSpec(opt, base+i, check.Observers{}, specs[i]).Results[0]
	})
}

// GridIndexes enumerates the cross product of axis lengths in row-major
// order — the last axis varies fastest — which is the deterministic
// submission-order cell numbering runCells gives a figure's fan-out.
// cmd/gcsimd's sweep endpoint derives its grid cells through this, so a
// sweep's cell i means the same configuration on every server and run.
// Zero-length axes are treated as one-point axes (index 0 = "hold the
// base value"), so callers can pass only the axes they sweep.
func GridIndexes(dims []int) [][]int {
	n := 1
	eff := make([]int, len(dims))
	for i, d := range dims {
		if d <= 0 {
			d = 1
		}
		eff[i] = d
		n *= d
	}
	out := make([][]int, n)
	for c := 0; c < n; c++ {
		idx := make([]int, len(eff))
		rem := c
		for i := len(eff) - 1; i >= 0; i-- {
			idx[i] = rem % eff[i]
			rem /= eff[i]
		}
		out[c] = idx
	}
	return out
}

// cell is one simulation of an experiment: a configuration, its seed
// offset, and the number of interfering busy loops. Cells are independent
// by construction — each seeds its own simulation from Options.Seed plus
// the offset — so a figure's cells can run in any order.
type cell struct {
	cfg  jvm.Config
	off  int64
	busy int
}

// runCells executes cells on the options' worker pool and returns results
// in submission order. Figures collect their cells first, fan them out
// here, then assemble tables from the index-ordered results; the rendered
// output is byte-identical to a serial run.
func runCells(opt Options, cells []cell) []*jvm.Result {
	specs := make([]jvm.RunSpec, len(cells))
	for i, c := range cells {
		specs[i] = cellSpec(opt, c.cfg, c.off, c.busy)
	}
	return runSpecCells(opt, specs)
}

func ms(t simkit.Time) float64 { return t.Millis() }

// fourConfigs returns the paper's Fig. 10 configuration ladder.
func fourConfigs(base jvm.Config) []struct {
	Name string
	Cfg  jvm.Config
} {
	return []struct {
		Name string
		Cfg  jvm.Config
	}{
		{"vanilla", base},
		{"w/ GC-affinity", base.WithAffinityOnly()},
		{"w/ steal", base.WithStealOnly()},
		{"together", base.WithOptimizations()},
	}
}
