package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/check"
	"repro/internal/evtrace"
	"repro/internal/fleet"
	"repro/internal/jvm"
	"repro/internal/ostopo"
	"repro/internal/postmortem"
	"repro/internal/runner"
	"repro/internal/simkit"
	"repro/internal/workload"
)

// poolWorkers is the pool size of every cell workload: the two CPUs of
// the sandbox the benchmark was sized on.
const poolWorkers = 2

// cellOut is what one simulation cell produced.
type cellOut struct {
	digest string
	stats  simStats
	pauses []float64 // simulated collection pauses, ms
	fail   string    // non-empty when the output is wrong
}

// cellBench runs a fixed list of simulation cells on a runner.Pool with
// per-worker jvm.Scratch: the batch loop of the paper-artifact and sweep
// tools.
type cellBench struct {
	pool *runner.Pool
	n    int
	// run simulates cell i untraced. sp and parent place its inner span.
	run func(i int, sc *jvm.Scratch, sp *spans, parent int) cellOut
	// replayCell simulates cell i again with tr attached.
	replayCell func(i int, tr *evtrace.Tracer) ([]*jvm.Result, error)
	// warmCell simulates warm-up cell w. Warm-up inputs do not depend on
	// the seed, so set-up costs the same for every seed.
	warmCell func(w int, sc *jvm.Scratch) error
}

func newCellBench(n int) *cellBench {
	return &cellBench{pool: runner.New(poolWorkers), n: n}
}

// warm runs one untimed cell per pool worker so each worker's scratch
// arenas are filled before timing starts.
func (b *cellBench) warm() error {
	errs := make([]error, poolWorkers)
	b.pool.ForEach(poolWorkers, func(w int) {
		sc, _ := b.pool.GetScratch().(*jvm.Scratch)
		if sc == nil {
			sc = new(jvm.Scratch)
		}
		defer b.pool.PutScratch(sc)
		errs[w] = b.warmCell(w, sc)
	})
	return errors.Join(errs...)
}

func (b *cellBench) task(i int, sp *spans) cellOut {
	sc, _ := b.pool.GetScratch().(*jvm.Scratch)
	if sc == nil {
		sc = new(jvm.Scratch)
	}
	defer b.pool.PutScratch(sc)
	id := sp.begin("pool.task", 0)
	defer sp.end(id)
	return b.run(i, sc, sp, id)
}

func (b *cellBench) pass(sp *spans) (*passResult, error) {
	outs := make([]cellOut, b.n)
	ms := make([]float64, b.n)
	snap := b.pool.Snapshot()
	t0 := time.Now()
	b.pool.ForEach(b.n, func(i int) {
		c0 := time.Now()
		outs[i] = b.task(i, sp)
		ms[i] = float64(time.Since(c0)) / 1e6
	})
	wall := time.Since(t0)
	_, busy := b.pool.StatsSince(snap)
	pr := &passResult{
		wall:    wall,
		cellMs:  ms,
		reqMs:   ms,
		digests: make([]string, b.n),
		fails:   make([]string, b.n),
		stats:   simStats{},
		busy:    float64(busy) / (float64(wall) * poolWorkers),
	}
	var pauses []float64
	for i, o := range outs {
		pr.digests[i] = o.digest
		pr.fails[i] = o.fail
		pr.stats.add(o.stats)
		pauses = append(pauses, o.pauses...)
	}
	if len(pauses) > 0 {
		pauseStats(pauses, pr.stats)
	}
	return pr, nil
}

// replay re-simulates the whole list on the pool with an evtrace counter
// and a postmortem analyzer subscribed, checking that every replay
// reproduces the measured digest in want.
func (b *cellBench) replay(want []string) (simStats, []string, error) {
	return replayCells(b.pool, b.n, b.replayCell, want)
}

// replayCells simulates cells [0,n) on pool, each with its own evtrace
// counter and postmortem analyzer, and sums their simulated statistics in
// list order. Cells whose replay digest differs from want (when given)
// are reported.
func replayCells(pool *runner.Pool, n int, sim func(i int, tr *evtrace.Tracer) ([]*jvm.Result, error), want []string) (simStats, []string, error) {
	per := make([]simStats, n)
	pauses := make([][]float64, n)
	digests := make([]string, n)
	errs := make([]error, n)
	pool.ForEach(n, func(i int) {
		st := simStats{}
		tr, an := replayTracer(st)
		results, err := sim(i, tr)
		if err != nil {
			errs[i] = fmt.Errorf("replay cell %d: %w", i, err)
			return
		}
		blameStats(an, st)
		for _, r := range results {
			resultStats(r, st, &pauses[i])
		}
		per[i], digests[i] = st, resultDigest(results...)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	st := simStats{}
	var all []float64
	var fails []string
	for i := range per {
		st.add(per[i])
		all = append(all, pauses[i]...)
		if want != nil && digests[i] != want[i] {
			fails = append(fails, fmt.Sprintf("cell %d: traced replay digest %.12s != measured %.12s", i, digests[i], want[i]))
		}
	}
	pauseStats(all, st)
	return st, fails, nil
}

func (b *cellBench) close() {}

// replayTracer returns a tracer whose counter subscriber adds every bus
// event to st["evtrace.bus_events"], with a postmortem analyzer attached.
// Subscribers see the whole stream, so a one-record ring suffices.
func replayTracer(st simStats) (*evtrace.Tracer, *postmortem.Analyzer) {
	tr := evtrace.New(1)
	tr.Subscribe(func(evtrace.Event) { st["evtrace.bus_events"]++ })
	an := postmortem.New()
	an.Attach(tr)
	return tr, an
}

// jvmCell is one single-JVM simulation: a benchmark at a heap size, with a
// GC thread count, vanilla or with the paper's optimizations.
type jvmCell struct {
	bench    string
	heapMB   int
	items    int
	gcThread int
	opt      bool
}

// jvmCells builds the cell list of a single-JVM workload: every
// configuration `reps` times, each with its own seed-derived simulation
// seed. The order is fixed (all configurations, then all again), so which
// cells share the two workers does not change from seed to seed.
func jvmCells(seed int64, shapes []jvmCell, reps int) ([]jvm.RunSpec, error) {
	rng := rand.New(rand.NewSource(seed))
	var specs []jvm.RunSpec
	for r := 0; r < reps; r++ {
		for _, c := range shapes {
			p, err := workload.ByName(c.bench)
			if err != nil {
				return nil, err
			}
			p.TotalItems = c.items
			cfg := jvm.Config{Profile: p, Mutators: 16, GCThreads: c.gcThread, HeapMB: c.heapMB}
			if c.opt {
				cfg = cfg.WithOptimizations()
			}
			cfg.Seed = rng.Int63n(1 << 40)
			specs = append(specs, jvm.RunSpec{Config: cfg, Seed: cfg.Seed})
		}
	}
	return specs, nil
}

// gcHeavyShapes are Fig10-style cells where the collector dominates:
// xml.validation at 1.5x its minimum heap and lusearch at 1.5x its. The
// benchmarks alternate, so the two workers mostly run one of each.
func gcHeavyShapes() []jvmCell {
	var out []jvmCell
	for _, gct := range []int{4, 8, 16} {
		for _, opt := range []bool{false, true} {
			for _, b := range []jvmCell{{bench: "xml.validation", heapMB: 2000, items: 12000}, {bench: "lusearch", heapMB: 45, items: 45000}} {
				b.gcThread, b.opt = gct, opt
				out = append(out, b)
			}
		}
	}
	return out
}

// mutatorHeavyShapes run xalan and h2 at 4x their default heap, where
// minor GCs are rare and host time sits in the kernel and mutators.
func mutatorHeavyShapes() []jvmCell {
	var out []jvmCell
	for _, opt := range []bool{false, true} {
		for _, b := range []jvmCell{{bench: "xalan", heapMB: 600, items: 40000}, {bench: "h2", heapMB: 3600, items: 20000}} {
			b.opt = opt
			out = append(out, b)
		}
	}
	return out
}

// newJVMBench builds a single-JVM cell workload.
func newJVMBench(seed int64, shapes []jvmCell, reps int) (*cellBench, error) {
	specs, err := jvmCells(seed, shapes, reps)
	if err != nil {
		return nil, err
	}
	b := newCellBench(len(specs))
	warm, err := jvmCells(defaultSeed, shapes[:1], poolWorkers)
	if err != nil {
		return nil, err
	}
	b.warmCell = func(w int, sc *jvm.Scratch) error {
		spec := warm[w]
		spec.Scratch = sc
		_, err := jvm.Run(spec)
		return err
	}
	b.run = func(i int, sc *jvm.Scratch, sp *spans, parent int) cellOut {
		spec := specs[i]
		spec.Scratch = sc
		id := sp.begin("jvm.Run", parent)
		r, err := jvm.Run(spec)
		sp.end(id)
		if err != nil {
			return cellOut{fail: err.Error()}
		}
		out := cellOut{digest: resultDigest(r), stats: simStats{}}
		resultStats(r, out.stats, &out.pauses)
		if r.Err != nil {
			out.fail = r.Err.Error()
		}
		return out
	}
	b.replayCell = func(i int, tr *evtrace.Tracer) ([]*jvm.Result, error) {
		spec := specs[i]
		spec.EvTracer = tr
		r, err := jvm.Run(spec)
		if err != nil {
			return nil, err
		}
		return []*jvm.Result{r}, nil
	}
	return b, nil
}

// checkedCells is the number of sweepd cells per pass of checked-sweep.
const checkedCells = 128

// checkStratum groups sweep cells by what their cost depends on most.
type checkStratum struct {
	topo        string
	multi, busy bool
	mutators    int // 1-4, 5-8, 9-12
}

func stratumOf(c check.Cell) checkStratum {
	return checkStratum{c.Topo, c.MultiJVM, c.BusyLoops > 0, (c.Mutators - 1) / 4}
}

// checkedIndices picks checkedCells cells of the seed's sweep cell space
// with a mix that does not depend on the seed: each stratum gets the count
// it has among the first checkedCells cells of the seed-0 space, and the
// seed's cells fill those quotas in index order. Seeds change which cells
// run, not how many of each kind. The scan stops after checkedScan cells,
// so set-up work is bounded; the rare quota left unfilled then goes to the
// first unused cells.
func checkedIndices(seed int64) []int {
	const checkedScan = 4 * checkedCells
	quota := make(map[checkStratum]int)
	for i := 0; i < checkedCells; i++ {
		quota[stratumOf(check.CellAt(0, i))]++
	}
	var out, spare []int
	for i := 0; len(out) < checkedCells && i < checkedScan; i++ {
		if k := stratumOf(check.CellAt(seed, i)); quota[k] > 0 {
			quota[k]--
			out = append(out, i)
		} else {
			spare = append(spare, i)
		}
	}
	out = append(out, spare[:checkedCells-len(out)]...)
	sort.Ints(out)
	return out
}

// newCheckedBench runs the sweepd cell space in-process: each cell is
// simulated under the invariant checker, VerifyHeap and an unbounded
// evtrace ring, then replayed bare, exactly as a fleet worker does.
func newCheckedBench(seed int64) *cellBench {
	runCell := fleet.CheckRunner(seed, check.RunOptions{})
	idx := checkedIndices(seed)
	b := newCellBench(len(idx))
	warm := fleet.CheckRunner(defaultSeed, check.RunOptions{})
	b.warmCell = func(w int, _ *jvm.Scratch) error {
		_, err := warm(w, nil)
		return err
	}
	b.run = func(i int, _ *jvm.Scratch, sp *spans, parent int) cellOut {
		id := sp.begin("check.RunCellOpts", parent)
		rec, err := runCell(idx[i], nil)
		sp.end(id)
		out := cellOut{digest: rec.Digest, stats: simStats{
			"evtrace.bus_events": float64(rec.Events),
			"evtrace.drops":      float64(rec.Drops),
			"check.violations":   float64(rec.Violations),
		}}
		switch {
		case err != nil:
			out.fail = err.Error()
		case rec.Failed || rec.Violations != 0 || rec.Drops != 0:
			out.fail = fmt.Sprintf("check cell %d failed: %s", idx[i], rec.Summary)
		}
		return out
	}
	b.replayCell = func(i int, tr *evtrace.Tracer) ([]*jvm.Result, error) {
		return replayCheckCell(check.CellAt(seed, idx[i]), tr)
	}
	return b
}

// replayCheckCell re-simulates a sweep cell the way check.RunCellOpts
// configures its checked run. The caller compares the replay's digest
// with the cell's, so a drift between the two configurations shows as a
// failure rather than as silently wrong counters.
func replayCheckCell(cell check.Cell, tr *evtrace.Tracer) ([]*jvm.Result, error) {
	p := workload.Lusearch()
	p.TotalItems = check.DefaultItems
	cfg := jvm.Config{
		Profile:        p,
		Mutators:       cell.Mutators,
		GCThreads:      cell.GCThreads,
		Affinity:       cell.Affinity,
		TaskAffinity:   cell.TaskAffinity,
		Steal:          cell.Steal,
		FastTerminator: cell.FastTerm,
		MutexPolicy:    cell.Mutex,
		VerifyHeap:     true,
	}
	var topo *ostopo.Topology
	switch cell.Topo {
	case "smt40":
		topo = ostopo.PaperTestbedSMT()
	case "small8":
		var err error
		if topo, err = ostopo.New(8, 1, 2); err != nil {
			return nil, err
		}
	default:
		topo = ostopo.PaperTestbed()
	}
	const maxSim = 5 * 60 * simkit.Second
	if cell.MultiJVM {
		cfgB := cfg
		cfgB.Mutators = 1 + cell.Mutators/2
		return jvm.RunMultiTraced(cell.Seed, topo, nil, cell.BusyLoops, maxSim, tr, cfg, cfgB)
	}
	r, err := jvm.Run(jvm.RunSpec{
		Config: cfg, Topo: topo, Seed: cell.Seed,
		BusyLoops: cell.BusyLoops, MaxSim: maxSim, EvTracer: tr,
	})
	if err != nil {
		return nil, err
	}
	return []*jvm.Result{r}, nil
}
