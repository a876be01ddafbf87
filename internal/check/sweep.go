package check

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"

	"repro/internal/affinity"
	"repro/internal/evtrace"
	"repro/internal/gclog"
	"repro/internal/jmutex"
	"repro/internal/jvm"
	"repro/internal/ostopo"
	"repro/internal/simkit"
	"repro/internal/taskq"
	"repro/internal/workload"
)

// Cell is one randomized configuration of the seed-sweep property harness:
// a (seed, topology, thread counts, policy knobs) point in the space the
// paper's experiments traverse. Cells are generated deterministically from
// a base seed, so a failing cell reproduces from its Index alone.
type Cell struct {
	Index int
	Seed  int64
	Topo  string // "paper20" | "smt40" | "small8"

	GCThreads int
	Mutators  int
	BusyLoops int
	MultiJVM  bool // run two JVMs sharing the machine (§5.7)

	Mutex        jmutex.Policy
	Steal        taskq.PolicyKind
	Affinity     affinity.Mode
	TaskAffinity bool
	FastTerm     bool
}

// String renders the cell compactly for failure reports.
func (c Cell) String() string {
	multi := ""
	if c.MultiJVM {
		multi = " multi-jvm"
	}
	return fmt.Sprintf(
		"cell %d: seed=%d topo=%s gc=%d mut=%d busy=%d%s mutex=%s steal=%s aff=%s taskaff=%v fastterm=%v",
		c.Index, c.Seed, c.Topo, c.GCThreads, c.Mutators, c.BusyLoops, multi,
		c.Mutex, c.Steal, c.Affinity, c.TaskAffinity, c.FastTerm)
}

// topology materializes the cell's named topology.
func (c Cell) topology() *ostopo.Topology {
	switch c.Topo {
	case "smt40":
		return ostopo.PaperTestbedSMT()
	case "small8":
		t, err := ostopo.New(8, 1, 2)
		if err != nil {
			panic(err)
		}
		return t
	default:
		return ostopo.PaperTestbed()
	}
}

var (
	cellTopos    = []string{"paper20", "paper20", "smt40", "small8"}
	cellMutexes  = []jmutex.Policy{jmutex.PolicyHotSpot, jmutex.PolicyHotSpot, jmutex.PolicyFairFIFO, jmutex.PolicyNoFastPath, jmutex.PolicyWakeAll}
	cellSteals   = []taskq.PolicyKind{taskq.KindBestOf2, taskq.KindSemiRandom, taskq.KindNUMARestricted}
	cellAffinity = []affinity.Mode{affinity.ModeNone, affinity.ModeStatic, affinity.ModeDynamic, affinity.ModeNUMANode}
)

// Cells derives n sweep cells from baseSeed. The derivation is pure: the
// same (baseSeed, n) always yields the same matrix, and cell i is
// independent of n (prefixes agree), so "-cells 32" smokes the head of the
// same sweep "-cells 256" runs in full.
func Cells(baseSeed int64, n int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = CellAt(baseSeed, i)
	}
	return cells
}

// CellAt derives sweep cell i of the baseSeed space in O(1) — the same
// cell Cells(baseSeed, n)[i] yields for any n > i. A sweep leans on this:
// a cell is named by its index alone, so a failing cell of a 100k-cell
// sweep reproduces without deriving (or even knowing) the rest.
func CellAt(baseSeed int64, i int) Cell {
	// One private generator per cell keeps prefix stability.
	rng := rand.New(rand.NewSource(baseSeed + int64(i)*1000003))
	c := Cell{
		Index:        i,
		Seed:         baseSeed + int64(i),
		Topo:         cellTopos[rng.Intn(len(cellTopos))],
		GCThreads:    2 + rng.Intn(15), // 2..16
		Mutators:     1 + rng.Intn(12), // 1..12
		Mutex:        cellMutexes[rng.Intn(len(cellMutexes))],
		Steal:        cellSteals[rng.Intn(len(cellSteals))],
		Affinity:     cellAffinity[rng.Intn(len(cellAffinity))],
		TaskAffinity: rng.Intn(2) == 1,
		FastTerm:     rng.Intn(2) == 1,
	}
	if rng.Intn(4) == 0 {
		c.BusyLoops = 1 + rng.Intn(4)
	}
	// Every eighth cell (on average) shares its machine between two
	// JVMs, exercising the multi-instance id/monitor namespacing.
	c.MultiJVM = rng.Intn(8) == 0
	return c
}

// CellResult is the outcome of running one cell through the harness.
type CellResult struct {
	Cell       Cell
	Events     uint64 // bus events validated in the checked run
	Violations []Violation
	Total      int    // violations including any past the retention cap
	Digest     string // SHA-256 of the checked run's observable output
	BareDigest string // same digest from the uninstrumented replay
	Err        error  // simulation-level failure (OOM, deadlock, panic)

	// Drops counts events the triage replay's ring sinks discarded (see
	// Triage); it is zero for a cell that passed, which is never replayed.
	// A nonzero count means the window WriteViolationWindow exports from
	// Tracer is incomplete, and the summary says so.
	Drops uint64

	// BlameViolations lists collections whose postmortem blame buckets do
	// not sum to their pause wall time — the attribution engine's own
	// invariant, checked on every cell of the sweep.
	BlameViolations []string

	// Pathology is the postmortem classifier's verdict for the checked run
	// (§3 taxonomy family, or "healthy"). Deterministic per cell, so the
	// sweep report can merge pathology counts across the whole sweep.
	Pathology string

	// Tracer holds the triage replay of a failed cell (see Triage), for
	// exporting a pre-violation window for Perfetto triage; nil for a cell
	// that passed.
	Tracer *evtrace.Tracer

	items int // the workload size the cell ran at (RunOptions.Items)
}

// Failed reports whether the cell found a problem of any sort.
func (r *CellResult) Failed() bool {
	return r.Total > 0 || r.Err != nil || r.Digest != r.BareDigest ||
		r.Drops > 0 || len(r.BlameViolations) > 0
}

// Summary renders the failure modes of one result.
func (r *CellResult) Summary() string {
	if !r.Failed() {
		return fmt.Sprintf("%s: ok (%d events)", r.Cell, r.Events)
	}
	s := fmt.Sprintf("%s: FAIL", r.Cell)
	if r.Err != nil {
		s += fmt.Sprintf("\n  run error: %v", r.Err)
	}
	if r.Digest != r.BareDigest {
		s += fmt.Sprintf("\n  determinism: checked run digest %s != bare digest %s",
			short(r.Digest), short(r.BareDigest))
	}
	if r.Drops > 0 {
		s += fmt.Sprintf("\n  evtrace: %d events dropped from the triage replay's ring sinks (window incomplete)", r.Drops)
	}
	for _, v := range r.BlameViolations {
		s += "\n  postmortem: " + v
	}
	for _, v := range r.Violations {
		s += "\n  " + v.String()
	}
	if r.Total > len(r.Violations) {
		s += fmt.Sprintf("\n  ... %d more suppressed", r.Total-len(r.Violations))
	}
	return s
}

func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// DefaultItems is the per-cell workload size RunCell simulates: lusearch
// shrunk far enough that a cell runs in tens of milliseconds while still
// triggering several full GC cycles.
const DefaultItems = 1500

// RunOptions tune how a sweep cell executes. The zero value reproduces
// RunCell's classic behaviour: the default workload size and a bare
// determinism replay.
type RunOptions struct {
	// Items overrides the cell workload's total item count (0 uses
	// DefaultItems). Very large sweeps shrink it to trade per-cell depth
	// for cell count; digests are only comparable at equal Items.
	Items int
	// SkipBare skips the uninstrumented replay. The determinism
	// differential is lost for that cell (BareDigest mirrors Digest), but
	// the cell costs one simulation instead of two — sweepd's fast mode
	// for very large sweeps, where comparing the report across runs and
	// -jobs values still covers replay stability.
	SkipBare bool
}

// sweepProfile is the workload each cell runs (young-gen pressure scales
// with mutator count, so every cell still exercises several GCs).
func sweepProfile(items int) workload.Profile {
	p := workload.Lusearch()
	if items <= 0 {
		items = DefaultItems
	}
	p.TotalItems = items
	return p
}

// RunCell executes one cell twice — once instrumented (tracer + checker +
// heap verification) and once bare — and cross-checks the two: the checker
// must stay silent, and both runs must produce byte-identical observable
// output (the determinism differential; it simultaneously proves same-seed
// replay stability and that the checker/tracer never perturb a run).
func RunCell(cell Cell) *CellResult {
	return RunCellOpts(cell, RunOptions{})
}

// RunCellOpts is RunCell with explicit RunOptions.
func RunCellOpts(cell Cell, o RunOptions) *CellResult {
	return runPooled(&cellScratch, cell, o, Observers{Check: true, Postmortem: true})
}

// cellScratch recycles machine storage (jvm.Scratch) across the cells a
// process checks, so a sweep's cells do not each rebuild the simulator's
// arenas from nothing. Reuse never changes a digest (see jvm.Scratch).
var cellScratch = sync.Pool{New: func() any { return new(jvm.Scratch) }}

// scratchPool is the part of sync.Pool runPooled uses; tests substitute a
// pool that records what comes back.
type scratchPool interface {
	Get() any
	Put(any)
}

// runPooled runs the cell's checked run under obs (which must include
// the checker and the analyzer) and its bare replay, both on one scratch
// from pool. The scratch goes back to the pool only when neither run
// panicked: a panic can leave the machine's storage mid-update. A cell
// that failed is then replayed for triage (Triage).
func runPooled(pool scratchPool, cell Cell, o RunOptions, obs Observers) *CellResult {
	sc := pool.Get().(*jvm.Scratch)
	res := runChecked(cell, o, obs, sc)
	var pe *panicError
	if !errors.As(res.Err, &pe) {
		pool.Put(sc)
	}
	if res.Failed() {
		res.Triage()
	}
	return res
}

// runChecked runs the cell's checked run under obs, then its bare replay,
// on scratch sc.
func runChecked(cell Cell, o RunOptions, obs Observers, sc *jvm.Scratch) *CellResult {
	res := &CellResult{Cell: cell, items: o.Items}
	checked, err := Simulate(cell, o.Items, obs, sc)
	if err != nil {
		res.Err = err
		return res
	}
	res.Events = checked.Checker.EventsSeen()
	res.Violations = checked.Checker.Violations()
	res.Total = checked.Checker.Total()
	ex := checked.Analyzer.Export()
	res.BlameViolations = ex.Verify()
	res.Pathology = ex.Pathology
	res.Digest = digestResults(checked.Results)

	if o.SkipBare {
		res.BareDigest = res.Digest
		return res
	}
	bare, err := Simulate(cell, o.Items, Observers{}, sc)
	if err != nil {
		res.Err = fmt.Errorf("bare replay: %w", err)
		return res
	}
	res.BareDigest = digestResults(bare.Results)
	return res
}

// Triage replays the cell once more for its triage window: cold, on
// DefaultSinkCap rings with a checker attached, under the same panic
// recovery. It sets Tracer and Drops from the replay. The checked run
// keeps no records, and it needs none: Seq does not depend on retention,
// and the checked-vs-bare digest differential shows that a same-seed
// replay is the same run, so the replay's rings hold exactly the window
// the checked run would have retained. RunCellOpts triages every cell that
// failed; callers that fail a cell on grounds of their own call it too.
func (r *CellResult) Triage() {
	// A run error repeats the checked run's, which r already reports; the
	// rings hold the events up to it.
	ob, _ := Simulate(r.Cell, r.items, Observers{Check: true, Rings: evtrace.DefaultSinkCap}, nil)
	r.Tracer, r.Drops = ob.Tracer, 0
	for _, d := range ob.Tracer.Drops() {
		r.Drops += d
	}
}

// panicError is a run that panicked (e.g. a tripped VerifyHeap assertion).
type panicError struct{ v any }

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.v) }

// Simulate runs the cell once with the checked run's configuration and
// the observers obs, on scratch storage sc (nil runs cold). Panics surface
// as *panicError so the sweep reports the cell instead of dying; the
// returned set is non-nil either way, holding what the observers saw up
// to the failure.
func Simulate(cell Cell, items int, obs Observers, sc *jvm.Scratch) (ob *Observed, err error) {
	cfg := jvm.Config{
		Profile:        sweepProfile(items),
		Mutators:       cell.Mutators,
		GCThreads:      cell.GCThreads,
		Affinity:       cell.Affinity,
		TaskAffinity:   cell.TaskAffinity,
		Steal:          cell.Steal,
		FastTerminator: cell.FastTerm,
		MutexPolicy:    cell.Mutex,
		VerifyHeap:     true,
	}
	cfgs := []jvm.Config{cfg}
	if cell.MultiJVM {
		cfgB := cfg
		cfgB.Mutators = 1 + cell.Mutators/2
		cfgs = append(cfgs, cfgB)
	}
	spec := jvm.RunSpec{
		Topo: cell.topology(), Seed: cell.Seed, BusyLoops: cell.BusyLoops,
		MaxSim: 5 * 60 * simkit.Second, Scratch: sc,
	}
	ob = obs.attach()
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{r}
		}
	}()
	return ob, ob.run(spec, cfgs)
}

// digestResults hashes everything a run reports — the per-GC reports, lock
// and steal statistics, and the aggregate times — into one hex digest.
// Byte-identical digests across replays are the determinism property the
// harness enforces.
func digestResults(results []*jvm.Result) string {
	h := sha256.New()
	for _, r := range results {
		fmt.Fprintf(h, "total=%d gc=%d mutator=%d minor=%d major=%d ops=%.6f\n",
			r.TotalTime, r.GCTime, r.MutatorTime, r.MinorGCs, r.MajorGCs, r.ThroughputOPS)
		if err := gclog.WriteRunJSON(h, r.Reports, r.Monitor, r.Steal, nil); err != nil {
			fmt.Fprintf(h, "gclog error: %v\n", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// WriteViolationWindow exports the slice of the cell's event bus leading up
// to (and including) the violation as Perfetto trace-event JSON: the
// pre-violation window one loads into ui.perfetto.dev to see what the
// scheduler, locks, and task queues were doing when the invariant broke.
// window is how many bus sequence numbers of context to keep (0 uses 400).
func WriteViolationWindow(w io.Writer, tr *evtrace.Tracer, v Violation, window uint64) error {
	if window == 0 {
		window = 400
	}
	lo := uint64(1)
	if v.Seq > window {
		lo = v.Seq - window
	}
	hi := v.Seq
	if hi == 0 { // Finish-time violation: export the tail of the run
		hi = ^uint64(0)
	}
	return evtrace.WritePerfettoWindow(w, tr, lo, hi)
}
