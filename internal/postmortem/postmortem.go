// Package postmortem answers the paper's §3 question automatically: why
// was this pause long, and which layer is to blame? It subscribes to the
// evtrace bus (the same pattern as internal/check) and reconstructs, for
// every collection, the pause critical path — decomposing wall time into
// named blame buckets: productive scan/copy work, jmutex handoff/block
// stalls, taskq steal-fail spin, termination-protocol wait, CFS
// preemption/migration gaps, and idle stacking.
//
// The decomposition is exact by construction. A pause is the serial init
// and final-sync phases plus the parallel window W = [parallel start,
// final-sync start]; within W, each GC worker's charge segments tile the
// window (the attribution state machine charges every interval between
// consecutive worker events to exactly one bucket), so the per-worker
// sums each equal |W| and the bucket decomposition — per-worker totals
// averaged over the worker count, with the integer-division residue
// folded into the largest bucket — sums to the measured pause wall time
// exactly. Misclassifying an interval can shift blame between buckets
// but can never break the sum.
//
// Like the checker, an Analyzer only observes: it never emits, never
// touches the simulation's RNG or event queue, and so cannot perturb
// behaviour — golden outputs are byte-identical with attribution on and
// off. A nil *Analyzer is valid and inert, preserving the bus's
// zero-alloc-when-disabled contract.
package postmortem

import "repro/internal/evtrace"

// Bucket names one blame category of pause wall time.
type Bucket uint8

const (
	// BucketWork is productive on-CPU collection work: root scanning,
	// object copy/mark, local-queue drain (§2.2's useful work).
	BucketWork Bucket = iota
	// BucketHandoff is time lost to the GCTaskManager monitor: parked
	// waiting for the serialized wake chain while tasks were pending, plus
	// the get_task critical sections themselves (§3.2's serialized
	// get_task / ownership-handoff pathology).
	BucketHandoff
	// BucketStealSpin is time burned in failed steal attempts (§2.3).
	BucketStealSpin
	// BucketTerm is time inside the termination protocol: offers, spins
	// and termination sleeps (§2.3, §4.2).
	BucketTerm
	// BucketCFSWait is runnable-but-not-running time: preemption gaps and
	// wakeup-to-dispatch latency charged to the OS scheduler (§3.3-3.4).
	BucketCFSWait
	// BucketIdle is asleep-with-nothing-to-fetch time while the collection
	// runs — fewer runnable GC threads than work sources (thread stacking
	// stragglers and serial sub-phases inside the parallel window).
	BucketIdle
	// BucketSerial is the VM thread's serial init and final-sync phases.
	BucketSerial

	// NumBuckets is the bucket count; PauseReport.Buckets is indexed by
	// Bucket.
	NumBuckets
)

var bucketNames = [NumBuckets]string{
	"work", "handoff", "steal_spin", "term_wait", "cfs_wait", "idle", "serial",
}

func (b Bucket) String() string {
	if int(b) < len(bucketNames) {
		return bucketNames[b]
	}
	return "?"
}

// BucketNames returns the bucket display names in Bucket index order.
func BucketNames() []string { return bucketNames[:] }

// PauseReport is the blame decomposition of one collection's pause.
type PauseReport struct {
	Engine  int    // Options.Instance of the collecting engine
	Seq     int    // collection sequence number within the engine
	Kind    string // "minor" | "major"
	StartNs int64
	EndNs   int64
	Workers int
	Buckets [NumBuckets]int64
	// SeqLo/SeqHi bound the collection on the event bus (first activation
	// event to the retrospective phase group) for Perfetto window export.
	SeqLo, SeqHi uint64
}

// PauseNs returns the measured pause wall time.
func (r *PauseReport) PauseNs() int64 { return r.EndNs - r.StartNs }

// Sum returns the bucket total (equal to PauseNs by construction).
func (r *PauseReport) Sum() int64 {
	var s int64
	for _, v := range r.Buckets {
		s += v
	}
	return s
}

// Dominant returns the largest bucket.
func (r *PauseReport) Dominant() Bucket {
	best := Bucket(0)
	for b := Bucket(1); b < NumBuckets; b++ {
		if r.Buckets[b] > r.Buckets[best] {
			best = b
		}
	}
	return best
}

// workerCtx is what a GC worker is doing between events.
type workerCtx uint8

const (
	ctxAsleep       workerCtx = iota // parked on the manager monitor
	ctxRunnableWait                  // woken, waiting to run + reacquire
	ctxFetch                         // inside the get_task critical section
	ctxWork                          // executing a task / draining
	ctxSteal                         // attempting steals
	ctxTerm                          // inside the termination protocol
)

// segment is one contiguous charge of a worker's time to a bucket.
type segment struct {
	bucket Bucket
	lo, hi int64
}

type workerState struct {
	eng       *engineState
	index     int   // worker index within the engine
	tid       int32 // cfs thread id
	ctx       workerCtx
	preempted bool // preempted off-CPU; intervals charge to CFSWait
	lastAt    int64
	stealTask int64 // active steal-task id (0 = none)
	segs      []segment
}

type engineState struct {
	instance int
	mgrName  string
	workers  []*workerState // indexed by worker index

	// pending counts enqueued-but-not-fetched tasks; the transition
	// timestamps drive the asleep handoff/idle split.
	pending        int
	pendingSinceAt int64 // when pending last became > 0
	zeroSinceAt    int64 // when pending last became 0

	active       bool
	activationAt int64
	seqLo        uint64

	// Retrospective phase group, captured just before finalize.
	spanStart, spanEnd int64
	spanKind           string
	spanSeq            int
	initNs, fsNs       int64
	parStart, parEnd   int64
}

// Analyzer is the online attribution engine. Create with New, wire with
// Attach, read results with Reports/Postmortem after the run.
type Analyzer struct {
	tr      *evtrace.Tracer
	engines map[int]*engineState
	byName  map[string]*engineState
	byTID   map[int32]*workerState
	order   []*engineState // engines sorted by instance
	reports []PauseReport
}

// New creates an empty Analyzer.
func New() *Analyzer {
	return &Analyzer{
		engines: make(map[int]*engineState),
		byName:  make(map[string]*engineState),
		byTID:   make(map[int32]*workerState),
	}
}

// Attach subscribes the analyzer to the kinds of the tracer's event
// stream that OnEvent handles. Safe on a nil tracer (no-op).
func (an *Analyzer) Attach(tr *evtrace.Tracer) {
	if an == nil || tr == nil {
		return
	}
	an.tr = tr
	tr.SubscribeKinds(an.OnEvent, analyzerKinds...)
}

// analyzerKinds lists the event kinds OnEvent handles; the analyzer
// ignores every other kind, so Attach subscribes to these alone.
var analyzerKinds = []evtrace.Kind{
	evtrace.KWorkerBind, evtrace.KTaskEnqueue, evtrace.KGetTask,
	evtrace.KStealOK, evtrace.KStealFail, evtrace.KTermOffer,
	evtrace.KTermSpin, evtrace.KTermDone, evtrace.KGCTask,
	evtrace.KLockBlock, evtrace.KLockUnblock, evtrace.KLockHandoff,
	evtrace.KLockFast, evtrace.KPreempt, evtrace.KRunqPop,
	evtrace.KGCSpan, evtrace.KGCPhase,
}

// Tracer returns the attached tracer (for Perfetto window export of
// worst pauses).
func (an *Analyzer) Tracer() *evtrace.Tracer { return an.tr }

// Reports returns one PauseReport per completed collection, in order.
func (an *Analyzer) Reports() []PauseReport {
	if an == nil {
		return nil
	}
	return an.reports
}

// Finish flushes the analyzer at end of run. A collection still open
// (activation seen, phase group not yet emitted) is dropped — its pause
// never completed, so there is nothing exact to report.
func (an *Analyzer) Finish() {}

// OnEvent consumes one bus event. It is the callback Attach subscribes to
// analyzerKinds; steady-state processing performs no allocation beyond
// amortized segment/report growth.
func (an *Analyzer) OnEvent(e evtrace.Event) {
	switch e.Kind {
	case evtrace.KWorkerBind:
		an.bind(e)
	case evtrace.KTaskEnqueue:
		an.taskEnqueue(e)
	case evtrace.KGetTask:
		an.getTask(e)
	case evtrace.KStealOK:
		if ws := an.workerByIndex(e.TID); ws != nil {
			an.charge(ws, e.At)
			ws.ctx = ctxWork
		}
	case evtrace.KStealFail:
		if ws := an.workerByIndex(e.TID); ws != nil {
			an.charge(ws, e.At)
			ws.ctx = ctxSteal
		}
	case evtrace.KTermOffer, evtrace.KTermSpin:
		if ws := an.workerByIndex(e.TID); ws != nil {
			an.charge(ws, e.At)
			ws.ctx = ctxTerm
		}
	case evtrace.KTermDone:
		an.termDone(e)
	case evtrace.KGCTask:
		an.taskDone(e)
	case evtrace.KLockBlock:
		if ws := an.managerWorker(e); ws != nil {
			an.charge(ws, e.At)
			ws.ctx = ctxAsleep
			ws.preempted = false
		}
	case evtrace.KLockUnblock:
		if ws := an.managerWorker(e); ws != nil && ws.ctx == ctxAsleep {
			an.charge(ws, e.At)
			ws.ctx = ctxRunnableWait
		}
	case evtrace.KLockHandoff, evtrace.KLockFast:
		if ws := an.managerWorker(e); ws != nil {
			an.charge(ws, e.At)
			ws.ctx = ctxFetch
		}
	case evtrace.KPreempt:
		if ws := an.byTID[e.TID]; ws != nil {
			an.charge(ws, e.At)
			ws.preempted = true
		}
	case evtrace.KRunqPop:
		// A dispatch pop ends a preemption gap; migration removals do not.
		if e.Arg2 == 0 {
			if ws := an.byTID[e.TID]; ws != nil && ws.preempted {
				an.charge(ws, e.At)
				ws.preempted = false
			}
		}
	case evtrace.KGCSpan:
		if eng := an.engines[int(e.Arg2)]; eng != nil {
			eng.spanStart, eng.spanEnd = e.At, e.At+e.Dur
			eng.spanKind, eng.spanSeq = e.Name, int(e.Arg1)
		}
	case evtrace.KGCPhase:
		an.phase(e)
	}
}

func (an *Analyzer) bind(e evtrace.Event) {
	inst, idx := int(e.Arg2), int(e.Arg1)
	eng := an.engines[inst]
	if eng == nil {
		eng = &engineState{instance: inst, mgrName: e.Name}
		an.engines[inst] = eng
		an.byName[e.Name] = eng
		// Keep the resolution order sorted by instance so the rare
		// worker-index ambiguity in multi-JVM runs resolves deterministically.
		pos := len(an.order)
		for i, o := range an.order {
			if o.instance > inst {
				pos = i
				break
			}
		}
		an.order = append(an.order, nil)
		copy(an.order[pos+1:], an.order[pos:])
		an.order[pos] = eng
	}
	for len(eng.workers) <= idx {
		eng.workers = append(eng.workers, nil)
	}
	if ws := eng.workers[idx]; ws != nil && ws.tid == e.TID {
		return // already bound (replayed stream)
	}
	ws := &workerState{eng: eng, index: idx, tid: e.TID, ctx: ctxFetch, lastAt: e.At}
	eng.workers[idx] = ws
	an.byTID[e.TID] = ws
}

// engineOf resolves an engine from a namespaced task id (instance in the
// high 32 bits, per pscavenge.finishTasks).
func (an *Analyzer) engineOf(taskID int64) *engineState {
	return an.engines[int(taskID>>32)]
}

// workerByIndex resolves taskq events, which carry only the worker index.
// Unambiguous with one engine; with several, prefer the engine whose
// worker at that index has an active steal task (ties break toward the
// lowest instance). A wrong pick shifts blame between two engines' spin
// buckets but cannot break either sum.
func (an *Analyzer) workerByIndex(idx int32) *workerState {
	if len(an.order) == 1 {
		eng := an.order[0]
		if int(idx) < len(eng.workers) {
			return eng.workers[idx]
		}
		return nil
	}
	var fallback *workerState
	for _, eng := range an.order {
		if int(idx) >= len(eng.workers) {
			continue
		}
		ws := eng.workers[idx]
		if ws == nil {
			continue
		}
		if ws.stealTask != 0 {
			return ws
		}
		if fallback == nil && eng.active {
			fallback = ws
		}
	}
	return fallback
}

// managerWorker resolves a jmutex event to a GC worker, requiring that the
// monitor is the worker's own engine's GCTaskManager (the VM thread and
// application locks fall out here).
func (an *Analyzer) managerWorker(e evtrace.Event) *workerState {
	ws := an.byTID[e.TID]
	if ws == nil || an.byName[e.Name] != ws.eng {
		return nil
	}
	return ws
}

func (an *Analyzer) taskEnqueue(e evtrace.Event) {
	eng := an.engineOf(e.Arg1)
	if eng == nil {
		return
	}
	if eng.pending == 0 {
		eng.pendingSinceAt = e.At
		if !eng.active {
			an.activate(eng, e)
		}
	}
	eng.pending++
}

// activate opens a collection: the first enqueue of a quiet engine. The
// activation instant coincides with the start of the parallel phase (the
// VM thread enqueues right after charging init), so worker charge cursors
// reset here and the segments recorded until the retrospective phase
// group tile the parallel window.
func (an *Analyzer) activate(eng *engineState, e evtrace.Event) {
	eng.active = true
	eng.activationAt = e.At
	eng.zeroSinceAt = e.At
	eng.seqLo = e.Seq
	for _, ws := range eng.workers {
		if ws == nil {
			continue
		}
		ws.lastAt = e.At
		ws.segs = ws.segs[:0]
	}
}

func (an *Analyzer) getTask(e evtrace.Event) {
	eng := an.engineOf(e.Arg2)
	if eng == nil || int(e.TID) >= len(eng.workers) {
		return
	}
	ws := eng.workers[e.TID]
	if ws == nil {
		return
	}
	an.charge(ws, e.At)
	if eng.pending > 0 {
		eng.pending--
		if eng.pending == 0 {
			eng.zeroSinceAt = e.At
		}
	}
	if isStealKind(e.Name) {
		ws.ctx = ctxSteal
		ws.stealTask = e.Arg2
	} else {
		ws.ctx = ctxWork
		ws.stealTask = 0
	}
}

func isStealKind(name string) bool {
	return name == "StealTask" || name == "MarkStealTask"
}

func (an *Analyzer) termDone(e evtrace.Event) {
	eng := an.byName[e.Name]
	if eng == nil {
		return
	}
	for _, ws := range eng.workers {
		if ws == nil {
			continue
		}
		an.charge(ws, e.At)
		if ws.ctx == ctxTerm || ws.ctx == ctxSteal {
			ws.ctx = ctxFetch
		}
		ws.stealTask = 0
	}
}

// taskDone handles the retrospective per-task span: it closes a work
// interval for ordinary tasks. Steal tasks are ignored — their interior
// is already attributed by the steal/termination machine.
func (an *Analyzer) taskDone(e evtrace.Event) {
	if isStealKind(e.Name) {
		return
	}
	eng := an.engineOf(e.Arg1)
	if eng == nil || int(e.TID) >= len(eng.workers) {
		return
	}
	ws := eng.workers[e.TID]
	if ws == nil {
		return
	}
	an.charge(ws, e.At+e.Dur)
	ws.ctx = ctxFetch
}

// charge attributes [ws.lastAt, now] to the bucket implied by the
// worker's context and advances the cursor. Outside an active collection
// only the cursor moves.
func (an *Analyzer) charge(ws *workerState, now int64) {
	if now < ws.lastAt {
		return
	}
	lo, hi := ws.lastAt, now
	ws.lastAt = now
	eng := ws.eng
	if !eng.active || hi == lo {
		return
	}
	if ws.preempted {
		ws.addSeg(BucketCFSWait, lo, hi)
		return
	}
	switch ws.ctx {
	case ctxAsleep:
		// Split park time by the pending-task state: asleep while tasks
		// were fetchable is handoff blame (the §3.2-3.3 serialized wake
		// chain / stacking), asleep with nothing pending is idle.
		if eng.pending > 0 {
			ps := clamp(eng.pendingSinceAt, lo, hi)
			ws.addSeg(BucketIdle, lo, ps)
			ws.addSeg(BucketHandoff, ps, hi)
		} else {
			zs := clamp(eng.zeroSinceAt, lo, hi)
			ws.addSeg(BucketHandoff, lo, zs)
			ws.addSeg(BucketIdle, zs, hi)
		}
	case ctxRunnableWait:
		ws.addSeg(BucketCFSWait, lo, hi)
	case ctxFetch:
		ws.addSeg(BucketHandoff, lo, hi)
	case ctxWork:
		ws.addSeg(BucketWork, lo, hi)
	case ctxSteal:
		ws.addSeg(BucketStealSpin, lo, hi)
	case ctxTerm:
		ws.addSeg(BucketTerm, lo, hi)
	}
}

func (ws *workerState) addSeg(b Bucket, lo, hi int64) {
	if hi <= lo {
		return
	}
	// Merge with the previous segment when contiguous and same-bucket, so
	// steal-fail storms collapse instead of growing the slice per event.
	if n := len(ws.segs); n > 0 && ws.segs[n-1].bucket == b && ws.segs[n-1].hi == lo {
		ws.segs[n-1].hi = hi
		return
	}
	ws.segs = append(ws.segs, segment{bucket: b, lo: lo, hi: hi})
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// phase consumes the retrospective phase group emitted after a collection
// ends (KGCSpan, then init/parallel/final-sync KGCPhase). The final-sync
// phase is the last of the group and triggers finalization.
func (an *Analyzer) phase(e evtrace.Event) {
	eng := an.engines[int(e.Arg2)]
	if eng == nil {
		return
	}
	switch e.Name {
	case "init":
		eng.initNs = e.Dur
	case "parallel":
		eng.parStart, eng.parEnd = e.At, e.At+e.Dur
	case "final-sync":
		eng.fsNs = e.Dur
		an.finalize(eng, e.Seq)
	}
}

// finalize clips every worker's charge segments to the parallel window,
// averages the per-bucket totals over the worker count, folds the
// integer-division residue into the largest bucket, and adds the serial
// phases — producing a PauseReport whose buckets sum to the pause wall
// time exactly.
func (an *Analyzer) finalize(eng *engineState, seqHi uint64) {
	if !eng.active {
		return
	}
	lo, hi := eng.parStart, eng.parEnd
	var totals [NumBuckets]int64
	workers := 0
	for _, ws := range eng.workers {
		if ws == nil {
			continue
		}
		workers++
		an.charge(ws, hi) // flush the tail up to the window end
		first := -1
		var covered int64
		for _, s := range ws.segs {
			a, b := s.lo, s.hi
			if a < lo {
				a = lo
			}
			if b > hi {
				b = hi
			}
			if b <= a {
				continue
			}
			if first < 0 {
				first = int(s.bucket)
			}
			totals[s.bucket] += b - a
			covered += b - a
		}
		// Segments are contiguous from activation to the flush, and
		// activation coincides with the window start, so any shortfall is
		// sub-event-granularity; extend the first covered bucket (or idle
		// for an eventless worker) so each worker tiles the window exactly.
		if gap := (hi - lo) - covered; gap > 0 {
			if first < 0 {
				first = int(BucketIdle)
			}
			totals[first] += gap
		}
	}

	rep := PauseReport{
		Engine: eng.instance, Seq: eng.spanSeq, Kind: eng.spanKind,
		StartNs: eng.spanStart, EndNs: eng.spanEnd,
		Workers: workers, SeqLo: eng.seqLo, SeqHi: seqHi,
	}
	window := hi - lo
	if workers > 0 {
		var sum int64
		largest := 0
		for b := 0; b < int(BucketSerial); b++ {
			rep.Buckets[b] = totals[b] / int64(workers)
			sum += rep.Buckets[b]
			if rep.Buckets[b] > rep.Buckets[largest] {
				largest = b
			}
		}
		rep.Buckets[largest] += window - sum
	} else {
		rep.Buckets[BucketIdle] = window
	}
	rep.Buckets[BucketSerial] = eng.initNs + eng.fsNs
	an.reports = append(an.reports, rep)

	eng.active = false
	for _, ws := range eng.workers {
		if ws != nil {
			ws.segs = ws.segs[:0]
		}
	}
}
