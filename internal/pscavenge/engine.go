package pscavenge

import (
	"fmt"

	"repro/internal/cfs"
	"repro/internal/evtrace"
	"repro/internal/heap"
	"repro/internal/jmutex"
	"repro/internal/ostopo"
	"repro/internal/simkit"
	"repro/internal/taskq"
)

// Options configure the collector.
type Options struct {
	// Threads is the GC thread count; 0 applies HotSpot's heuristic.
	Threads int
	// SpawnCore is where GC threads are created (they start stacked there,
	// like real GCTaskThreads created at JVM launch).
	SpawnCore ostopo.CoreID
	// MutexPolicy selects the GCTaskManager monitor discipline.
	MutexPolicy jmutex.Policy
	// StealKind selects the work-stealing victim policy.
	StealKind taskq.PolicyKind
	// NodeOf maps worker index to NUMA node (KindNUMARestricted only);
	// it also enables Gidra's 2·N_local termination threshold.
	NodeOf []int
	// FastTerminator enables the paper's FastParallelTaskTerminator.
	FastTerminator bool
	// TaskAffinity assigns root tasks an affinity worker and makes
	// get_task prefer matching tasks (§4.1).
	TaskAffinity bool
	// OnWorkerStart runs in each GC thread before its first get_task
	// (static/node affinity binding).
	OnWorkerStart func(e *cfs.Env, worker int)
	// OnGCWake runs in each GC thread the first time it dispatches a task
	// of a new GC cycle (dynamic affinity rebalancing, Algorithm 1).
	OnGCWake func(e *cfs.Env, worker int)
	// AdaptiveSizing enables the simple generation-resizing feedback of
	// the final synchronization phase.
	AdaptiveSizing bool
	// RecordLockLog enables the GCTaskManager monitor's acquisition log
	// (the §3.2 root-cause trace; see Engine.LockLog).
	RecordLockLog bool
	// VerifyHeap runs the heap's invariant checker after every collection
	// (accounting, space lists, remembered-set completeness) and panics on
	// a violation — the simulation analogue of -XX:+VerifyAfterGC.
	VerifyHeap bool
	// NUMA enables the memory-locality cost model: tracing or copying an
	// object homed on a remote node costs RemoteFactor times as much, and
	// a copy rehomes the object on the copying thread's node (first-touch,
	// as in NumaGiC). nil = uniform memory.
	NUMA *NUMAModel
	// Instance distinguishes engines sharing one kernel (multi-JVM
	// machines, §5.7): it suffixes the GCTaskManager monitor name and
	// namespaces task ids so one event bus carries unambiguous streams.
	Instance int
	// Costs overrides the calibration (nil = DefaultCosts).
	Costs *Costs
	// Metrics, when non-nil, receives the unified counter namespace
	// (jmutex.*, taskq.*, cfs.*, gc.*) snapshotted after every collection.
	Metrics *evtrace.Registry
}

// Engine is a Parallel Scavenge collector bound to one heap and kernel.
type Engine struct {
	K     *cfs.Kernel
	H     *heap.Heap
	Opt   Options
	Costs Costs

	mgr     *manager
	queues  []taskq.Deque[heap.ObjID]
	policy  taskq.Policy
	pool    taskq.Pool // hoisted poolView: one interface conversion, ever
	workers []*cfs.Thread
	wstates []workerState

	vmThread  *cfs.Thread
	gcSeq     int
	taskSeq   int64
	seenEpoch []int
	bar       *barrier
	etr       *evtrace.Tracer // captured from the kernel at construction

	initialEden int64

	// Per-collection scratch, recycled so steady-state collections allocate
	// nothing (the bench-guard contract of BenchmarkMinorGC). Retired
	// records sit on the pend* lists until reclaim observes every worker
	// idle on the manager's WaitSet — a termination straggler may hold
	// references into the previous cohort well past the pause — and only
	// then move to the free lists for reuse.
	taskFree  []*GCTask // recycled task records
	pendTasks []*GCTask // retired task records awaiting quiescence
	taskBuf   []*GCTask // reusable task-list backing
	partBuf   [][]heap.ObjID
	termFree  []*terminator
	pendTerms []*terminator
	barScr    barrier
	repFree   []*GCReport // rewindable reports
	pendReps  []*GCReport // reports returned via RecycleReports
	localThr  []int       // cached localThreads() (topology is fixed at New)

	// Reports holds one entry per collection, in order.
	Reports []*GCReport
	// Steal accumulates steal counters across all collections (Table 1).
	Steal *taskq.Stats
}

// NUMAModel prices remote memory accesses during collection.
type NUMAModel struct {
	Topo *ostopo.Topology
	// RemoteFactor multiplies per-object costs for cross-node accesses
	// (typical inter-socket latency ratios are 1.4-2.0).
	RemoteFactor float64
}

type poolView struct{ g *Engine }

func (p poolView) NumQueues() int     { return len(p.g.queues) }
func (p poolView) QueueLen(i int) int { return p.g.queues[i].Len() }

// New creates the collector and spawns its GC threads (all on
// Opt.SpawnCore, where they immediately block on the task-manager monitor).
func New(k *cfs.Kernel, h *heap.Heap, opt Options) *Engine {
	g := &Engine{K: k, H: h, Opt: opt, Costs: DefaultCosts()}
	if opt.Costs != nil {
		g.Costs = *opt.Costs
	}
	n := opt.Threads
	if n <= 0 {
		n = DefaultGCThreads(k.NumCPUs())
	}
	g.queues = make([]taskq.Deque[heap.ObjID], n)
	g.pool = poolView{g}
	g.etr = k.EvTracer()
	g.policy = taskq.Traced(opt.StealKind.Make(n, opt.NodeOf), g.etr,
		func() int64 { return int64(k.Sim.Now()) })
	g.Steal = taskq.NewStats(n)
	g.seenEpoch = make([]int, n)
	for i := range g.seenEpoch {
		g.seenEpoch[i] = -1
	}
	g.mgr = newManager(g, opt.MutexPolicy, opt.TaskAffinity)
	g.mgr.mon.RecordLog = opt.RecordLockLog
	g.initialEden = h.Config().EdenBytes
	g.localThr = g.localThreads()
	g.workers = make([]*cfs.Thread, n)
	g.wstates = make([]workerState, n)
	for w := 0; w < n; w++ {
		w := w
		g.workers[w] = k.Spawn(fmt.Sprintf("GCTaskThread#%d", w), opt.SpawnCore, func(e *cfs.Env) {
			if g.etr != nil {
				// Bind the CFS thread id to the engine identity: worker
				// names collide across multi-JVM instances, so attribution
				// (internal/postmortem) keys on this instead of names.
				g.etr.Emit(evtrace.Event{Kind: evtrace.KWorkerBind,
					At: int64(e.Now()), Core: int32(e.Core()), TID: int32(e.T.ID),
					Arg1: int64(w), Arg2: int64(g.Opt.Instance), Name: g.mgr.mon.Name})
			}
			if g.Opt.OnWorkerStart != nil {
				g.Opt.OnWorkerStart(e, w)
			}
			g.workerPlan(e, w)
		})
	}
	return g
}

// Threads returns the number of GC threads.
func (g *Engine) Threads() int { return len(g.queues) }

// Workers exposes the GC threads (for scheduling analyses in tests).
func (g *Engine) Workers() []*cfs.Thread { return g.workers }

// Shutdown releases the GC threads; call from the VM thread when done.
func (g *Engine) Shutdown(e *cfs.Env) { g.mgr.close(e) }

func isYoung(sp heap.Space) bool { return sp == heap.SpaceEden || sp == heap.SpaceFrom }

// numaAdjust applies the NUMA model to one object access: remote objects
// cost RemoteFactor times as much; a copy (rehome=true) moves the object to
// the accessing thread's node. core is the accessing thread's current core.
func (g *Engine) numaAdjust(core ostopo.CoreID, id heap.ObjID, cost simkit.Time, rep *GCReport, rehome bool) simkit.Time {
	m := g.Opt.NUMA
	myNode := m.Topo.Node(core)
	if int(g.H.NodeOf(id)) != myNode {
		rep.RemoteAccesses++
		cost = simkit.Time(float64(cost) * m.RemoteFactor)
		if rehome {
			g.H.SetNode(id, uint8(myNode))
		}
	} else {
		rep.LocalAccesses++
	}
	return cost
}

// --- collection entry points (called from the VM thread) -------------------

// RunMinorGC performs one stop-the-world scavenge. The caller (VM thread)
// must have suspended the mutators. Returns the collection's report.
func (g *Engine) RunMinorGC(e *cfs.Env, roots RootSet) *GCReport {
	g.reclaim()
	g.gcSeq++
	rep := g.newReport(Minor, g.gcSeq, e.Now())
	rep.Before = g.snapshot()
	g.vmThread = e.T
	g.H.BeginMinorGC()

	tasks, term := g.buildMinorTasks(roots, rep)
	// Phase 1: initialization — root preparation while GC threads sleep.
	e.Compute(g.Costs.RootPrepBase + simkit.Time(len(tasks))*g.Costs.RootPrepPerTask)
	rep.InitTime = e.Now() - rep.Start

	g.mgr.enqueueAll(e, tasks)
	for !term.done {
		e.Park()
	}

	// Phase 3: final synchronization.
	fs := e.Now()
	e.Compute(g.Costs.FinalSync)
	rep.FreedBytes = g.H.FinishMinorGC()
	if g.Opt.AdaptiveSizing {
		g.adaptTenuring()
		g.resize()
	}
	rep.FinalSyncTime = e.Now() - fs
	rep.After = g.snapshot()
	rep.End = e.Now()
	g.taskBuf = g.retireTasks(tasks)
	g.Reports = append(g.Reports, rep)
	g.emitPhases(rep, fs)
	g.publishMetrics(rep)
	g.verify()
	return rep
}

// emitPhases publishes the collection and its three phases as nested spans
// on the GC-phases track (§2.2's decomposition: initialization, parallel,
// final synchronization).
func (g *Engine) emitPhases(rep *GCReport, fsStart simkit.Time) {
	if g.etr == nil {
		return
	}
	parStart := rep.Start + rep.InitTime
	inst := int64(g.Opt.Instance)
	g.etr.Emit(evtrace.Event{Kind: evtrace.KGCSpan, At: int64(rep.Start),
		Dur: int64(rep.End - rep.Start), Core: -1, TID: -1,
		Name: rep.Kind.String(), Arg1: int64(rep.Seq), Arg2: inst})
	g.etr.Emit(evtrace.Event{Kind: evtrace.KGCPhase, At: int64(rep.Start),
		Dur: int64(rep.InitTime), Core: -1, TID: -1, Name: "init", Arg1: int64(rep.Seq), Arg2: inst})
	g.etr.Emit(evtrace.Event{Kind: evtrace.KGCPhase, At: int64(parStart),
		Dur: int64(fsStart - parStart), Core: -1, TID: -1, Name: "parallel", Arg1: int64(rep.Seq), Arg2: inst})
	g.etr.Emit(evtrace.Event{Kind: evtrace.KGCPhase, At: int64(fsStart),
		Dur: int64(rep.End - fsStart), Core: -1, TID: -1, Name: "final-sync", Arg1: int64(rep.Seq), Arg2: inst})
}

// publishMetrics republishes the layers' counters into the unified
// registry and snapshots it, once per collection.
func (g *Engine) publishMetrics(rep *GCReport) {
	reg := g.Opt.Metrics
	if reg == nil {
		return
	}
	ms := g.mgr.mon.Stats
	reg.Counter("jmutex.fast_acquires").Set(int64(ms.FastAcquires))
	reg.Counter("jmutex.slow_acquires").Set(int64(ms.SlowAcquires))
	reg.Counter("jmutex.owner_reacquires").Set(int64(ms.OwnerReacquires))
	reg.Counter("jmutex.bypasses").Set(int64(ms.Bypasses))
	reg.Counter("jmutex.handoffs").Set(int64(ms.Handoffs))
	reg.Counter("jmutex.park_events").Set(int64(ms.ParkEvents))
	reg.Counter("jmutex.max_concurrent_seekers").Set(int64(ms.MaxConcurrentSeekers))
	reg.Counter("taskq.steal_attempts").Set(g.Steal.TotalAttempts())
	reg.Counter("taskq.steal_failures").Set(g.Steal.TotalFailures())
	reg.Gauge("taskq.steal_failure_rate").Set(g.Steal.FailureRate())
	ks := g.K.Stats
	reg.Counter("cfs.preemptions").Set(int64(ks.Preemptions))
	reg.Counter("cfs.wake_preemptions").Set(int64(ks.WakePreemptions))
	reg.Counter("cfs.newidle_pulls").Set(int64(ks.NewIdlePulls))
	reg.Counter("cfs.periodic_pulls").Set(int64(ks.PeriodicPulls))
	reg.Counter("cfs.context_switches").Set(int64(ks.ContextSwitches))
	reg.Counter("gc.collections").Set(int64(len(g.Reports)))
	reg.Counter("gc.copied_objects").Add(rep.CopiedObjects)
	reg.Counter("gc.copied_bytes").Add(rep.CopiedBytes)
	reg.Counter("gc.promoted_objects").Add(rep.PromotedObjects)
	reg.Counter("gc.freed_bytes").Add(rep.FreedBytes)
	reg.Gauge("gc.last_pause_ms").Set((rep.End - rep.Start).Millis())
	reg.Snap(fmt.Sprintf("gc-%d", rep.Seq), int64(rep.End))
}

// verify enforces Options.VerifyHeap.
func (g *Engine) verify() {
	if !g.Opt.VerifyHeap {
		return
	}
	if err := g.H.CheckInvariants(); err != nil {
		panic(fmt.Sprintf("pscavenge: heap verification failed after GC %d: %v", g.gcSeq, err))
	}
}

// snapshot captures the heap's current occupancy for GC reports.
func (g *Engine) snapshot() HeapSnapshot {
	eden, from, old := g.H.Usage()
	cfg := g.H.Config()
	return HeapSnapshot{
		EdenUsed: eden, FromUsed: from, OldUsed: old,
		EdenCap: cfg.EdenBytes, SurvivorCap: cfg.SurvivorBytes, OldCap: cfg.OldBytes,
	}
}

// reclaim moves retired task records, terminators and recycled reports to
// the free lists — but only when every GC worker is idle on the manager's
// WaitSet. A termination straggler (a worker whose TermSleep expires after
// the pause has ended) still holds its task, terminator and report
// pointers while it finishes the offer protocol; reusing those records
// under it would alias two collections. Full quiescence implies no such
// references remain: an idle worker has passed its task-done transition
// (which nils the plan's task pointer) and dropped every steal-loop frame.
// When workers are not yet quiescent the records simply stay pending and
// are reclaimed by a later collection.
func (g *Engine) reclaim() {
	if len(g.pendTasks) == 0 && len(g.pendTerms) == 0 && len(g.pendReps) == 0 {
		return
	}
	if g.mgr.mon.WaitSetLen() != len(g.workers) {
		return
	}
	g.taskFree = append(g.taskFree, g.pendTasks...)
	for i := range g.pendTasks {
		g.pendTasks[i] = nil
	}
	g.pendTasks = g.pendTasks[:0]
	g.termFree = append(g.termFree, g.pendTerms...)
	for i := range g.pendTerms {
		g.pendTerms[i] = nil
	}
	g.pendTerms = g.pendTerms[:0]
	g.repFree = append(g.repFree, g.pendReps...)
	for i := range g.pendReps {
		g.pendReps[i] = nil
	}
	g.pendReps = g.pendReps[:0]
}

// newTask pops a reclaimed task record or allocates a fresh one. Records
// are retired at phase end via retireTasks.
func (g *Engine) newTask(kind TaskKind) *GCTask {
	if n := len(g.taskFree); n > 0 {
		t := g.taskFree[n-1]
		g.taskFree = g.taskFree[:n-1]
		*t = GCTask{Kind: kind}
		return t
	}
	return &GCTask{Kind: kind}
}

// retireTasks parks a completed phase's task records on the pending list
// (reclaim recycles them once the workers are quiescent) and hands the
// truncated backing slice back for immediate reuse — the slice holds only
// pointers, which have been copied out.
func (g *Engine) retireTasks(tasks []*GCTask) []*GCTask {
	g.pendTasks = append(g.pendTasks, tasks...)
	return tasks[:0]
}

// newTerminator builds the parallel phase's terminator, reusing a
// reclaimed record when one is available. The new terminator is
// immediately parked on the pending list: it becomes reclaimable at the
// first collection start that finds the workers quiescent, which is
// necessarily after its own phase (and any stragglers) completed.
func (g *Engine) newTerminator(total int) *terminator {
	var t *terminator
	if n := len(g.termFree); n > 0 {
		t = g.termFree[n-1]
		g.termFree = g.termFree[:n-1]
	} else {
		t = new(terminator)
	}
	*t = terminator{g: g, total: total, fast: g.Opt.FastTerminator, localThreads: g.localThr}
	g.pendTerms = append(g.pendTerms, t)
	return t
}

func (g *Engine) buildMinorTasks(roots RootSet, rep *GCReport) ([]*GCTask, *terminator) {
	n := len(g.queues)
	term := g.newTerminator(n)
	tasks := g.taskBuf[:0]
	// OldToYoungRootsTask: the remembered set, striped across GC threads.
	parts := partitionInto(g.partBuf, g.H.RememberedSet(), n)
	for _, stripe := range parts {
		t := g.newTask(TaskOldToYoungRoots)
		t.Roots = stripe
		tasks = append(tasks, t)
	}
	// ScavengeRootsTask: static root categories (HotSpot enumerates ~9:
	// universe, JNI handles, threads, object synchronizer, ...).
	parts = partitionInto(parts, roots.StaticRoots, 9)
	for _, part := range parts {
		t := g.newTask(TaskScavengeRoots)
		t.Roots = part
		tasks = append(tasks, t)
	}
	g.partBuf = parts[:0]
	// ThreadRootsTask: one per mutator thread.
	for _, tr := range roots.ThreadRoots {
		t := g.newTask(TaskThreadRoots)
		t.Roots = tr
		tasks = append(tasks, t)
	}
	// StealTask: one per GC thread, after all ordinary tasks (§2.2).
	for w := 0; w < n; w++ {
		t := g.newTask(TaskSteal)
		t.term = term
		tasks = append(tasks, t)
	}
	g.finishTasks(tasks, rep)
	return tasks, term
}

// RunMajorGC performs one stop-the-world full collection: parallel marking
// with stealing, sweep, then partially-parallel compaction.
func (g *Engine) RunMajorGC(e *cfs.Env, roots RootSet) *GCReport {
	g.reclaim()
	g.gcSeq++
	n := len(g.queues)
	rep := g.newReport(Major, g.gcSeq, e.Now())
	rep.Before = g.snapshot()
	g.vmThread = e.T
	g.H.BeginMajorGC()

	// Phase 1: initialization + marking task construction.
	term := g.newTerminator(n)
	tasks := g.taskBuf[:0]
	parts := partitionInto(g.partBuf, roots.StaticRoots, 9)
	for _, part := range parts {
		t := g.newTask(TaskMarkRoots)
		t.Roots = part
		tasks = append(tasks, t)
	}
	g.partBuf = parts[:0]
	for _, tr := range roots.ThreadRoots {
		t := g.newTask(TaskMarkRoots)
		t.Roots = tr
		tasks = append(tasks, t)
	}
	for w := 0; w < n; w++ {
		t := g.newTask(TaskMarkSteal)
		t.term = term
		tasks = append(tasks, t)
	}
	g.finishTasks(tasks, rep)
	e.Compute(g.Costs.RootPrepBase + simkit.Time(len(tasks))*g.Costs.RootPrepPerTask)
	rep.InitTime = e.Now() - rep.Start

	g.mgr.enqueueAll(e, tasks)
	for !term.done {
		e.Park()
	}
	// Marking is over and its queue has drained; retire the mark records
	// (their backing slice is immediately reusable for compaction, the
	// records themselves only after worker quiescence).
	tasks = g.retireTasks(tasks)

	// Sweep dead objects, then compact: a serial summary phase on the VM
	// thread followed by parallel region tasks.
	freedOld, liveOld := g.H.FinishMajorGC()
	rep.FreedBytes = freedOld
	total := simkit.Time(liveOld) * g.Costs.CompactPerByte
	serial := simkit.Time(float64(total) * g.Costs.CompactSerialFrac)
	e.Compute(serial)
	if parallel := total - serial; parallel > 0 && n > 0 {
		g.bar = &g.barScr
		*g.bar = barrier{g: g, remaining: n, start: e.Now()}
		for w := 0; w < n; w++ {
			t := g.newTask(TaskCompact)
			t.Work = parallel / simkit.Time(n)
			tasks = append(tasks, t)
		}
		g.finishTasks(tasks, rep)
		g.mgr.enqueueAll(e, tasks)
		for g.bar.remaining > 0 {
			e.Park()
		}
		tasks = g.retireTasks(tasks)
	}

	fs := e.Now()
	e.Compute(g.Costs.FinalSync)
	rep.FinalSyncTime = e.Now() - fs
	rep.After = g.snapshot()
	rep.End = e.Now()
	g.taskBuf = tasks
	g.Reports = append(g.Reports, rep)
	g.emitPhases(rep, fs)
	g.publishMetrics(rep)
	g.verify()
	return rep
}

// finishTasks assigns report pointers, unique task ids (namespaced by
// Options.Instance so multi-JVM machines never collide on one bus), and
// (optionally) task affinity.
func (g *Engine) finishTasks(tasks []*GCTask, rep *GCReport) {
	n := len(g.queues)
	for i, t := range tasks {
		t.rep = rep
		g.taskSeq++
		t.id = int64(g.Opt.Instance)<<32 | g.taskSeq
		if g.Opt.TaskAffinity && t.Kind != TaskSteal && t.Kind != TaskMarkSteal {
			t.Affinity = i % n
		} else {
			t.Affinity = -1
		}
	}
}

// localThreads returns the per-worker node-local thread counts when NUMA
// stealing is configured (Gidra's 2·N_local termination), else nil.
func (g *Engine) localThreads() []int {
	if g.Opt.StealKind != taskq.KindNUMARestricted || g.Opt.NodeOf == nil {
		return nil
	}
	counts := make([]int, len(g.queues))
	for w := range counts {
		for v := range g.queues {
			if g.Opt.NodeOf[v] == g.Opt.NodeOf[w] {
				counts[w]++
			}
		}
	}
	return counts
}

// adaptTenuring recomputes the tenuring threshold from the survivor age
// table, as PSAdaptiveSizePolicy does: the threshold is the smallest age at
// which cumulative survivor bytes exceed TargetSurvivorRatio (50%) of the
// survivor capacity — heavy survival tenures earlier, light survival lets
// objects age longer before promotion.
func (g *Engine) adaptTenuring() {
	cfg := g.H.Config()
	target := cfg.SurvivorBytes / 2
	var cum int64
	threshold := uint8(15)
	for age, bytes := range g.H.AgeTable() {
		cum += bytes
		if cum > target {
			threshold = uint8(age)
			break
		}
	}
	if threshold < 1 {
		threshold = 1
	}
	if threshold != cfg.TenureAge {
		cfg.TenureAge = threshold
		_ = g.H.SetConfig(cfg)
	}
}

// resize applies the final-phase feedback policy (§2.1): grow eden when
// survivors indicate pressure, shrink it when the heap is mostly garbage.
func (g *Engine) resize() {
	cfg := g.H.Config()
	_, from, _ := g.H.Usage()
	surviveFrac := float64(from) / float64(cfg.SurvivorBytes)
	switch {
	case surviveFrac > 0.8 && cfg.EdenBytes < 2*g.initialEden:
		cfg.EdenBytes = cfg.EdenBytes * 11 / 10
		cfg.SurvivorBytes = cfg.SurvivorBytes * 11 / 10
	case surviveFrac < 0.1 && cfg.EdenBytes > g.initialEden/2:
		cfg.EdenBytes = cfg.EdenBytes * 19 / 20
	default:
		return
	}
	// Ignore errors: resizing below occupancy simply skips this round.
	_ = g.H.SetConfig(cfg)
}

// MonitorStats returns the GCTaskManager monitor's lock statistics.
func (g *Engine) MonitorStats() jmutex.Stats { return g.mgr.mon.Stats }

// LockLog returns the GCTaskManager monitor's acquisition log (empty unless
// Options.RecordLockLog was set).
func (g *Engine) LockLog() []jmutex.AcqEvent { return g.mgr.mon.Log }
