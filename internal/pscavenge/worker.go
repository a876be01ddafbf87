package pscavenge

import (
	"repro/internal/cfs"
	"repro/internal/evtrace"
	"repro/internal/heap"
	"repro/internal/simkit"
)

// This file runs the GC worker bodies as driver-serviced compute plans
// (cfs.Env.ComputePlan): the get_task fast path, per-object scavenge/mark
// tracing, the steal attempt loop, and task bookkeeping all advance inside
// the kernel's completion timer, so a worker's coroutine body is resumed
// only at the transitions that can actually block or migrate it:
//
//   - contended monitor entry (LockContended parks);
//   - the queue-empty wait between GCs (WaitFinish parks on the WaitSet);
//   - the termination protocol (offer yields the CPU and sleeps);
//   - the dynamic-affinity GC-wake hook (it may SetAffinity and migrate);
//   - shutdown (the body must return).
//
// Everything else — the CAS and unlock costs around get_task, the chunked
// tracing charges, the per-attempt steal cost — is a plan slice. The paper's
// per-thread loop (get_task, root scan, drain, steal, offer termination;
// §2.2–2.3) is the program the state machine steps through; the event
// stream, reports and kernel counters it produces are pinned by digest
// fixtures in TestWorkerPlanMatchesLoop.

// workerPC is the plan program counter: where the worker resumes when the
// current slice completes.
type workerPC uint8

const (
	// get_task: lock, queue inspection, unlock.
	wpcLock workerPC = iota
	wpcTryLock
	wpcLocked
	wpcWaitPark
	wpcShutdown
	wpcDequeued
	wpcUnlocked
	// task dispatch and completion.
	wpcExecStart
	wpcTaskDone
	// root scanning (ScavengeRoots / ThreadRoots / MarkRoots).
	wpcRootScan
	wpcRootVisit
	// remembered-set scanning (OldToYoungRoots).
	wpcOldToYoung
	wpcOldToYoungVisit
	// local-queue drain (shared by root tasks and successful steals).
	wpcDrainPop
	wpcStepRefs
	wpcStepRefVisit
	wpcFlush
	// steal loop.
	wpcStealChoose
	wpcStealResult
	wpcStealDrained
	wpcStealFlushed
)

// workerAction tells the body why the plan stopped.
type workerAction uint8

const (
	wactNone workerAction = iota
	wactLockContended
	wactWait
	wactGCWake
	wactOffer
	wactShutdown
)

// workerState is one GC worker's plan state machine.
type workerState struct {
	g    *Engine
	w    int
	th   *cfs.Thread
	plan cfs.PlanFn // bound step method, allocated once at init

	pc     workerPC
	action workerAction

	task      *GCTask
	taskStart simkit.Time

	// Chunked tracing accumulator: work accrues per object and reference
	// and is submitted as a slice once it reaches Costs.ChunkWork.
	acc simkit.Time

	// Root / reference iteration cursors.
	rootIdx int
	refIdx  int
	pending heap.ObjID // visit deferred across a chunk-flush slice
	curID   heap.ObjID // object whose reference list is being scanned
	mark    bool       // marking (full GC) vs scavenging semantics

	afterDrain workerPC // where wpcDrainPop goes when the queue is empty

	// Steal-loop state.
	fails    int
	victim   int
	segStart simkit.Time
	offerAt  simkit.Time
}

func (ws *workerState) init(g *Engine, w int, e *cfs.Env) {
	ws.g = g
	ws.w = w
	ws.th = e.T
	ws.pc = wpcLock
	ws.plan = ws.step
}

// workerPlan is the plan-driven worker body: it re-enters the state machine
// after every blocking transition until the manager shuts down.
func (g *Engine) workerPlan(e *cfs.Env, w int) {
	ws := &g.wstates[w]
	ws.init(g, w, e)
	for {
		e.ComputePlan(ws.plan)
		act := ws.action
		ws.action = wactNone
		switch act {
		case wactShutdown:
			return
		case wactLockContended:
			g.mgr.mon.LockContended(e)
			ws.pc = wpcLocked
		case wactWait:
			g.mgr.mon.WaitFinish(e)
			ws.pc = wpcLocked
		case wactGCWake:
			g.Opt.OnGCWake(e, w)
			ws.pc = wpcExecStart
		case wactOffer:
			ws.finishOffer(e)
		}
	}
}

// finishOffer runs the termination protocol in the body (offer spins, yields
// and sleeps) and routes the plan to the right continuation: back to the
// steal loop, or to task completion once termination is reached.
func (ws *workerState) finishOffer(e *cfs.Env) {
	t := ws.task
	rep := t.rep
	finished := t.term.offer(e, ws.w)
	// A straggler may observe completion only after the pause has ended (it
	// wakes among resumed mutators); clamp its share of the termination
	// phase to the pause itself.
	end := e.Now()
	if t.term.done && t.term.completedAt > ws.offerAt && t.term.completedAt < end {
		end = t.term.completedAt
	}
	rep.TerminationTime += end - ws.offerAt
	ws.segStart = e.Now()
	if finished {
		ws.pc = wpcTaskDone
		return
	}
	ws.fails = 0
	ws.pc = wpcStealChoose
}

// step is the worker's cfs.PlanFn. Each call performs the work between two
// scheduling points and returns the next plan slice; a (0, false) return
// hands control back to the body with ws.action set.
func (ws *workerState) step() (simkit.Time, bool) {
	g := ws.g
	m := g.mgr
	switch ws.pc {
	case wpcLock:
		ws.pc = wpcTryLock
		return m.mon.LockBegin(ws.th), true
	case wpcTryLock:
		if !m.mon.TryLockFast(ws.th) {
			ws.action = wactLockContended
			return 0, false
		}
		ws.pc = wpcLocked
		return 0, true
	case wpcLocked:
		if len(m.queue) == 0 {
			if m.closed {
				ws.pc = wpcShutdown
				return m.mon.UnlockBegin(ws.th), true
			}
			ws.pc = wpcWaitPark
			return m.mon.WaitBegin(ws.th), true
		}
		ws.task = m.dequeue(ws.w)
		ws.pc = wpcDequeued
		return g.Costs.TaskDequeue, true
	case wpcWaitPark:
		ws.action = wactWait
		return 0, false
	case wpcShutdown:
		m.mon.UnlockFinish(ws.th)
		ws.action = wactShutdown
		return 0, false
	case wpcDequeued:
		ws.pc = wpcUnlocked
		return m.mon.UnlockBegin(ws.th), true
	case wpcUnlocked:
		m.mon.UnlockFinish(ws.th)
		task := ws.task
		if g.etr != nil {
			g.etr.Emit(evtrace.Event{Kind: evtrace.KGetTask, At: int64(g.K.Sim.Now()),
				Core: int32(ws.th.Core()), TID: int32(ws.w), Name: task.Kind.String(),
				Arg1: int64(task.Kind), Arg2: task.id})
		}
		if task.rep != nil {
			task.rep.recordDispatch(ws.w, int(ws.th.Core()), task.Kind)
			if task.rep.Seq != g.seenEpoch[ws.w] {
				g.seenEpoch[ws.w] = task.rep.Seq
				if g.Opt.OnGCWake != nil {
					ws.action = wactGCWake
					return 0, false
				}
			}
		}
		ws.pc = wpcExecStart
		return 0, true
	case wpcExecStart:
		t := ws.task
		ws.taskStart = g.K.Sim.Now()
		ws.acc = 0
		ws.rootIdx, ws.refIdx = 0, 0
		switch t.Kind {
		case TaskOldToYoungRoots:
			ws.mark = false
			ws.afterDrain = wpcFlush
			ws.pc = wpcOldToYoung
		case TaskScavengeRoots, TaskThreadRoots:
			ws.mark = false
			ws.afterDrain = wpcFlush
			ws.pc = wpcRootScan
		case TaskMarkRoots:
			ws.mark = true
			ws.afterDrain = wpcFlush
			ws.pc = wpcRootScan
		case TaskSteal, TaskMarkSteal:
			ws.mark = t.Kind == TaskMarkSteal
			ws.fails = 0
			ws.segStart = g.K.Sim.Now()
			ws.pc = wpcStealChoose
		case TaskCompact:
			ws.pc = wpcTaskDone
			return t.Work, true
		}
		return 0, true
	case wpcTaskDone:
		t := ws.task
		now := g.K.Sim.Now()
		if t.Kind != TaskSteal && t.Kind != TaskMarkSteal {
			t.rep.RootTaskTime += now - ws.taskStart
		}
		if t.Kind == TaskCompact {
			g.bar.taskDone()
		}
		if g.etr != nil {
			g.etr.Emit(evtrace.Event{Kind: evtrace.KGCTask,
				At: int64(ws.taskStart), Dur: int64(now - ws.taskStart),
				Core: int32(ws.th.Core()), TID: int32(ws.w), Name: t.Kind.String(),
				Arg1: t.id})
		}
		ws.task = nil
		ws.pc = wpcLock
		return 0, true

	case wpcRootScan:
		t := ws.task
		for ws.rootIdx < len(t.Roots) {
			id := t.Roots[ws.rootIdx]
			ws.rootIdx++
			if id == 0 {
				continue
			}
			if d, flush := ws.charge(g.Costs.RefScan); flush {
				ws.pending = id
				ws.pc = wpcRootVisit
				return d, true
			}
			ws.visit(id)
		}
		ws.pc = wpcDrainPop
		return 0, true
	case wpcRootVisit:
		ws.visit(ws.pending)
		ws.pc = wpcRootScan
		return 0, true

	case wpcOldToYoung:
		t := ws.task
		for ws.rootIdx < len(t.Roots) {
			refs := g.H.Refs(t.Roots[ws.rootIdx])
			for ws.refIdx < len(refs) {
				r := refs[ws.refIdx]
				ws.refIdx++
				if r == 0 {
					continue
				}
				if d, flush := ws.charge(g.Costs.RefScan); flush {
					ws.pending = r
					ws.pc = wpcOldToYoungVisit
					return d, true
				}
				ws.visit(r)
			}
			ws.refIdx = 0
			ws.rootIdx++
		}
		ws.pc = wpcDrainPop
		return 0, true
	case wpcOldToYoungVisit:
		ws.visit(ws.pending)
		ws.pc = wpcOldToYoung
		return 0, true

	case wpcDrainPop:
		id, ok := g.queues[ws.w].PopBottom()
		if !ok {
			ws.pc = ws.afterDrain
			return 0, true
		}
		return ws.stepObject(id)
	case wpcStepRefs:
		refs := g.H.Refs(ws.curID)
		for ws.refIdx < len(refs) {
			r := refs[ws.refIdx]
			ws.refIdx++
			if r == 0 {
				continue
			}
			if d, flush := ws.charge(g.Costs.RefScan); flush {
				ws.pending = r
				ws.pc = wpcStepRefVisit
				return d, true
			}
			ws.visit(r)
		}
		ws.pc = wpcDrainPop
		return 0, true
	case wpcStepRefVisit:
		ws.visit(ws.pending)
		ws.pc = wpcStepRefs
		return 0, true
	case wpcFlush:
		ws.pc = wpcTaskDone
		return ws.flush(), true

	case wpcStealChoose:
		victim := g.policy.ChooseVictim(ws.w, g.pool, g.K.Sim.Rand())
		g.Steal.Attempts[ws.w]++
		ws.task.rep.StealAttempts++
		ws.victim = victim
		ws.pc = wpcStealResult
		return g.Costs.StealAttempt, true
	case wpcStealResult:
		t := ws.task
		if ws.victim >= 0 {
			if id, ok := g.queues[ws.victim].PopTop(); ok {
				g.policy.RecordResult(ws.w, ws.victim, true)
				t.rep.StolenTasks++
				g.queues[ws.w].PushBottom(id)
				ws.acc = 0 // fresh tracing batch for the stolen subgraph
				ws.afterDrain = wpcStealDrained
				ws.pc = wpcDrainPop
				return 0, true
			}
		}
		g.policy.RecordResult(ws.w, ws.victim, false)
		g.Steal.Failures[ws.w]++
		t.rep.StealFailures++
		ws.fails++
		if ws.fails >= t.term.threshold(ws.w) || g.policy.AbortOnFailure() {
			now := g.K.Sim.Now()
			t.rep.StealWorkTime += now - ws.segStart
			ws.offerAt = now
			ws.action = wactOffer
			return 0, false
		}
		ws.pc = wpcStealChoose
		return 0, true
	case wpcStealDrained:
		ws.pc = wpcStealFlushed
		return ws.flush(), true
	case wpcStealFlushed:
		ws.fails = 0
		ws.pc = wpcStealChoose
		return 0, true
	}
	panic("pscavenge: invalid worker plan state")
}

// stepObject performs the copy/mark half of one drain step (everything up
// to the reference loop) and routes to the reference scan, charging the
// object cost into the tracing batch.
func (ws *workerState) stepObject(id heap.ObjID) (simkit.Time, bool) {
	g := ws.g
	h := g.H
	rep := ws.task.rep
	var cost simkit.Time
	if ws.mark {
		size, first := h.Mark(id)
		if !first {
			return 0, true // stay in wpcDrainPop
		}
		rep.CopiedObjects++
		rep.CopiedBytes += int64(size)
		cost = g.Costs.MarkObj
		if g.Opt.NUMA != nil {
			cost = g.numaAdjust(ws.th.Core(), id, cost, rep, false)
		}
	} else {
		size, promoted, first := h.CopyYoung(id)
		if !first {
			return 0, true
		}
		rep.CopiedObjects++
		rep.CopiedBytes += int64(size)
		if promoted {
			rep.PromotedObjects++
		}
		cost = g.Costs.ObjCopyBase + simkit.Time(size)*g.Costs.CopyPerByte
		if g.Opt.NUMA != nil {
			cost = g.numaAdjust(ws.th.Core(), id, cost, rep, true)
		}
	}
	ws.curID = id
	ws.refIdx = 0
	ws.pc = wpcStepRefs
	if d, flush := ws.charge(cost); flush {
		return d, true
	}
	return 0, true
}

// charge accrues d of tracing work; when the accumulator reaches ChunkWork
// it returns the slice to submit. The chunk bounds how long a GC thread runs
// without a scheduling point.
func (ws *workerState) charge(d simkit.Time) (simkit.Time, bool) {
	ws.acc += d
	if ws.acc >= ws.g.Costs.ChunkWork {
		d = ws.acc
		ws.acc = 0
		return d, true
	}
	return 0, false
}

// flush returns the remaining accrued tracing work.
func (ws *workerState) flush() simkit.Time {
	d := ws.acc
	ws.acc = 0
	return d
}

// visit applies the trace-child filter and pushes survivors on the worker's
// local queue: marking visits every unvisited child, scavenging only
// unvisited young ones.
func (ws *workerState) visit(r heap.ObjID) {
	h := ws.g.H
	if ws.mark {
		if !h.Visited(r) {
			ws.g.queues[ws.w].PushBottom(r)
		}
	} else if !h.Visited(r) && isYoung(h.SpaceOf(r)) {
		ws.g.queues[ws.w].PushBottom(r)
	}
}
