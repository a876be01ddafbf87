// Package check is the online cross-layer invariant checker: it subscribes
// to the evtrace bus and validates conservation laws while the simulation
// runs. The simulator's layers each maintain redundant state (a thread is
// "on core 3's runqueue" in cfs, "owner of GCTaskManager" in jmutex,
// "executing StealTask" in pscavenge); the bus events expose enough of that
// state that an independent observer can replay it and catch any layer
// lying to another — the class of bug behind the paper's §3 pathologies.
//
// The checker is an Event subscriber, not a ring-buffer reader: it sees the
// complete stream even when the tracer's rings wrap, and it validates
// online so a violation pinpoints the first inconsistent event (by Seq),
// not a downstream symptom. It never emits, never touches the simulation's
// RNG or event queue, and keeps no references into simulator structures, so
// attaching it cannot perturb a run: golden outputs are byte-identical with
// the checker on and off (asserted by TestGoldenScale4CheckEnabled).
//
// Invariants validated (the Inv field of a Violation):
//
//	time.monotonic      instant timestamps never decrease; span ends
//	                    never precede the current instant
//	span.nonneg         spans have non-negative durations
//	sched.core-exclusive  a core never has two dispatched threads at once
//	sched.rq-membership   a runnable thread sits on exactly one runqueue;
//	                      pops only remove threads actually queued there
//	sched.rq-accounting   KRunqPush/KRunqPop queue lengths match the
//	                      replayed runqueue contents
//	sched.load-accounting KRunqPush core load matches |rq| + running
//	sched.dispatch-span   a KDispatch span covers exactly the stint its
//	                      dispatch pop started
//	sched.vruntime-mono   a core's min-vruntime never goes backwards
//	sched.migrate-queued  migrations only move threads that are neither
//	                      queued nor running
//	lock.owner          acquisitions require a free lock; releases come
//	                    from the owner (exactly one owner at a time)
//	lock.reacquire-flag the fast path's reacquire bit matches the
//	                    previous-owner history
//	lock.unblock-source unlock-chain wakeups are performed by the thread
//	                    that last released the lock
//	lock.bypass         bypass events actually bypassed queued waiters
//	term.offer-range    termination offers stay within [1, N]
//	taskq.balance       at termination, deque pushes == pops + steals
//	                    (every stolen or popped task was pushed; queues
//	                    drain exactly)
//	task.unique         every GC task is enqueued exactly once
//	task.dispatch       every fetched task was enqueued and not yet
//	                    dispatched (dispatched exactly once)
//	task.execute        every executed task was dispatched exactly once
//	task.stranded       no enqueued task is still undispatched when its
//	                    engine's termination protocol completes
//	task.undispatched   (Finish) every enqueued task was dispatched
//	task.incomplete     (Finish) every dispatched non-steal task completed
//	simkit.schedule-past  events are never scheduled into the past
//	simkit.conservation   (Finish) fires + cancels never exceed schedules
//
// Steal tasks are exempt from task.incomplete: a run that ends while a
// worker sleeps inside the termination protocol (Machine.Run returns once
// the mutators finish; Kernel.Shutdown cancels sleep timers) legitimately
// leaves that worker's StealTask span unemitted. Dispatch is still
// mandatory — termination needs every steal task running simultaneously.
//
// This package intentionally imports only evtrace, mirroring the bus's own
// no-dependency rule, so every layer above it (experiments, cmd/gcsim,
// cmd/sweepd) can attach a checker without import cycles.
package check

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/evtrace"
)

// Violation is one invariant failure, anchored to the event that exposed
// it (Seq orders it on the bus; At locates it in virtual time).
type Violation struct {
	Inv string // invariant identifier, e.g. "sched.core-exclusive"
	Seq uint64 // bus sequence number of the offending event
	At  int64  // virtual time (ns) of the offending event
	Msg string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] seq=%d t=%dns: %s", v.Inv, v.Seq, v.At, v.Msg)
}

// DefaultMaxViolations caps how many violations are retained (a single
// broken invariant upstream can cascade into thousands downstream; the
// first few are the diagnostic ones).
const DefaultMaxViolations = 64

type coreState struct {
	rq           map[int32]bool // TIDs queued on this core
	running      int32          // dispatched TID, -1 when none
	runningSince int64          // At of the dispatch pop
	minVr        int64          // last observed min-vruntime
	haveMinVr    bool
}

type threadState struct {
	onRq      int32 // core whose runqueue holds the thread, -1 when none
	runningOn int32 // core currently running the thread, -1 when none
}

type lockState struct {
	owner     int32 // owning TID, -1 when free
	lastOwner int32 // previous owner, for the reacquire flag
	haveLast  bool
}

type taskPhase uint8

const (
	taskPending taskPhase = iota // enqueued, not yet fetched
	taskDispatched
	taskDone
)

type taskState struct {
	phase taskPhase
	kind  string // task kind name from the enqueue event
}

// Checker replays the bus's event stream against an independent model of
// the scheduler, monitor, and task-queue state. Like the Tracer it serves,
// it is single-threaded: one Checker per simulation cell.
type Checker struct {
	// MaxViolations caps retained violations (0 = DefaultMaxViolations).
	MaxViolations int

	violations []Violation
	total      int // violations seen, including past the cap

	cores   map[int32]*coreState
	threads map[int32]*threadState
	locks   map[string]*lockState
	tasks   map[int64]*taskState
	// pendingByEngine counts enqueued-but-undispatched tasks per engine
	// instance (the task id's high 32 bits), so task.stranded works on
	// multi-JVM machines where terminations interleave.
	pendingByEngine map[int64]int

	schedules, fires, cancels uint64
	lastAt                    int64
	seen                      uint64 // events observed
	finished                  bool

	tr *evtrace.Tracer // for thread names in messages (may be nil)
}

// New creates an empty checker.
func New() *Checker {
	return &Checker{
		cores:           make(map[int32]*coreState),
		threads:         make(map[int32]*threadState),
		locks:           make(map[string]*lockState),
		tasks:           make(map[int64]*taskState),
		pendingByEngine: make(map[int64]int),
	}
}

// Attach subscribes the checker to tr's event stream and remembers the
// tracer for thread-name lookups in violation messages.
func (c *Checker) Attach(tr *evtrace.Tracer) {
	c.tr = tr
	tr.Subscribe(c.OnEvent)
}

// Violations returns the retained violations in detection order.
func (c *Checker) Violations() []Violation { return c.violations }

// Total returns how many violations were detected, including any past the
// retention cap.
func (c *Checker) Total() int { return c.total }

// EventsSeen returns how many bus events the checker has observed.
func (c *Checker) EventsSeen() uint64 { return c.seen }

// Err returns nil when no invariant was violated, else an error summarizing
// the first violation (and the total count).
func (c *Checker) Err() error {
	if c.total == 0 {
		return nil
	}
	return fmt.Errorf("check: %d invariant violation(s), first: %s",
		c.total, c.violations[0])
}

func (c *Checker) violate(inv string, e evtrace.Event, format string, args ...any) {
	c.total++
	max := c.MaxViolations
	if max <= 0 {
		max = DefaultMaxViolations
	}
	if len(c.violations) >= max {
		return
	}
	c.violations = append(c.violations, Violation{
		Inv: inv, Seq: e.Seq, At: e.At, Msg: fmt.Sprintf(format, args...),
	})
}

func (c *Checker) core(id int32) *coreState {
	cs := c.cores[id]
	if cs == nil {
		cs = &coreState{rq: make(map[int32]bool), running: -1}
		c.cores[id] = cs
	}
	return cs
}

func (c *Checker) thread(id int32) *threadState {
	ts := c.threads[id]
	if ts == nil {
		ts = &threadState{onRq: -1, runningOn: -1}
		c.threads[id] = ts
	}
	return ts
}

func (c *Checker) lock(name string) *lockState {
	ls := c.locks[name]
	if ls == nil {
		ls = &lockState{owner: -1, lastOwner: -1}
		c.locks[name] = ls
	}
	return ls
}

// tname renders a thread id with its registered name when known.
func (c *Checker) tname(tid int32) string {
	if n := c.tr.ThreadName(tid); n != "" {
		return fmt.Sprintf("%d(%s)", tid, n)
	}
	return strconv.Itoa(int(tid))
}

// engineOf extracts the engine instance from a task id (ids are
// instance<<32 | seq, assigned by pscavenge).
func engineOf(taskID int64) int64 { return taskID >> 32 }

// engineFromMonitor maps a GCTaskManager monitor name back to its engine
// instance ("GCTaskManager" → 0, "GCTaskManager#2" → 2).
func engineFromMonitor(name string) int64 {
	if _, suffix, ok := strings.Cut(name, "#"); ok {
		if n, err := strconv.ParseInt(suffix, 10, 64); err == nil {
			return n
		}
	}
	return 0
}

// stealKind reports whether a task kind name is a work-stealing task
// (exempt from the completed-before-termination requirement; see the
// package comment).
func stealKind(kind string) bool {
	return kind == "StealTask" || kind == "MarkStealTask"
}

// OnEvent feeds one bus event through every applicable invariant. It is
// the subscription callback installed by Attach, and may be called
// directly when replaying a recorded stream.
func (c *Checker) OnEvent(e evtrace.Event) {
	c.seen++
	c.checkTime(e)
	switch e.Kind {
	case evtrace.KEvSchedule:
		c.schedules++
		if e.Arg1 < e.At {
			c.violate("simkit.schedule-past", e,
				"event scheduled for t=%d, %dns in the past", e.Arg1, e.At-e.Arg1)
		}
	case evtrace.KEvFire:
		c.fires++
	case evtrace.KEvCancel:
		c.cancels++
		if e.Arg1 < e.At {
			c.violate("simkit.schedule-past", e,
				"cancelled event had target t=%d in the past", e.Arg1)
		}

	case evtrace.KRunqPush:
		c.onRunqPush(e)
	case evtrace.KRunqPop:
		c.onRunqPop(e)
	case evtrace.KDispatch:
		c.onDispatch(e)
	case evtrace.KMigrate:
		ts := c.thread(e.TID)
		if ts.onRq >= 0 {
			c.violate("sched.migrate-queued", e,
				"thread %s migrated %d→%d while still on core %d's runqueue",
				c.tname(e.TID), e.Arg1, e.Arg2, ts.onRq)
		}
		if ts.runningOn >= 0 {
			c.violate("sched.migrate-queued", e,
				"thread %s migrated %d→%d while running on core %d",
				c.tname(e.TID), e.Arg1, e.Arg2, ts.runningOn)
		}

	case evtrace.KLockFast:
		ls := c.lock(e.Name)
		if ls.owner >= 0 {
			c.violate("lock.owner", e,
				"%s: fast acquire by %s while owned by %s",
				e.Name, c.tname(e.TID), c.tname(ls.owner))
		}
		wantReacq := ls.haveLast && ls.lastOwner == e.TID
		if (e.Arg2 == 1) != wantReacq {
			c.violate("lock.reacquire-flag", e,
				"%s: fast acquire by %s has reacquire=%d, previous owner %s",
				e.Name, c.tname(e.TID), e.Arg2, c.tname(ls.lastOwner))
		}
		ls.owner = e.TID
	case evtrace.KLockHandoff:
		ls := c.lock(e.Name)
		if ls.owner >= 0 {
			c.violate("lock.owner", e,
				"%s: handoff to %s while owned by %s",
				e.Name, c.tname(e.TID), c.tname(ls.owner))
		}
		ls.owner = e.TID
	case evtrace.KLockRelease:
		ls := c.lock(e.Name)
		if ls.owner != e.TID {
			c.violate("lock.owner", e,
				"%s: release by %s but owner is %s",
				e.Name, c.tname(e.TID), c.tname(ls.owner))
		}
		ls.owner = -1
		ls.lastOwner, ls.haveLast = e.TID, true
	case evtrace.KLockUnblock:
		ls := c.lock(e.Name)
		if ls.haveLast && e.Arg1 != int64(ls.lastOwner) {
			c.violate("lock.unblock-source", e,
				"%s: %s woken by thread %d, but the last release was by %s",
				e.Name, c.tname(e.TID), e.Arg1, c.tname(ls.lastOwner))
		}
	case evtrace.KLockBypass:
		if e.Arg1 < 1 {
			c.violate("lock.bypass", e,
				"%s: bypass by %s with no queued waiters", e.Name, c.tname(e.TID))
		}

	case evtrace.KTermOffer:
		if e.Arg1 < 1 || e.Arg1 > e.Arg2 {
			c.violate("term.offer-range", e,
				"offer count %d outside [1, %d]", e.Arg1, e.Arg2)
		}
	case evtrace.KTermDone:
		if e.Arg1 != e.Arg2 {
			c.violate("taskq.balance", e,
				"termination with deque pushes=%d but pops+steals=%d", e.Arg1, e.Arg2)
		}
		eng := engineFromMonitor(e.Name)
		if n := c.pendingByEngine[eng]; n != 0 {
			c.violate("task.stranded", e,
				"termination of engine %d with %d enqueued task(s) never dispatched", eng, n)
		}

	case evtrace.KTaskEnqueue:
		id := e.Arg1
		if _, dup := c.tasks[id]; dup {
			c.violate("task.unique", e, "task %#x (%s) enqueued twice", id, e.Name)
			return
		}
		c.tasks[id] = &taskState{phase: taskPending, kind: e.Name}
		c.pendingByEngine[engineOf(id)]++
	case evtrace.KGetTask:
		id := e.Arg2
		ts, ok := c.tasks[id]
		switch {
		case !ok:
			c.violate("task.dispatch", e,
				"worker %d fetched task %#x (%s) that was never enqueued", e.TID, id, e.Name)
		case ts.phase != taskPending:
			c.violate("task.dispatch", e,
				"worker %d fetched task %#x (%s) twice", e.TID, id, e.Name)
		default:
			ts.phase = taskDispatched
			c.pendingByEngine[engineOf(id)]--
		}
	case evtrace.KGCTask:
		id := e.Arg1
		ts, ok := c.tasks[id]
		switch {
		case !ok:
			c.violate("task.execute", e,
				"worker %d executed task %#x (%s) that was never enqueued", e.TID, id, e.Name)
		case ts.phase == taskPending:
			c.violate("task.execute", e,
				"worker %d executed task %#x (%s) that was never dispatched", e.TID, id, e.Name)
		case ts.phase == taskDone:
			c.violate("task.execute", e,
				"worker %d executed task %#x (%s) twice", e.TID, id, e.Name)
		default:
			ts.phase = taskDone
		}
	}
}

// checkTime enforces timestamp monotonicity. Instants must never move
// backwards. Spans are emitted retrospectively (At is in the past) with
// Dur >= 0; KDispatch and KGCTask additionally end at the emission instant
// (the stint/task just finished), so their ends may not precede the newest
// instant. KGCSpan/KGCPhase are republished from a finished report and are
// exempt from the end check.
func (c *Checker) checkTime(e evtrace.Event) {
	if e.Kind.Span() {
		if e.Dur < 0 {
			c.violate("span.nonneg", e, "%s span with negative duration %d",
				e.Kind.Name(), e.Dur)
			return
		}
		if e.Kind != evtrace.KDispatch && e.Kind != evtrace.KGCTask {
			return
		}
		if end := e.At + e.Dur; end < c.lastAt {
			c.violate("time.monotonic", e,
				"%s span ends at t=%d, before the last instant t=%d",
				e.Kind.Name(), end, c.lastAt)
		}
		return
	}
	if e.At < c.lastAt {
		c.violate("time.monotonic", e, "%s at t=%d after an event at t=%d",
			e.Kind.Name(), e.At, c.lastAt)
		return
	}
	c.lastAt = e.At
}

func (c *Checker) onRunqPush(e evtrace.Event) {
	cs, ts := c.core(e.Core), c.thread(e.TID)
	if ts.onRq >= 0 {
		c.violate("sched.rq-membership", e,
			"thread %s pushed on core %d while already queued on core %d",
			c.tname(e.TID), e.Core, ts.onRq)
		if other := c.cores[ts.onRq]; other != nil {
			delete(other.rq, e.TID)
		}
	}
	if ts.runningOn >= 0 {
		c.violate("sched.rq-membership", e,
			"thread %s pushed on core %d while running on core %d",
			c.tname(e.TID), e.Core, ts.runningOn)
	}
	cs.rq[e.TID] = true
	ts.onRq = e.Core
	if int(e.Arg1) != len(cs.rq) {
		c.violate("sched.rq-accounting", e,
			"core %d push reports rq len %d, replay has %d", e.Core, e.Arg1, len(cs.rq))
	}
	load := len(cs.rq)
	if cs.running >= 0 {
		load++
	}
	if int(e.Arg2) != load {
		c.violate("sched.load-accounting", e,
			"core %d push reports load %d, replay has %d (rq=%d running=%v)",
			e.Core, e.Arg2, load, len(cs.rq), cs.running >= 0)
	}
}

func (c *Checker) onRunqPop(e evtrace.Event) {
	cs, ts := c.core(e.Core), c.thread(e.TID)
	if !cs.rq[e.TID] {
		c.violate("sched.rq-membership", e,
			"thread %s popped from core %d but is not on its runqueue",
			c.tname(e.TID), e.Core)
	}
	delete(cs.rq, e.TID)
	ts.onRq = -1
	if int(e.Arg1) != len(cs.rq) {
		c.violate("sched.rq-accounting", e,
			"core %d pop reports rq len %d, replay has %d", e.Core, e.Arg1, len(cs.rq))
	}
	if e.Arg2 == 0 {
		// Dispatch pop: the stint starts now; KDispatch closes it.
		if cs.running >= 0 {
			c.violate("sched.core-exclusive", e,
				"core %d dispatches %s while %s is still dispatched",
				e.Core, c.tname(e.TID), c.tname(cs.running))
		}
		cs.running, cs.runningSince = e.TID, e.At
		ts.runningOn = e.Core
	}
}

func (c *Checker) onDispatch(e evtrace.Event) {
	cs, ts := c.core(e.Core), c.thread(e.TID)
	switch {
	case cs.running != e.TID:
		c.violate("sched.dispatch-span", e,
			"core %d closes a stint of %s but %s is dispatched",
			e.Core, c.tname(e.TID), c.tname(cs.running))
	case e.At != cs.runningSince:
		c.violate("sched.dispatch-span", e,
			"core %d stint of %s starts at t=%d but its dispatch pop was at t=%d",
			e.Core, c.tname(e.TID), e.At, cs.runningSince)
	}
	if cs.running == e.TID {
		cs.running = -1
		ts.runningOn = -1
	}
	if cs.haveMinVr && e.Arg1 < cs.minVr {
		c.violate("sched.vruntime-mono", e,
			"core %d min-vruntime went backwards: %d after %d", e.Core, e.Arg1, cs.minVr)
	}
	cs.minVr, cs.haveMinVr = e.Arg1, true
}

// Finish runs the end-of-run conservation checks. Call it once, after the
// simulation has completed (and before reading Violations for a final
// verdict). The zero Event anchors Finish-time violations at the last
// observed instant.
func (c *Checker) Finish() {
	if c.finished {
		return
	}
	c.finished = true
	at := evtrace.Event{At: c.lastAt, Seq: 0}
	if c.fires+c.cancels > c.schedules {
		c.violate("simkit.conservation", at,
			"%d fires + %d cancels exceed %d schedules", c.fires, c.cancels, c.schedules)
	}
	// Deterministic iteration for stable reports: sort the task ids.
	ids := make([]int64, 0, len(c.tasks))
	for id := range c.tasks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ts := c.tasks[id]
		switch {
		case ts.phase == taskPending:
			c.violate("task.undispatched", at,
				"task %#x (%s) enqueued but never dispatched", id, ts.kind)
		case ts.phase == taskDispatched && !stealKind(ts.kind):
			c.violate("task.incomplete", at,
				"task %#x (%s) dispatched but never completed", id, ts.kind)
		}
	}
}

// Report renders a human-readable summary of the checker's verdict.
func (c *Checker) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "check: %d events, %d violation(s)\n", c.seen, c.total)
	for _, v := range c.violations {
		fmt.Fprintf(&b, "  %s\n", v.String())
	}
	if c.total > len(c.violations) {
		fmt.Fprintf(&b, "  ... %d more suppressed\n", c.total-len(c.violations))
	}
	return b.String()
}
