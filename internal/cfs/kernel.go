package cfs

import (
	"fmt"

	"repro/internal/evtrace"
	"repro/internal/ostopo"
	"repro/internal/simkit"
)

// Kernel is the simulated multicore OS: per-core CFS runqueues plus the
// load-balancing machinery in balance.go.
type Kernel struct {
	Sim  *simkit.Sim
	Topo *ostopo.Topology
	P    Params

	cores   []*core
	threads []*Thread
	nextTID int
	active  *Thread // thread whose body is currently executing, if any

	// doms caches Topo.Domain for every (level, core) pair: the balancer
	// and wake placement walk domains on every wake and idle transition,
	// and Topo.Domain builds a fresh slice per call.
	doms [3][][]ostopo.CoreID

	balEvents []simkit.Event
	balancers []*balancer
	shutdown  bool
	etr       *evtrace.Tracer

	Stats KernelStats
}

// KernelStats aggregates scheduler-level counters across a run.
type KernelStats struct {
	Preemptions       int // slice expirations
	WakePreemptions   int // successful wakeup preemptions
	WakePreemptFailed int // wakeups that could not preempt the current thread
	NewIdlePulls      int
	PeriodicPulls     int
	WakesToPrev       int // wake placed on the thread's previous core
	WakesToIdleCore   int // wake placed on an idle core found by the sibling search
	DeepIdleSkips     int // idle cores skipped by wake placement because deep idle
	ContextSwitches   int
	BodyResumes       int // coroutine resumes (Coro.Next) across all threads
	// Deprecated: PlanElisions is always 0; every compute-plan slice is
	// counted in BurstElisions. It is kept because perfbench's
	// resultStats reads it.
	PlanElisions  int
	BurstElisions int // compute-plan (ComputePlan) slices serviced driver-side
}

type timerKind int

const (
	timerComplete timerKind = iota
	timerSlice
	timerResched
)

type core struct {
	id ostopo.CoreID
	k  *Kernel

	rq   []*Thread
	curr *Thread

	timer     simkit.Event
	timerKind timerKind // kind of the pending timer event
	timerFn   func()    // prebuilt callback invoking onTimer(timerKind)
	minVr     simkit.Time
	idleSince simkit.Time
	lastRun   *Thread // last thread that ran here (context-switch cost)
}

// NewKernel creates a kernel on the given simulator and topology.
func NewKernel(sim *simkit.Sim, topo *ostopo.Topology, p Params) *Kernel {
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	k := &Kernel{Sim: sim, Topo: topo, P: p}
	n := topo.NumCPUs()
	k.cores = make([]*core, n)
	for i := 0; i < n; i++ {
		c := &core{id: ostopo.CoreID(i), k: k}
		c.timerFn = func() { c.onTimer(c.timerKind) }
		k.cores[i] = c
	}
	for lvl := ostopo.DomainSMT; lvl <= ostopo.DomainSystem; lvl++ {
		k.doms[lvl] = make([][]ostopo.CoreID, n)
		for i := 0; i < n; i++ {
			k.doms[lvl][i] = topo.Domain(ostopo.CoreID(i), lvl)
		}
	}
	k.startPeriodicBalance()
	return k
}

// domain returns the cached Topo.Domain(c, lvl) set.
func (k *Kernel) domain(c ostopo.CoreID, lvl ostopo.DomainLevel) []ostopo.CoreID {
	return k.doms[lvl][c]
}

// SetEvTracer installs the structured event-bus tracer (nil disables it).
// Tracing is record-only — it never alters scheduling decisions — so runs
// are byte-identical with tracing on or off. Install before spawning
// threads so their names reach the trace's thread registry.
func (k *Kernel) SetEvTracer(t *evtrace.Tracer) { k.etr = t }

// EvTracer returns the installed event-bus tracer, or nil.
func (k *Kernel) EvTracer() *evtrace.Tracer { return k.etr }

// Threads returns all threads ever spawned.
func (k *Kernel) Threads() []*Thread { return k.threads }

// NumCPUs returns the number of logical CPUs.
func (k *Kernel) NumCPUs() int { return k.Topo.NumCPUs() }

// Shutdown cancels the kernel's recurring events so the simulator can drain.
func (k *Kernel) Shutdown() {
	k.shutdown = true
	for _, e := range k.balEvents {
		k.Sim.Cancel(e)
	}
	k.balEvents = nil
	for _, c := range k.cores {
		k.Sim.Cancel(c.timer)
		c.timer = simkit.Event{}
	}
	for _, t := range k.threads {
		k.Sim.Cancel(t.sleepEv)
		t.sleepEv = simkit.Event{}
	}
}

// Spawn creates a thread running body on the given core (like clone(2), the
// child starts on the core it was created on; Linux fork-balancing is not
// modeled because the paper's GC threads demonstrably start stacked).
func (k *Kernel) Spawn(name string, on ostopo.CoreID, body func(*Env)) *Thread {
	if int(on) < 0 || int(on) >= len(k.cores) {
		panic(fmt.Sprintf("cfs: Spawn on invalid core %d", on))
	}
	t := &Thread{ID: k.nextTID, Name: name, k: k, core: on, state: StateBlocked}
	k.nextTID++
	k.threads = append(k.threads, t)
	if k.etr != nil {
		k.etr.RegisterThread(int32(t.ID), name)
	}
	t.coro = simkit.NewCoro(k.Sim, func(yield func(request)) {
		env := &Env{T: t, yield: yield}
		body(env)
	})
	t.sleepFn = func() {
		t.sleepEv = simkit.Event{}
		k.wake(t)
	}
	t.enqFn = func() { k.enqueue(t, t.enqTarget, t.enqWake) }
	// Enqueue via an event so bodies never nest inside one another.
	t.enqTarget, t.enqWake = on, false
	k.Sim.After(0, t.enqFn)
	return t
}

// Unpark wakes t if it is parked; otherwise it stores a permit making the
// next Park return immediately.
func (k *Kernel) Unpark(t *Thread) {
	if t.state == StateBlocked && t.parked && !t.wakePending {
		t.parked = false
		k.wake(t)
		return
	}
	if t.state != StateDone && !t.wakePending {
		t.permit = true
	}
}

// --- core helpers ---

func (c *core) idle() bool { return c.curr == nil && len(c.rq) == 0 }

func (c *core) deepIdle(now simkit.Time) bool {
	return c.idle() && now-c.idleSince >= c.k.P.DeepIdleAfter
}

// load is the instantaneous runnable load (running + queued).
func (c *core) load() int {
	n := len(c.rq)
	if c.curr != nil {
		n++
	}
	return n
}

// speed returns the execution speed of this core as a fraction num/den,
// reduced when the SMT sibling is also busy.
func (c *core) speed() (num, den int64) {
	if sib, ok := c.k.Topo.Sibling(c.id); ok {
		if c.k.cores[sib].curr != nil {
			return c.k.P.SMTSpeedNum, c.k.P.SMTSpeedDen
		}
	}
	return 1, 1
}

// wallFor converts work-ns to wall-ns at the current speed, rounding up.
func (c *core) wallFor(work simkit.Time) simkit.Time {
	num, den := c.speed()
	if num == den {
		return work
	}
	return simkit.Time((int64(work)*den + num - 1) / num)
}

// account charges CPU time to the current thread since its last accounting.
func (c *core) account(now simkit.Time) {
	t := c.curr
	if t == nil {
		return
	}
	delta := now - t.lastAccount
	if delta <= 0 {
		return
	}
	num, den := c.speed()
	t.remaining -= simkit.Time(int64(delta) * num / den)
	t.vruntime += delta
	t.CPUTime += delta
	t.lastAccount = now
	if t.vruntime > c.minVr {
		c.minVr = t.vruntime
	}
}

// sliceLen returns the current thread's slice given queue occupancy.
func (c *core) sliceLen() simkit.Time {
	nr := simkit.Time(len(c.rq) + 1)
	s := c.k.P.SchedLatency / nr
	if s < c.k.P.MinGranularity {
		s = c.k.P.MinGranularity
	}
	return s
}

// reprogram recomputes this core's next timer event (work completion or
// slice expiry), cancelling any previous one.
func (c *core) reprogram() {
	k := c.k
	k.Sim.Cancel(c.timer)
	c.timer = simkit.Event{}
	if c.curr == nil || k.shutdown {
		return
	}
	now := k.Sim.Now()
	at := now + c.wallFor(c.curr.remaining)
	kind := timerComplete
	if len(c.rq) > 0 {
		sliceEnd := c.curr.dispatchedAt + c.sliceLen()
		if sliceEnd < now {
			sliceEnd = now
		}
		if sliceEnd < at {
			at, kind = sliceEnd, timerSlice
		}
	}
	// The timer chain is the continuation-slot fast path: during a plan
	// burst this core cancels and reschedules its own timer once per slice,
	// and the staged event usually fires next, so the whole chain bypasses
	// the event heap (see simkit.AtNext — observably identical to At).
	c.timerKind = kind
	c.timer = k.Sim.AtNext(at, c.timerFn)
}

func (c *core) onTimer(kind timerKind) {
	k := c.k
	now := k.Sim.Now()
	c.timer = simkit.Event{}
	t := c.curr
	if t == nil {
		return
	}
	c.account(now)
	switch {
	case kind == timerComplete || t.remaining <= 0:
		// The slice is done: continue the plan driver-side, or ask the
		// body for its next request.
		if !c.planContinue(t) {
			k.advance(t)
		}
	default:
		// Preempt: requeue and pick the next thread.
		if kind == timerSlice {
			k.Stats.Preemptions++
			if k.etr != nil {
				k.etr.Emit(evtrace.Event{Kind: evtrace.KPreempt, At: int64(now),
					Core: int32(c.id), TID: int32(t.ID), Name: t.Name})
			}
		}
		c.deschedule(t, StateRunnable)
		c.push(t)
		c.pickNext()
	}
}

// deschedule removes the running thread from the core without enqueueing it.
func (c *core) deschedule(t *Thread, newState State) {
	now := c.k.Sim.Now()
	sc := c.siblingCheckpoint() // account the sibling at the pre-flip speed
	if c.k.etr != nil {
		// The whole on-CPU interval becomes one dispatch span; Arg1 carries
		// the core's min-vruntime for the monotonicity invariant.
		c.k.etr.Emit(evtrace.Event{
			Kind: evtrace.KDispatch, At: int64(t.dispatchedAt), Dur: int64(now - t.dispatchedAt),
			Core: int32(c.id), TID: int32(t.ID), Name: t.Name, Arg1: int64(c.minVr),
		})
	}
	t.lastRanAt = now
	t.state = newState
	c.curr = nil
	c.k.Sim.Cancel(c.timer)
	c.timer = simkit.Event{}
	if sc != nil {
		sc.reprogram() // sibling now runs at full speed
	}
}

// push adds a runnable thread to this core's queue.
func (c *core) push(t *Thread) {
	t.core = c.id
	t.seq = c.k.Sim.Fired()
	c.rq = append(c.rq, t)
	if c.k.etr != nil {
		c.k.etr.Emit(evtrace.Event{Kind: evtrace.KRunqPush, At: int64(c.k.Sim.Now()),
			Core: int32(c.id), TID: int32(t.ID), Name: t.Name,
			Arg1: int64(len(c.rq)), Arg2: int64(c.load())})
	}
}

// popMin removes and returns the minimum-vruntime runnable thread.
func (c *core) popMin() *Thread {
	best := -1
	for i, t := range c.rq {
		if best < 0 || t.vruntime < c.rq[best].vruntime ||
			(t.vruntime == c.rq[best].vruntime && t.seq < c.rq[best].seq) {
			best = i
		}
	}
	t := c.rq[best]
	c.rq[best] = c.rq[len(c.rq)-1]
	c.rq = c.rq[:len(c.rq)-1]
	if c.k.etr != nil {
		c.k.etr.Emit(evtrace.Event{Kind: evtrace.KRunqPop, At: int64(c.k.Sim.Now()),
			Core: int32(c.id), TID: int32(t.ID), Name: t.Name,
			Arg1: int64(len(c.rq)), Arg2: 0})
	}
	return t
}

// remove deletes a specific thread from the runqueue (for migration).
func (c *core) remove(t *Thread) bool {
	for i, q := range c.rq {
		if q == t {
			c.rq[i] = c.rq[len(c.rq)-1]
			c.rq = c.rq[:len(c.rq)-1]
			if c.k.etr != nil {
				c.k.etr.Emit(evtrace.Event{Kind: evtrace.KRunqPop, At: int64(c.k.Sim.Now()),
					Core: int32(c.id), TID: int32(t.ID), Name: t.Name,
					Arg1: int64(len(c.rq)), Arg2: 1})
			}
			return true
		}
	}
	return false
}

// pickNext dispatches the next thread, or goes idle (after attempting a
// new-idle balance pull).
func (c *core) pickNext() {
	k := c.k
	now := k.Sim.Now()
	if c.curr != nil {
		return
	}
	if len(c.rq) == 0 {
		// Becoming idle: try to steal work from a busy core first. A
		// successful pull dispatches on this core inside newIdleBalance
		// (post-pull dispatch is unified in afterPull), so this call is
		// done either way.
		if !k.newIdleBalance(c) {
			c.idleSince = now
		}
		return
	}
	sc := c.siblingCheckpoint() // account the sibling at the pre-flip speed
	t := c.popMin()
	t.state = StateRunning
	t.dispatchedAt = now
	t.lastAccount = now
	c.curr = t
	if c.lastRun != t {
		k.Stats.ContextSwitches++
		// Context-switch cost is charged as extra work at full speed.
		t.remaining += k.P.CtxSwitchCost
	}
	c.lastRun = t
	if sc != nil {
		sc.reprogram() // sibling now runs at reduced speed
	}
	if t.remaining > 0 {
		c.reprogram()
		return
	}
	// A plan thread dispatched with its slice already exhausted continues
	// its plan driver-side, exactly as the completion timer would.
	if !c.planContinue(t) {
		k.advance(t)
	}
}

// planContinue starts the current thread's next compute-plan slice from the
// driver side, if it has one. The timer and accounting sequence is exactly
// what a body-yielded Compute would produce (any sub-slice accounting
// residue is discarded, as advance does via remaining = 0 → remaining = d);
// only the coroutine round trip is elided. Returns false when the thread
// has no plan left (the caller resumes the body instead).
func (c *core) planContinue(t *Thread) bool {
	fn := t.planFn
	if fn == nil {
		return false
	}
	k := c.k
	// The callback acts on the thread's behalf (it may Unpark waiters,
	// whose wake-affine placement consults the waker), so it runs with the
	// thread active, exactly like the body it replaces.
	prev := k.active
	k.active = t
	d, ok := fn()
	for ok && d <= 0 {
		d, ok = fn()
	}
	k.active = prev
	if !ok {
		t.planFn = nil
		return false
	}
	t.remaining = d
	k.Stats.BurstElisions++
	c.reprogram()
	return true
}

// siblingCheckpoint accounts the SMT sibling's current thread at the speed
// in effect so far, ahead of a busy-state flip on this core that will change
// that speed. It returns the sibling core if it has a current thread the
// caller must reprogram after the flip.
func (c *core) siblingCheckpoint() *core {
	sib, ok := c.k.Topo.Sibling(c.id)
	if !ok {
		return nil
	}
	sc := c.k.cores[sib]
	if sc.curr == nil {
		return nil
	}
	sc.account(c.k.Sim.Now())
	return sc
}

// advance resumes t's body for its next timed request. t must be current on
// its core. advance loops so that zero-length requests cannot stall time.
func (k *Kernel) advance(t *Thread) {
	c := k.cores[t.core]
	if c.curr != t {
		panic("cfs: advance on non-current thread " + t.Name)
	}
	for {
		t.remaining = 0
		t.planFn = nil
		prev := k.active
		k.active = t
		k.Stats.BodyResumes++
		req, ok := t.coro.Next()
		k.active = prev
		now := k.Sim.Now()
		if !ok {
			c.deschedule(t, StateDone)
			c.pickNext()
			return
		}
		switch req.kind {
		case reqCompute:
			t.remaining = req.d
			t.planFn = req.fn
			c.reprogram()
			return
		case reqSleep:
			c.deschedule(t, StateBlocked)
			t.parked = false
			t.sleepEv = k.Sim.After(req.d, t.sleepFn)
			c.pickNext()
			return
		case reqPark:
			if t.permit {
				// A permit arrived between the check in Env.Park and now
				// (possible when Unpark targets the running thread).
				t.permit = false
				continue
			}
			t.parked = true
			c.deschedule(t, StateBlocked)
			c.pickNext()
			return
		case reqYield:
			if len(c.rq) == 0 {
				continue // nothing else to run; keep going
			}
			c.deschedule(t, StateRunnable)
			// sched_yield: fall behind every currently queued thread.
			for _, q := range c.rq {
				if q.vruntime > t.vruntime {
					t.vruntime = q.vruntime
				}
			}
			t.vruntime++
			c.push(t)
			c.pickNext()
			return
		case reqMigrate:
			c.deschedule(t, StateRunnable)
			t.enqTarget, t.enqWake = k.allowedTarget(t), false
			k.Sim.At(now, t.enqFn)
			c.pickNext()
			return
		}
	}
}

// allowedTarget picks the least-loaded core permitted by t's affinity mask.
func (k *Kernel) allowedTarget(t *Thread) ostopo.CoreID {
	best, bestLoad := ostopo.CoreID(-1), 1<<30
	for i, c := range k.cores {
		if !t.allowed(ostopo.CoreID(i)) {
			continue
		}
		if l := c.load(); l < bestLoad {
			best, bestLoad = ostopo.CoreID(i), l
		}
	}
	if best < 0 {
		best = t.core // degenerate mask; stay put
	}
	return best
}

// enqueue makes t runnable on core id, applying vruntime renormalization,
// optional sleeper credit, and the wakeup-preemption check.
func (k *Kernel) enqueue(t *Thread, id ostopo.CoreID, wakeup bool) {
	if t.state == StateDone {
		return
	}
	t.wakePending = false
	c := k.cores[id]
	now := k.Sim.Now()
	if t.core != id {
		// Renormalize vruntime across runqueues.
		t.vruntime = t.vruntime - k.cores[t.core].minVr + c.minVr
		t.Migrations++
		if k.etr != nil {
			k.etr.Emit(evtrace.Event{Kind: evtrace.KMigrate, At: int64(now),
				Core: int32(id), TID: int32(t.ID), Name: t.Name,
				Arg1: int64(t.core), Arg2: int64(id)})
		}
	}
	if wakeup {
		floor := c.minVr - k.P.SleeperCredit
		if t.vruntime < floor {
			t.vruntime = floor
		}
		t.Wakeups++
	} else if t.vruntime < c.minVr {
		t.vruntime = c.minVr
	}
	t.state = StateRunnable
	wasIdle := c.curr == nil && len(c.rq) == 0
	c.push(t)
	if wasIdle {
		c.pickNext()
		return
	}
	if c.curr == nil {
		// Another enqueue is racing at the same instant; dispatch.
		c.pickNext()
		return
	}
	if wakeup && k.wakePreempts(c, t, now) {
		k.Stats.WakePreemptions++
		// Preempt via a zero-delay timer so we never unwind a running body.
		k.Sim.Cancel(c.timer)
		c.timerKind = timerResched
		c.timer = k.Sim.AtNext(now, c.timerFn)
		return
	}
	if wakeup {
		k.Stats.WakePreemptFailed++
	}
	c.reprogram()
}

// wakePreempts implements check_preempt_wakeup: the wakee preempts the
// current thread only with a sufficient vruntime lead, and (per the paper's
// minimum-runtime guarantee) only once the current thread has run for at
// least MinGranularity.
func (k *Kernel) wakePreempts(c *core, wakee *Thread, now simkit.Time) bool {
	curr := c.curr
	if curr == nil {
		return true
	}
	c.account(now)
	if k.P.WakePreemptMinRun && now-curr.dispatchedAt < k.P.MinGranularity {
		return false
	}
	return curr.vruntime-wakee.vruntime > k.P.WakeupGranularity
}

// wake routes a wakeup through wake placement and C-state exit latency.
func (k *Kernel) wake(t *Thread) {
	now := k.Sim.Now()
	target := k.selectWakeCore(t)
	c := k.cores[target]
	var lat simkit.Time
	if c.idle() {
		if c.deepIdle(now) {
			lat = k.P.DeepIdleWakeLatency
			t.DeepWakes++
		} else {
			lat = k.P.ShallowWakeLatency
		}
	}
	t.wakePending = true
	t.enqTarget, t.enqWake = target, true
	if k.etr != nil {
		k.etr.Emit(evtrace.Event{Kind: evtrace.KWakeup, At: int64(now),
			Core: int32(target), TID: int32(t.ID), Name: t.Name,
			Arg1: int64(target), Arg2: int64(lat)})
	}
	k.Sim.After(lat, t.enqFn)
}

// CoreLoads returns the per-core load_avg as visible to user space via
// /proc. Running and runnable threads contribute 1.0 each. With the paper's
// kernel fix (LoadAvgCountsBlocked) blocked threads contribute
// BlockedLoadWeight toward the core they reside on; otherwise they are
// invisible, which is why vanilla OS load balancing cannot see stacked
// sleeping GC threads.
func (k *Kernel) CoreLoads() []float64 {
	loads := make([]float64, len(k.cores))
	for i, c := range k.cores {
		loads[i] = float64(c.load())
	}
	if k.P.LoadAvgCountsBlocked {
		for _, t := range k.threads {
			if t.state == StateBlocked {
				loads[t.core] += k.P.BlockedLoadWeight
			}
		}
	}
	return loads
}

// RunnableLoads always returns only runnable counts (the balancer's view).
func (k *Kernel) RunnableLoads() []int {
	loads := make([]int, len(k.cores))
	for i, c := range k.cores {
		loads[i] = c.load()
	}
	return loads
}

// CoreOf returns the core a thread currently resides on.
func (k *Kernel) CoreOf(t *Thread) ostopo.CoreID { return t.core }

// Active returns the thread whose body is currently executing, or nil.
func (k *Kernel) Active() *Thread { return k.active }
