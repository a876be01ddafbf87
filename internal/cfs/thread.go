package cfs

import (
	"math/rand"

	"repro/internal/ostopo"
	"repro/internal/simkit"
)

// State is a simulated thread's scheduling state.
type State int

const (
	// StateRunnable means the thread is on a runqueue waiting for CPU.
	StateRunnable State = iota
	// StateRunning means the thread is current on some core.
	StateRunning
	// StateBlocked means the thread is parked or sleeping.
	StateBlocked
	// StateDone means the thread's body returned.
	StateDone
)

func (s State) String() string {
	switch s {
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateDone:
		return "done"
	}
	return "?"
}

// request is what a thread body yields to the kernel. It is a small value
// (not an interface) so that yielding never allocates: the old interface
// encoding boxed every reqCompute on the heap, one allocation per
// scheduling point.
//
// A compute request may carry a plan (see ComputePlan): the kernel asks fn
// for each follow-on slice from the driver side — same timer events, same
// accounting, same preemption — without resuming the body between slices
// (see core.planContinue), so a body whose work between slices is simple
// pays one coroutine switch for the whole plan instead of one per slice.
type request struct {
	d    simkit.Time // compute or sleep duration
	fn   PlanFn      // callback plan: produces follow-on slices driver-side
	kind reqKind
}

type reqKind uint8

const (
	reqCompute reqKind = iota
	reqSleep
	reqPark
	reqYield
	reqMigrate
)

// Thread is a simulated OS thread.
type Thread struct {
	ID   int
	Name string

	k    *Kernel
	coro *simkit.Coro[request]

	state State
	core  ostopo.CoreID // current core, or residence core while blocked
	seq   uint64        // runqueue tiebreak

	vruntime  simkit.Time
	remaining simkit.Time // work left in the current compute slice

	// Compute-plan state (ComputePlan): when the current slice completes,
	// planFn is consulted for the next one instead of resuming the body,
	// until it reports the plan done. Preemption and migration leave the
	// plan intact; it resumes with the thread.
	planFn PlanFn

	dispatchedAt simkit.Time // when the current stint on CPU began
	lastAccount  simkit.Time // last time CPU accounting ran for this thread
	lastRanAt    simkit.Time // last time it was descheduled (cache-hot test)

	affinity    []bool // nil = any core; else allowed mask by CoreID
	permit      bool   // LockSupport-style unpark permit
	parked      bool   // blocked via Park (vs Sleep)
	wakePending bool   // a wake event is in flight
	sleepEv     simkit.Event

	// Prebuilt event callbacks, allocated once at Spawn so the hot
	// sleep/wake/migrate paths never build closures. Each is safe to share
	// across uses because at most one instance is ever in flight per
	// thread: sleepFn via sleepEv, enqFn via the wakePending flag (wake
	// path) or the thread being off-queue (spawn and migrate paths).
	sleepFn   func()
	enqFn     func()
	enqTarget ostopo.CoreID // pending enqFn destination
	enqWake   bool          // pending enqFn is a wakeup

	// Statistics.
	CPUTime    simkit.Time
	Wakeups    int
	Migrations int
	DeepWakes  int
}

// State returns the thread's current scheduling state.
func (t *Thread) State() State { return t.state }

// Core returns the thread's current (or, while blocked, last) core.
func (t *Thread) Core() ostopo.CoreID { return t.core }

// allowed reports whether the thread may run on core c.
func (t *Thread) allowed(c ostopo.CoreID) bool {
	return t.affinity == nil || t.affinity[c]
}

// Env is the interface a thread body uses to interact with the simulated
// kernel. It is only valid inside the body it was created for.
type Env struct {
	T     *Thread
	yield func(request)
}

// Now returns the current virtual time.
func (e *Env) Now() simkit.Time { return e.T.k.Sim.Now() }

// Rand returns the simulation RNG.
func (e *Env) Rand() *rand.Rand { return e.T.k.Sim.Rand() }

// Kernel returns the kernel this thread runs on.
func (e *Env) Kernel() *Kernel { return e.T.k }

// Core returns the core the thread is currently running on.
func (e *Env) Core() ostopo.CoreID { return e.T.core }

// Compute consumes d nanoseconds of CPU work. The thread may be preempted
// and migrated while computing; Compute returns once the work is done.
func (e *Env) Compute(d simkit.Time) {
	if d <= 0 {
		return
	}
	e.yield(request{d: d, kind: reqCompute})
}

// PlanFn produces the slices of a callback compute plan. Each call returns
// the next slice's duration and true, or false when the plan is finished.
// The kernel calls it from the driver side (inside the completion timer of
// the previous slice), so it runs at exactly the virtual time the body
// would have resumed at — it may therefore read and write simulation state
// (draw from the Sim RNG, take fast-path locks, allocate) exactly as the
// body would, but it must not block: anything that needs Park/Sleep/a
// contended lock ends the plan with false and lets the body take over.
// Slices must be positive; a non-positive duration is skipped and the plan
// is consulted again, mirroring how Compute treats d <= 0 as a no-op.
type PlanFn func() (simkit.Time, bool)

// ComputePlan runs a callback compute plan: fn is consulted for each slice
// in turn, and the kernel services the follow-on slices driver-side — the
// same timer events, vruntime accounting and preemption as the equivalent
// chain of Compute calls, without resuming the body between slices. It
// returns once fn reports the plan done. Use it when the work *between*
// slices is simple enough to run from the driver (bump a counter, check a
// flag, try an allocation). A plan whose fn never reports done computes
// until the simulation ends: the busy-loop idiom `for { e.Compute(d) }`
// without a coroutine switch per slice.
func (e *Env) ComputePlan(fn PlanFn) {
	for {
		d, ok := fn()
		if !ok {
			return
		}
		if d > 0 {
			e.yield(request{d: d, fn: fn, kind: reqCompute})
			return
		}
	}
}

// Sleep blocks the thread for d nanoseconds of virtual time.
func (e *Env) Sleep(d simkit.Time) {
	if d <= 0 {
		return
	}
	e.yield(request{d: d, kind: reqSleep})
}

// Park blocks the thread until another thread calls Kernel.Unpark on it.
// Like java.util.concurrent.LockSupport, an Unpark that arrives while the
// thread is not parked stores a permit that makes the next Park return
// immediately.
func (e *Env) Park() {
	if e.T.permit {
		e.T.permit = false
		return
	}
	e.yield(request{kind: reqPark})
}

// YieldCPU gives up the CPU (sched_yield). If other threads are runnable on
// this core, one of them is dispatched.
func (e *Env) YieldCPU() { e.yield(request{kind: reqYield}) }

// SetAffinity binds the thread to the given cores (empty clears the mask,
// allowing all cores). If the thread is currently on a disallowed core it
// migrates immediately.
func (e *Env) SetAffinity(cores ...ostopo.CoreID) {
	t := e.T
	if len(cores) == 0 {
		t.affinity = nil
		return
	}
	mask := make([]bool, t.k.Topo.NumCPUs())
	ok := false
	for _, c := range cores {
		if int(c) >= 0 && int(c) < len(mask) {
			mask[c] = true
			ok = true
		}
	}
	if !ok {
		return
	}
	t.affinity = mask
	if !t.allowed(t.core) {
		e.yield(request{kind: reqMigrate})
	}
}
