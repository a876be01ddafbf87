// Package jmutex models the HotSpot JVM's native monitor (§2.4 of the
// paper): a mutex with a CAS fast path and a queue-based slow path (cxq,
// EntryList, OnDeck), a WaitSet condition queue, and the competitive
// handoff policy. The model reproduces HotSpot's deliberate short-term
// unfairness:
//
//  1. the previous owner may re-acquire the lock through the fast path,
//     starving the OnDeck thread and the cxq waiters;
//  2. newly arrived threads can bypass all queued waiters;
//  3. at most one queued waiter (OnDeck) is ever awake, so blocked waiters
//     are invisible to OS load balancing.
//
// Alternative policies reproduce the fixes the paper tried and rejected in
// §4.1: a fair FIFO handoff, disabling the fast path, and waking all
// contenders.
package jmutex

import (
	"fmt"

	"repro/internal/cfs"
	"repro/internal/evtrace"
	"repro/internal/simkit"
)

// Policy selects the lock acquisition/handoff discipline.
type Policy int

const (
	// PolicyHotSpot is the default HotSpot monitor: CAS fast path with
	// bypass, single OnDeck heir, competitive handoff.
	PolicyHotSpot Policy = iota
	// PolicyFairFIFO hands the lock directly to the oldest waiter; new
	// arrivals never bypass the queue. (§4.1: "enforcing fair (FIFO) mutex
	// acquisition".)
	PolicyFairFIFO
	// PolicyNoFastPath keeps competitive handoff but disables the bypassing
	// fast path: arrivals queue behind existing waiters. (§4.1: "disabling
	// all fast paths in locking".)
	PolicyNoFastPath
	// PolicyWakeAll wakes every queued contender at unlock and lets them
	// race. (§4.1: "allowing multiple active lock contenders".)
	PolicyWakeAll
)

func (p Policy) String() string {
	switch p {
	case PolicyHotSpot:
		return "hotspot"
	case PolicyFairFIFO:
		return "fair-fifo"
	case PolicyNoFastPath:
		return "no-fast-path"
	case PolicyWakeAll:
		return "wake-all"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Stats counts lock events for the paper's §3.2 analysis.
type Stats struct {
	FastAcquires    int // acquisitions through the CAS fast path
	SlowAcquires    int // acquisitions after queuing at least once
	OwnerReacquires int // fast acquisitions by the previous owner
	Bypasses        int // fast acquisitions that jumped over queued waiters
	Handoffs        int // acquisitions by the OnDeck heir / FIFO successor
	Notifies        int
	ParkEvents      int // times a contender had to park
	// MaxConcurrentSeekers is the most threads ever simultaneously awake
	// and competing for the lock (§3.2: at most two during a stacked GC —
	// the previous owner and the OnDeck thread).
	MaxConcurrentSeekers int
}

// Monitor is a HotSpot native monitor: mutual exclusion plus a WaitSet.
type Monitor struct {
	Name   string
	k      *cfs.Kernel
	policy Policy

	owner     *cfs.Thread
	lastOwner *cfs.Thread
	cxq       []*cfs.Thread // LIFO: index 0 is the most recent arrival
	entryList []*cfs.Thread // FIFO: index 0 is the next OnDeck
	onDeck    *cfs.Thread
	waitSet   []*cfs.Thread // FIFO

	casCost    simkit.Time
	unlockCost simkit.Time

	seekers int // threads awake and competing right now

	Stats Stats

	etr *evtrace.Tracer // captured from the kernel at construction
}

// New creates a monitor with the given policy on kernel k.
func New(k *cfs.Kernel, name string, policy Policy) *Monitor {
	return &Monitor{
		Name:       name,
		k:          k,
		policy:     policy,
		casCost:    50 * simkit.Nanosecond,
		unlockCost: 100 * simkit.Nanosecond,
		etr:        k.EvTracer(),
	}
}

// emit publishes one lock event on the bus (no-op when tracing is off).
// m.Name is a preexisting string, so this path never allocates.
func (m *Monitor) emit(kind evtrace.Kind, t *cfs.Thread, arg1, arg2 int64) {
	m.etr.Emit(evtrace.Event{
		Kind: kind, At: int64(m.k.Sim.Now()), Core: -1,
		TID: int32(t.ID), Name: m.Name, Arg1: arg1, Arg2: arg2,
	})
}

// Policy returns the monitor's acquisition policy.
func (m *Monitor) Policy() Policy { return m.policy }

// Owner returns the current lock holder (nil when free).
func (m *Monitor) Owner() *cfs.Thread { return m.owner }

// QueuedWaiters returns the number of threads blocked on the lock
// (cxq + EntryList + OnDeck).
func (m *Monitor) QueuedWaiters() int {
	n := len(m.cxq) + len(m.entryList)
	if m.onDeck != nil {
		n++
	}
	return n
}

// WaitSetLen returns the number of threads sleeping on the condition.
func (m *Monitor) WaitSetLen() int { return len(m.waitSet) }

// HeldBy reports whether t owns the monitor.
func (m *Monitor) HeldBy(t *cfs.Thread) bool { return m.owner == t }

// seek tracks how many contenders are awake and competing (§3.2).
func (m *Monitor) seek(delta int) {
	m.seekers += delta
	if m.seekers > m.Stats.MaxConcurrentSeekers {
		m.Stats.MaxConcurrentSeekers = m.seekers
	}
}

// Lock acquires the monitor, blocking as needed. It is composed of the
// three fold-friendly pieces below (LockBegin / TryLockFast /
// LockContended) so that a driver-serviced compute plan can run the
// uncontended acquisition without resuming the thread's body; calling Lock
// and calling the pieces in that order are observably identical.
func (m *Monitor) Lock(e *cfs.Env) {
	e.Compute(m.LockBegin(e.T))
	if m.TryLockFast(e.T) {
		return
	}
	m.LockContended(e)
}

// LockBegin registers t as a lock seeker and returns the CAS cost the
// caller must consume (via Compute or a plan slice) before deciding the
// acquisition with TryLockFast.
func (m *Monitor) LockBegin(t *cfs.Thread) simkit.Time {
	if m.owner == t {
		panic("jmutex: recursive Lock on " + m.Name + " by " + t.Name)
	}
	m.seek(1)
	return m.casCost
}

// TryLockFast attempts the post-CAS fast path for t, performing the full
// fast-acquisition bookkeeping (stats, trace events, ownership) on
// success. On failure the thread remains a seeker and must
// finish the acquisition with LockContended.
func (m *Monitor) TryLockFast(t *cfs.Thread) bool {
	switch m.policy {
	case PolicyHotSpot, PolicyWakeAll:
		if m.owner != nil {
			return false
		}
		m.Stats.FastAcquires++
		reacq := int64(0)
		if m.lastOwner == t {
			m.Stats.OwnerReacquires++
			reacq = 1
		}
		if q := m.QueuedWaiters(); q > 0 {
			m.Stats.Bypasses++
			if m.etr != nil {
				m.emit(evtrace.KLockBypass, t, int64(q), reacq)
			}
		}
		if m.etr != nil {
			m.emit(evtrace.KLockFast, t, int64(m.QueuedWaiters()), reacq)
		}
		m.owner = t
		m.seek(-1)
		return true
	default: // PolicyNoFastPath, PolicyFairFIFO: no bypassing fast path
		if m.owner != nil || m.QueuedWaiters() != 0 {
			return false
		}
		m.Stats.FastAcquires++
		if m.etr != nil {
			m.emit(evtrace.KLockFast, t, 0, reacquireArg(m, t))
		}
		m.owner = t
		m.seek(-1)
		return true
	}
}

// LockContended finishes an acquisition whose fast path failed, queuing
// and parking per the policy. Must run in the thread's body (it blocks).
func (m *Monitor) LockContended(e *cfs.Env) {
	defer m.seek(-1)
	if m.policy == PolicyFairFIFO {
		m.fifoSlow(e)
		return
	}
	m.competitiveSlow(e)
}

// competitiveSlow queues the thread and retries the CAS whenever it is
// woken (competitive handoff: being OnDeck grants no ownership).
func (m *Monitor) competitiveSlow(e *cfs.Env) {
	t := e.T
	for {
		if m.owner == nil {
			// Won the race. Clear our queue presence.
			if m.onDeck == t {
				m.onDeck = nil
				m.Stats.Handoffs++
			}
			m.removeQueued(t)
			if m.etr != nil {
				m.emit(evtrace.KLockHandoff, t, int64(m.QueuedWaiters()), 0)
			}
			m.owner = t
			m.Stats.SlowAcquires++
			return
		}
		if m.onDeck != t && !m.isQueued(t) {
			m.cxq = pushHead(m.cxq, t)
		}
		m.Stats.ParkEvents++
		if m.etr != nil {
			m.emit(evtrace.KLockBlock, t, int64(m.QueuedWaiters()), 0)
		}
		m.seek(-1)
		e.Park()
		m.seek(1)
		e.Compute(m.casCost) // retry CAS after wakeup
	}
}

// fifoSlow queues the thread; ownership is assigned by the unlocker.
func (m *Monitor) fifoSlow(e *cfs.Env) {
	t := e.T
	m.cxq = pushHead(m.cxq, t)
	for m.owner != t {
		m.Stats.ParkEvents++
		if m.etr != nil {
			m.emit(evtrace.KLockBlock, t, int64(m.QueuedWaiters()), 0)
		}
		e.Park()
	}
	m.Stats.SlowAcquires++
	m.Stats.Handoffs++
	if m.etr != nil {
		m.emit(evtrace.KLockHandoff, t, int64(m.QueuedWaiters()), 0)
	}
}

// Unlock releases the monitor and wakes successor(s) per policy. Like
// Lock, it decomposes into UnlockBegin (cost) + UnlockFinish (release) so
// compute plans can drive it without a body resume.
func (m *Monitor) Unlock(e *cfs.Env) {
	e.Compute(m.UnlockBegin(e.T))
	m.UnlockFinish(e.T)
}

// UnlockBegin validates ownership and returns the release cost the caller
// must consume before completing the release with UnlockFinish.
func (m *Monitor) UnlockBegin(t *cfs.Thread) simkit.Time {
	if m.owner != t {
		panic("jmutex: Unlock of " + m.Name + " by non-owner " + t.Name)
	}
	return m.unlockCost
}

// UnlockFinish releases the monitor and wakes successor(s) per policy. It
// never blocks, so it is safe to call from the driver side.
func (m *Monitor) UnlockFinish(t *cfs.Thread) { m.unlockFrom(t) }

// unlockFrom implements the release path (shared with Wait).
func (m *Monitor) unlockFrom(t *cfs.Thread) {
	m.owner = nil
	m.lastOwner = t
	if m.etr != nil {
		m.emit(evtrace.KLockRelease, t, int64(m.QueuedWaiters()), 0)
	}
	switch m.policy {
	case PolicyFairFIFO:
		if next := m.popOldest(); next != nil {
			m.owner = next // direct handoff
			if m.etr != nil {
				m.emit(evtrace.KLockUnblock, next, int64(t.ID), 0)
			}
			m.k.Unpark(next)
		}
	case PolicyWakeAll:
		// Wake everyone; they race for the CAS when scheduled.
		wake := append([]*cfs.Thread{}, m.entryList...)
		wake = append(wake, m.cxq...)
		if m.onDeck != nil {
			wake = append([]*cfs.Thread{m.onDeck}, wake...)
		}
		for _, w := range wake {
			if m.etr != nil {
				m.emit(evtrace.KLockUnblock, w, int64(t.ID), 0)
			}
			m.k.Unpark(w)
		}
	default: // PolicyHotSpot, PolicyNoFastPath
		if m.onDeck == nil {
			if len(m.entryList) == 0 && len(m.cxq) > 0 {
				// Drain cxq into EntryList, oldest arrival first. Both
				// backings are kept for reuse: this runs once per wake in
				// the sequential GC-startup chain.
				for i := len(m.cxq) - 1; i >= 0; i-- {
					m.entryList = append(m.entryList, m.cxq[i])
					m.cxq[i] = nil
				}
				m.cxq = m.cxq[:0]
			}
			if len(m.entryList) > 0 {
				m.onDeck = m.entryList[0]
				n := copy(m.entryList, m.entryList[1:])
				m.entryList[n] = nil
				m.entryList = m.entryList[:n]
			}
		}
		if m.onDeck != nil {
			// Competitive handoff: wake the heir; it must win the CAS
			// by itself.
			if m.etr != nil {
				m.emit(evtrace.KLockUnblock, m.onDeck, int64(t.ID), 0)
			}
			m.k.Unpark(m.onDeck)
		}
	}
}

// Wait releases the monitor, sleeps on the WaitSet, and re-acquires after
// being selected. The owner must hold the lock. Like Lock and Unlock it
// decomposes into a plan-callable prefix (WaitBegin: WaitSet registration
// plus the release cost) and a body-only remainder (WaitFinish: the release
// itself and the park/re-acquire loop), so a compute plan can run the
// thread right up to the point where it must actually sleep.
func (m *Monitor) Wait(e *cfs.Env) {
	e.Compute(m.WaitBegin(e.T))
	m.WaitFinish(e)
}

// WaitBegin registers t on the WaitSet and returns the release cost the
// caller must consume (via Compute or a plan slice) before finishing with
// WaitFinish. The registration happens here — before the cost is consumed —
// exactly as in the fused Wait.
func (m *Monitor) WaitBegin(t *cfs.Thread) simkit.Time {
	if m.owner != t {
		panic("jmutex: Wait on " + m.Name + " by non-owner " + t.Name)
	}
	m.waitSet = append(m.waitSet, t)
	return m.unlockCost
}

// WaitFinish releases the monitor and blocks until the thread is selected
// out of the WaitSet and wins the lock. Must run in the thread's body.
func (m *Monitor) WaitFinish(e *cfs.Env) {
	t := e.T
	m.unlockFrom(t)
	// Sleep until this thread is out of the WaitSet AND wins the lock.
	if m.policy == PolicyFairFIFO {
		for m.owner != t {
			m.Stats.ParkEvents++
			if m.etr != nil {
				m.emit(evtrace.KLockBlock, t, int64(m.QueuedWaiters()), 1)
			}
			e.Park()
		}
		m.Stats.SlowAcquires++
		if m.etr != nil {
			m.emit(evtrace.KLockHandoff, t, int64(m.QueuedWaiters()), 1)
		}
		return
	}
	// HotSpot: a notify moves us to cxq without waking; we are unparked
	// only when an unlocker selects us as OnDeck (or wake-all fires).
	for {
		m.Stats.ParkEvents++
		if m.etr != nil {
			m.emit(evtrace.KLockBlock, t, int64(m.QueuedWaiters()), 1)
		}
		e.Park()
		if m.inWaitSet(t) {
			continue // spurious permit while still waiting
		}
		e.Compute(m.casCost)
		if m.owner == nil {
			if m.onDeck == t {
				m.onDeck = nil
				m.Stats.Handoffs++
			}
			m.removeQueued(t)
			m.owner = t
			m.Stats.SlowAcquires++
			if m.etr != nil {
				m.emit(evtrace.KLockHandoff, t, int64(m.QueuedWaiters()), 1)
			}
			return
		}
		if m.onDeck != t && !m.isQueued(t) {
			m.cxq = pushHead(m.cxq, t)
		}
	}
}

// Notify moves the oldest WaitSet thread to the lock queue (without waking
// it, per HotSpot). The caller must hold the monitor.
func (m *Monitor) Notify(e *cfs.Env) {
	if m.owner != e.T {
		panic("jmutex: Notify on " + m.Name + " by non-owner " + e.T.Name)
	}
	m.Stats.Notifies++
	if len(m.waitSet) == 0 {
		return
	}
	w := m.waitSet[0]
	n := copy(m.waitSet, m.waitSet[1:])
	m.waitSet[n] = nil
	m.waitSet = m.waitSet[:n]
	m.transferNotified(w)
}

// NotifyAll moves every WaitSet thread to the lock queue. With the HotSpot
// policy none of them is woken here — they are transferred asleep and wake
// one at a time through the unlock chain (§2.4), which is the root of the
// sequential-wake behaviour during GC startup.
func (m *Monitor) NotifyAll(e *cfs.Env) {
	if m.owner != e.T {
		panic("jmutex: NotifyAll on " + m.Name + " by non-owner " + e.T.Name)
	}
	m.Stats.Notifies++
	// Transfers only ever append to cxq, so the WaitSet backing can be
	// truncated up front and reused by the next Wait without reallocating
	// (this runs once per collection on the hot enqueueAll path).
	ws := m.waitSet
	m.waitSet = m.waitSet[:0]
	for _, w := range ws {
		m.transferNotified(w)
	}
}

func (m *Monitor) transferNotified(w *cfs.Thread) {
	m.cxq = pushHead(m.cxq, w)
	if m.policy == PolicyWakeAll {
		m.k.Unpark(w)
	}
}

// pushHead inserts t at the head of q in place. The queues here see a
// head-push per wait/notify of every collection, so they must reuse their
// backing arrays rather than allocate a fresh slice per push.
func pushHead(q []*cfs.Thread, t *cfs.Thread) []*cfs.Thread {
	q = append(q, nil)
	copy(q[1:], q)
	q[0] = t
	return q
}

func (m *Monitor) isQueued(t *cfs.Thread) bool {
	for _, q := range m.cxq {
		if q == t {
			return true
		}
	}
	for _, q := range m.entryList {
		if q == t {
			return true
		}
	}
	return false
}

func (m *Monitor) inWaitSet(t *cfs.Thread) bool {
	for _, q := range m.waitSet {
		if q == t {
			return true
		}
	}
	return false
}

func (m *Monitor) removeQueued(t *cfs.Thread) {
	m.cxq = removeFrom(m.cxq, t)
	m.entryList = removeFrom(m.entryList, t)
}

// popOldest removes the oldest queued waiter (EntryList head, else cxq
// tail), for the FIFO policy.
func (m *Monitor) popOldest() *cfs.Thread {
	if m.onDeck != nil {
		w := m.onDeck
		m.onDeck = nil
		return w
	}
	if len(m.entryList) > 0 {
		w := m.entryList[0]
		n := copy(m.entryList, m.entryList[1:])
		m.entryList[n] = nil
		m.entryList = m.entryList[:n]
		return w
	}
	if len(m.cxq) > 0 {
		w := m.cxq[len(m.cxq)-1]
		m.cxq = m.cxq[:len(m.cxq)-1]
		return w
	}
	return nil
}

// reacquireArg is 1 when t was also the previous owner (for trace args).
func reacquireArg(m *Monitor, t *cfs.Thread) int64 {
	if m.lastOwner == t {
		return 1
	}
	return 0
}

func removeFrom(q []*cfs.Thread, t *cfs.Thread) []*cfs.Thread {
	for i, v := range q {
		if v == t {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}
