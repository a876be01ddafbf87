// Package simkit provides a deterministic discrete-event simulation kernel:
// a virtual nanosecond clock, a cancellable event queue, a seeded random
// number generator, and cooperative coroutine processes.
//
// All upper layers of this repository (the CFS scheduler model, the HotSpot
// monitor model, the Parallel Scavenge engine) are built on this kernel.
// Determinism is guaranteed by (a) a total order on events — (time, sequence
// number) — and (b) the coroutine machinery, which ensures at most one
// simulated process executes at any moment.
//
// The kernel is engineered for throughput: every benchmark run replays on
// the order of 10⁵ events, and hundreds of runs back each figure, so the
// per-event cost bounds the whole experiment catalog. Events live in a
// pooled arena (pool.go) addressed by generation-checked handles, and the
// pending queue is an inlined 4-ary heap (heap4.go); in steady state the
// schedule/fire/cancel path performs no allocations.
package simkit

import (
	"fmt"
	"math/rand"

	"repro/internal/evtrace"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Convenient duration units (Time doubles as a duration type).
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders a Time using the most readable unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Event is a handle to a scheduled callback. It can be cancelled until it
// fires. Event is a small value (not a pointer): the callback's storage
// lives in the Sim's pool and is recycled once the event fires or is
// cancelled. The generation captured in the handle makes operations on a
// stale handle (one whose record has been recycled) safe no-ops. The zero
// Event is inert: not pending, and cancelling it does nothing.
type Event struct {
	s    *Sim
	gen  uint64
	slot int32
}

// At reports when the event is scheduled to fire, or 0 if the event has
// already fired or been cancelled.
func (e Event) At() Time {
	if !e.Pending() {
		return 0
	}
	return e.s.events[e.slot].at
}

// Pending reports whether the event is still scheduled.
func (e Event) Pending() bool {
	return e.s != nil && e.s.events[e.slot].gen == e.gen
}

// Sim is a discrete-event simulator instance. It is not safe for concurrent
// use; the whole simulation is single-threaded by design.
type Sim struct {
	now     Time
	seq     uint64
	pq      []heapEnt  // pending events, 4-ary min-heap by (at, seq)
	events  []eventRec // pooled event records, addressed by slot
	free    []int32    // free-list of recycled slots
	rng     *rand.Rand
	fired   uint64
	clamped uint64
	coros   []stopper // registered coroutines, for cleanup
	etr     *evtrace.Tracer

	// Continuation slot: at most one pending event staged outside the heap
	// (see AtNext). defSlot < 0 means the slot is empty.
	defSlot int32
	defEnt  heapEnt
}

type stopper interface{ stop() }

// New creates a simulator with a deterministic RNG seeded by seed.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed)), defSlot: -1}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's deterministic random number generator.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Fired returns the number of events executed so far.
func (s *Sim) Fired() uint64 { return s.fired }

// Clamped returns the number of At calls that asked for a time in the past
// and were clamped to "now". A well-formed model never schedules into the
// past, so test suites assert this stays zero to surface latent scheduling
// bugs instead of silently hiding them.
func (s *Sim) Clamped() uint64 { return s.clamped }

// Pending returns the number of scheduled, not-yet-fired events.
func (s *Sim) Pending() int {
	n := len(s.pq)
	if s.defSlot >= 0 {
		n++
	}
	return n
}

// SetTracer installs an event-bus tracer (nil disables tracing). Tracing
// only records; it never perturbs the event order, clock, or RNG, so runs
// are identical with tracing on or off.
func (s *Sim) SetTracer(t *evtrace.Tracer) { s.etr = t }

// Tracer returns the installed tracer, or nil when tracing is disabled.
func (s *Sim) Tracer() *evtrace.Tracer { return s.etr }

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error in the caller; it is clamped to "now" to keep the clock monotonic,
// and counted in Clamped.
func (s *Sim) At(t Time, fn func()) Event {
	if t < s.now {
		t = s.now
		s.clamped++
	}
	s.seq++
	slot := s.allocSlot(t, fn)
	s.heapPush(heapEnt{at: t, seq: s.seq, slot: slot})
	if s.etr != nil {
		s.etr.Emit(evtrace.Event{Kind: evtrace.KEvSchedule, At: int64(s.now), Core: -1, TID: -1, Arg1: int64(t)})
	}
	return Event{s: s, gen: s.events[slot].gen, slot: slot}
}

// After schedules fn to run d nanoseconds from now.
func (s *Sim) After(d Time, fn func()) Event { return s.At(s.now+d, fn) }

// AtNext schedules fn at absolute time t, exactly like At, but stages the
// event in the Sim's one-entry continuation slot instead of pushing it onto
// the heap. The slot is the batch-dispatch fast path for self-reprogramming
// event chains (a core timer that cancels and reschedules itself on every
// continuation): while the staged event stays the earliest pending one it
// fires straight from the slot and a Cancel releases it in O(1), so a run of
// same-core continuations costs zero heap sift operations. The (at, seq)
// total order is untouched — the slot entry is assigned its sequence number
// by the same counter, Step compares it against the heap root with the same
// entBefore order, and it is pushed onto the heap ("materialized") the
// moment a later AtNext wants the slot or the heap root must fire first.
// Scheduling, firing, and cancellation are observably identical to At.
func (s *Sim) AtNext(t Time, fn func()) Event {
	if t < s.now {
		t = s.now
		s.clamped++
	}
	s.seq++
	if s.defSlot >= 0 {
		s.materializeDeferred()
	}
	slot := s.allocSlot(t, fn)
	s.events[slot].hidx = hidxDeferred
	s.defSlot = slot
	s.defEnt = heapEnt{at: t, seq: s.seq, slot: slot}
	if s.etr != nil {
		s.etr.Emit(evtrace.Event{Kind: evtrace.KEvSchedule, At: int64(s.now), Core: -1, TID: -1, Arg1: int64(t)})
	}
	return Event{s: s, gen: s.events[slot].gen, slot: slot}
}

// materializeDeferred moves the staged continuation event into the heap.
func (s *Sim) materializeDeferred() {
	ent := s.defEnt
	s.defSlot = -1
	s.heapPush(ent)
}

// Cancel removes a pending event. Cancelling a fired, already-cancelled, or
// zero Event is a no-op.
func (s *Sim) Cancel(e Event) {
	if e.s != s {
		return
	}
	rec := &s.events[e.slot]
	if rec.gen != e.gen {
		return // already fired or cancelled; the record may be reused
	}
	if s.etr != nil {
		s.etr.Emit(evtrace.Event{Kind: evtrace.KEvCancel, At: int64(s.now), Core: -1, TID: -1, Arg1: int64(rec.at)})
	}
	if rec.hidx == hidxDeferred {
		s.defSlot = -1 // release the continuation slot; no heap ops at all
	} else {
		s.heapRemove(int(rec.hidx))
	}
	s.freeSlot(e.slot)
}

// Step fires the next event. It returns false when the queue is empty.
func (s *Sim) Step() bool {
	if s.defSlot >= 0 && (len(s.pq) == 0 || entBefore(s.defEnt, s.pq[0])) {
		ent := s.defEnt
		s.defSlot = -1
		s.fire(ent)
		return true
	}
	if len(s.pq) == 0 {
		return false
	}
	s.fire(s.heapPopRoot())
	return true
}

// fire runs one dequeued event entry: release its record, advance the
// clock, and invoke the callback.
func (s *Sim) fire(ent heapEnt) {
	fn := s.events[ent.slot].fn
	s.freeSlot(ent.slot)
	s.now = ent.at
	s.fired++
	if s.etr != nil {
		s.etr.Emit(evtrace.Event{Kind: evtrace.KEvFire, At: int64(ent.at), Core: -1, TID: -1, Arg1: int64(ent.seq)})
	}
	fn()
}

// Run executes events until the queue is empty.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// nextAt returns the earliest pending event time across the heap and the
// continuation slot, and whether any event is pending.
func (s *Sim) nextAt() (Time, bool) {
	if len(s.pq) == 0 {
		if s.defSlot < 0 {
			return 0, false
		}
		return s.defEnt.at, true
	}
	at := s.pq[0].at
	if s.defSlot >= 0 && s.defEnt.at < at {
		at = s.defEnt.at
	}
	return at, true
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t. Events scheduled beyond t remain pending.
func (s *Sim) RunUntil(t Time) {
	for {
		at, ok := s.nextAt()
		if !ok || at > t {
			break
		}
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// RunFor executes events for the next d nanoseconds of virtual time.
func (s *Sim) RunFor(d Time) { s.RunUntil(s.now + d) }

// Close stops every registered coroutine, releasing their goroutines. A Sim
// must be closed when discarded before all coroutines have finished (for
// example in tests that run many simulations).
func (s *Sim) Close() {
	for _, c := range s.coros {
		c.stop()
	}
	s.coros = nil
}

func (s *Sim) register(c stopper) { s.coros = append(s.coros, c) }
