// Package runner provides the bounded worker pool that fans independent
// simulation cells out across CPUs. The evaluation suite replays every
// figure as a set of deterministic simulations; each cell derives its own
// seed, so cells may execute in any order and on any goroutine without
// changing the assembled output. The pool bounds in-flight cells (by
// default to GOMAXPROCS) so a large fan-out never oversubscribes the
// machine.
//
// # Per-worker scratch
//
// A Pool also carries a bounded free-list of opaque scratch values
// (GetScratch/PutScratch) so tasks can recycle expensive per-cell state —
// event arenas, heap object tables, runqueue backings — across the cells a
// sweep runs. The contract: a task takes one value (or starts fresh when
// the list is empty), uses it exclusively while it runs, and returns it
// only when done with it; values are never shared between in-flight tasks.
// The list is capped at the pool's worker count, so steady state holds one
// warm scratch per worker and the pool never hoards more. Scratch values
// must make reuse observationally invisible (cells stay deterministic and
// order-independent); see jvm.Scratch for the canonical implementation.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Pool is a bounded worker pool. The zero value is not usable; construct
// with New. A Pool keeps no goroutines alive between calls — workers are
// spawned per ForEach/Map call and bounded by the pool's size, or owned by
// a caller that times each task through Do — so it is cheap to create and
// needs no shutdown. Stats accumulate across calls, letting a caller that
// shares one Pool report aggregate speedup.
type Pool struct {
	workers int
	tasks   atomic.Int64
	busy    atomic.Int64 // nanoseconds spent inside task functions

	mu      sync.Mutex
	scratch []any // free-list of per-worker scratch values, capped at workers
}

// New creates a pool running at most jobs tasks concurrently.
// jobs <= 0 means GOMAXPROCS; jobs == 1 executes everything serially on
// the calling goroutine.
func New(jobs int) *Pool {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: jobs}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Stats returns the number of tasks executed so far and the aggregate time
// spent inside them. busy divided by wall-clock time is the achieved
// speedup. The counters accumulate over the pool's whole lifetime; for a
// single batch on a shared pool, use Snapshot and StatsSince.
func (p *Pool) Stats() (tasks int64, busy time.Duration) {
	return p.tasks.Load(), time.Duration(p.busy.Load())
}

// Snapshot is a point-in-time copy of a pool's cumulative counters, taken
// with Pool.Snapshot and differenced with StatsSince.
type Snapshot struct {
	Tasks int64
	Busy  time.Duration
}

// Snapshot captures the pool's cumulative counters so a later StatsSince
// can report just the work in between — e.g. one experiment's cells on a
// pool shared by a whole evaluation.
func (p *Pool) Snapshot() Snapshot {
	tasks, busy := p.Stats()
	return Snapshot{Tasks: tasks, Busy: busy}
}

// StatsSince returns the tasks executed and busy time accrued since the
// snapshot was taken.
func (p *Pool) StatsSince(s Snapshot) (tasks int64, busy time.Duration) {
	tasks, busy = p.Stats()
	return tasks - s.Tasks, busy - s.Busy
}

// GetScratch pops a pooled scratch value, or returns nil when none is
// available (the caller then builds a fresh one). The value is owned by
// the caller until handed back with PutScratch.
func (p *Pool) GetScratch() any {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.scratch); n > 0 {
		v := p.scratch[n-1]
		p.scratch[n-1] = nil
		p.scratch = p.scratch[:n-1]
		return v
	}
	return nil
}

// PutScratch returns a scratch value to the pool's free-list for a later
// GetScratch. Values beyond one per worker are dropped (left to the Go
// GC) so the pool never retains more warm state than its concurrency can
// use. nil values are ignored.
func (p *Pool) PutScratch(v any) {
	if v == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.scratch) < p.workers {
		p.scratch = append(p.scratch, v)
	}
}

// Do runs one task on the calling goroutine and counts it in Stats like a
// ForEach task: its time, panics included, adds to the busy total. It is
// the entry point for callers that keep their own long-lived workers (the
// what-if service's pull workers) but share the pool's accounting and
// scratch free-list. A panic in fn propagates to the caller.
func (p *Pool) Do(fn func()) {
	t0 := time.Now()
	defer func() {
		p.busy.Add(int64(time.Since(t0)))
		p.tasks.Add(1)
	}()
	fn()
}

// ForEach invokes fn(i) for every i in [0,n), distributing indices across
// the pool's workers, and returns once all invocations have finished.
// Indices are handed out in order but may complete out of order. If any
// fn panics, ForEach stops handing out new indices, waits for in-flight
// tasks, and re-panics the first panic value on the caller's goroutine.
//
// Scratch under panic: sibling in-flight tasks run to completion, so
// scratch they hold is returned by their own PutScratch calls — the
// free-list never loses the survivors' entries. The panicking task's own
// scratch is returned only if the task defers its PutScratch; otherwise
// that one value (and only that one — the leak bound is one scratch per
// panicking task) falls out of the free-list to the Go GC. Deferring the
// return is always safe: the scratch contract requires reuse to be
// observationally invisible, so a value abandoned mid-run must
// reinitialize on its next acquisition (jvm.Scratch does).
func (p *Pool) ForEach(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	timed := func(i int) { p.Do(func() { fn(i) }) }
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			timed(i)
		}
		return
	}
	var (
		next     atomic.Int64
		aborted  atomic.Bool
		panicMu  sync.Mutex
		panicked any
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
					aborted.Store(true)
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || aborted.Load() {
					return
				}
				timed(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Map runs fn over [0,n) on p's workers and returns the results in index
// order, regardless of execution order.
func Map[T any](p *Pool, n int, fn func(int) T) []T {
	out := make([]T, n)
	p.ForEach(n, func(i int) { out[i] = fn(i) })
	return out
}
