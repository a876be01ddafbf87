package runner

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if got, want := New(0).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("New(0).Workers() = %d, want %d", got, want)
	}
	if got := New(-3).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("New(-3).Workers() = %d, want GOMAXPROCS", got)
	}
	if got := New(7).Workers(); got != 7 {
		t.Errorf("New(7).Workers() = %d, want 7", got)
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, jobs := range []int{1, 2, 4, 16} {
		p := New(jobs)
		const n = 200
		var counts [n]atomic.Int32
		p.ForEach(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("jobs=%d: index %d ran %d times", jobs, i, c)
			}
		}
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	p := New(4)
	ran := false
	p.ForEach(0, func(int) { ran = true })
	p.ForEach(-5, func(int) { ran = true })
	if ran {
		t.Error("ForEach ran tasks for n <= 0")
	}
}

func TestMapOrdersResults(t *testing.T) {
	p := New(8)
	got := Map(p, 100, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("Map[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapSerialEqualsParallel(t *testing.T) {
	f := func(i int) int { return 31*i + 7 }
	serial := Map(New(1), 64, f)
	parallel := Map(New(8), 64, f)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("index %d: serial %d != parallel %d", i, serial[i], parallel[i])
		}
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		p := New(jobs)
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("jobs=%d: recovered %v, want boom", jobs, r)
				}
			}()
			p.ForEach(50, func(i int) {
				if i == 13 {
					panic("boom")
				}
			})
			t.Errorf("jobs=%d: ForEach returned instead of panicking", jobs)
		}()
	}
}

func TestStatsAccumulate(t *testing.T) {
	p := New(4)
	p.ForEach(10, func(int) {})
	tasks, _ := p.Stats()
	if tasks != 10 {
		t.Errorf("Stats tasks = %d, want 10", tasks)
	}
	p.ForEach(5, func(int) {})
	if tasks, _ = p.Stats(); tasks != 15 {
		t.Errorf("Stats tasks after second call = %d, want 15", tasks)
	}
}

// Do is a one-task ForEach for callers that own their workers: it runs on
// the caller's goroutine, its time (a panicking task's included) lands in
// Stats, and the panic reaches the caller.
func TestDoCountsLikeForEachTask(t *testing.T) {
	p := New(2)
	ran := false
	p.Do(func() { ran = true; time.Sleep(time.Millisecond) })
	if !ran {
		t.Fatal("Do did not run its task")
	}
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want the task's panic", r)
			}
		}()
		p.Do(func() { panic("boom") })
	}()
	tasks, busy := p.Stats()
	if tasks != 2 || busy < time.Millisecond {
		t.Errorf("Stats after two Do tasks = (%d, %v), want (2, >= 1ms)", tasks, busy)
	}
}

// TestStatsSinceReportsDeltas is the regression test for per-experiment
// speedup reporting: cumulative Stats on a shared pool must not leak one
// batch's work into the next batch's numbers.
func TestStatsSinceReportsDeltas(t *testing.T) {
	p := New(4)
	p.ForEach(10, func(int) { time.Sleep(time.Millisecond) })

	snap := p.Snapshot()
	p.ForEach(7, func(int) { time.Sleep(time.Millisecond) })
	tasks, busy := p.StatsSince(snap)
	if tasks != 7 {
		t.Errorf("StatsSince tasks = %d, want 7 (cumulative leak)", tasks)
	}
	if busy < 7*time.Millisecond {
		t.Errorf("StatsSince busy = %v, want >= 7ms", busy)
	}
	// The delta must be a strict subset of the lifetime counters.
	totalTasks, totalBusy := p.Stats()
	if totalTasks != 17 || busy >= totalBusy {
		t.Errorf("StatsSince busy %v not below lifetime busy %v (tasks %d)", busy, totalBusy, totalTasks)
	}
}

// TestScratchFreeList exercises the Get/Put contract: LIFO reuse, nil
// rejection, and the one-per-worker cap.
func TestScratchFreeList(t *testing.T) {
	p := New(2)
	if v := p.GetScratch(); v != nil {
		t.Fatalf("empty pool returned scratch %v", v)
	}
	a, b, c := new(int), new(int), new(int)
	p.PutScratch(a)
	p.PutScratch(b)
	p.PutScratch(c) // beyond the worker cap: dropped
	p.PutScratch(nil)
	got := []any{p.GetScratch(), p.GetScratch()}
	if got[0] != b || got[1] != a {
		t.Errorf("expected LIFO [b a], got %v", got)
	}
	if v := p.GetScratch(); v != nil {
		t.Errorf("free-list should be drained, got %v", v)
	}
}

// TestScratchConcurrentTasksNeverShare asserts exclusivity: values taken
// inside concurrently running tasks are never handed to two tasks at once.
func TestScratchConcurrentTasksNeverShare(t *testing.T) {
	p := New(8)
	p.ForEach(200, func(i int) {
		v, _ := p.GetScratch().(*atomic.Int32)
		if v == nil {
			v = new(atomic.Int32)
		}
		if !v.CompareAndSwap(0, 1) {
			t.Error("scratch value handed to two tasks at once")
		}
		time.Sleep(100 * time.Microsecond)
		v.Store(0)
		p.PutScratch(v)
	})
}

// TestForEachPanicScratchLeakBound pins the scratch-under-panic contract:
// sibling in-flight tasks run to completion and return their scratch, so a
// panicking task leaks at most its own value — and leaks nothing at all
// when it defers the return, which the contract makes always-safe.
func TestForEachPanicScratchLeakBound(t *testing.T) {
	pool := New(4)
	refill := func() {
		for i := 0; i < 4; i++ {
			pool.PutScratch(fmt.Sprintf("scratch-%d", i))
		}
	}
	drain := func() int {
		n := 0
		for pool.GetScratch() != nil {
			n++
		}
		return n
	}

	// Undeferred return: the panicking task's scratch (and only that one)
	// falls out of the free-list.
	refill()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ForEach did not propagate the panic")
			}
		}()
		pool.ForEach(32, func(i int) {
			v := pool.GetScratch()
			if v == nil {
				t.Error("free-list empty: more concurrent holders than workers")
			}
			if i == 0 {
				panic("injected")
			}
			pool.PutScratch(v)
		})
	}()
	if got := drain(); got != 3 {
		t.Fatalf("free-list holds %d entries after undeferred panic, want 3 (leak bound is one per panicking task)", got)
	}

	// Deferred return: nothing is stranded, not even by the panicking task.
	refill()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ForEach did not propagate the panic")
			}
		}()
		pool.ForEach(32, func(i int) {
			v := pool.GetScratch()
			defer pool.PutScratch(v)
			if i == 0 {
				panic("injected")
			}
		})
	}()
	if got := drain(); got != 4 {
		t.Fatalf("free-list holds %d entries after deferred-return panic, want all 4", got)
	}
}
