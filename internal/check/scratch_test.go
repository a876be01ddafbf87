package check

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/evtrace"
	"repro/internal/jvm"
)

// stackPool is a scratchPool that always hands back the most recently
// returned scratch (sync.Pool may drop entries, so it cannot pin down
// reuse), and counts what it was given back.
type stackPool struct {
	mu   sync.Mutex
	free []*jvm.Scratch
	news int
	puts int
}

func (p *stackPool) Get() any {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		sc := p.free[n-1]
		p.free = p.free[:n-1]
		return sc
	}
	p.news++
	return new(jvm.Scratch)
}

func (p *stackPool) Put(x any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.puts++
	p.free = append(p.free, x.(*jvm.Scratch))
}

// coldDigests runs the cell's checked and bare simulations on fresh
// machines, with no scratch.
func coldDigests(t *testing.T, cell Cell) (checked, bare string) {
	t.Helper()
	c, err := runCellOnce(cell, 0, evtrace.New(0), nil)
	if err != nil {
		t.Fatalf("%s: cold checked run: %v", cell, err)
	}
	b, err := runCellOnce(cell, 0, nil, nil)
	if err != nil {
		t.Fatalf("%s: cold bare run: %v", cell, err)
	}
	return digestResults(c), digestResults(b)
}

// TestPooledScratchMatchesCold: checked cells that run on recycled scratch
// — single-JVM and multi-JVM cells of every topology interleaved, so each
// machine inherits storage shaped by a different one, serially and from
// two goroutines at once — report the same Digest and BareDigest as cold
// runs of the same cells.
func TestPooledScratchMatchesCold(t *testing.T) {
	// Cells 4, 9, 17 and 22 of the seed-42 space are multi-JVM (smt40,
	// smt40, small8, paper20); 0 to 3 are single-JVM.
	idx := []int{0, 4, 1, 9, 2, 17, 3, 22}
	type digests struct{ checked, bare string }
	cold := make(map[int]digests)
	for _, i := range idx {
		cell := CellAt(42, i)
		if want := i == 4 || i == 9 || i == 17 || i == 22; cell.MultiJVM != want {
			t.Fatalf("%s: MultiJVM = %v, want %v", cell, cell.MultiJVM, want)
		}
		c, b := coldDigests(t, cell)
		if c != b {
			t.Fatalf("%s: cold checked digest %s != cold bare digest %s", cell, short(c), short(b))
		}
		cold[i] = digests{c, b}
	}
	check := func(r *CellResult) {
		want := cold[r.Cell.Index]
		if r.Failed() {
			t.Errorf("%s", r.Summary())
		}
		if r.Digest != want.checked || r.BareDigest != want.bare {
			t.Errorf("%s: pooled digests %s/%s, cold %s/%s", r.Cell,
				short(r.Digest), short(r.BareDigest), short(want.checked), short(want.bare))
		}
	}

	pool := &stackPool{}
	for _, i := range idx {
		check(runPooled(pool, CellAt(42, i), RunOptions{}, evtrace.NewBus()))
	}
	if pool.news != 1 {
		t.Fatalf("serial pass built %d scratches, want 1 reused throughout", pool.news)
	}

	// The same cells on two goroutines, each walking the list from its own
	// end, on the warm pool.
	results := make([][]*CellResult, 2)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range idx {
				i := idx[k]
				if g == 1 {
					i = idx[len(idx)-1-k]
				}
				results[g] = append(results[g], runPooled(pool, CellAt(42, i), RunOptions{}, evtrace.NewBus()))
			}
		}()
	}
	wg.Wait()
	for _, rs := range results {
		for _, r := range rs {
			check(r)
		}
	}

	// And through the package pool RunCellOpts uses.
	for _, i := range idx {
		check(RunCellOpts(CellAt(42, i), RunOptions{}))
	}
}

// TestPanickedScratchNotPooled: a run that panics surfaces as a cell error
// and its scratch is dropped, never handed to the next cell; a run that
// completes returns its scratch.
func TestPanickedScratchNotPooled(t *testing.T) {
	cell := CellAt(42, 0)
	pool := &stackPool{}
	tr := evtrace.NewBus()
	tr.Subscribe(func(e evtrace.Event) {
		if e.Kind == evtrace.KGCSpan {
			panic("injected")
		}
	})
	r := runPooled(pool, cell, RunOptions{}, tr)
	var pe *panicError
	if !errors.As(r.Err, &pe) {
		t.Fatalf("run error = %v, want a panic", r.Err)
	}
	if r.Err.Error() != "panic: injected" {
		t.Errorf("run error = %q, want %q", r.Err, "panic: injected")
	}
	if pool.puts != 0 {
		t.Fatalf("panicked run returned its scratch to the pool (%d puts)", pool.puts)
	}
	// The failed cell was replayed for triage, on rings, without the
	// panicking subscriber.
	if r.Tracer == nil || r.Tracer.Len() == 0 || r.Drops != 0 {
		t.Fatalf("failed cell has no complete triage replay (tracer %v, drops %d)", r.Tracer != nil, r.Drops)
	}

	r = runPooled(pool, cell, RunOptions{}, evtrace.NewBus())
	if r.Failed() {
		t.Fatalf("%s", r.Summary())
	}
	if r.Tracer != nil {
		t.Error("a cell that passed was replayed for triage")
	}
	if pool.puts != 1 || pool.news != 2 {
		t.Errorf("clean run: %d puts from %d scratches, want 1 put of a fresh scratch", pool.puts, pool.news)
	}
}
