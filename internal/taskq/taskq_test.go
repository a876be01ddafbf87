package taskq

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDequeOwnerLIFO(t *testing.T) {
	var d Deque[int]
	for i := 1; i <= 3; i++ {
		d.PushBottom(i)
	}
	for want := 3; want >= 1; want-- {
		v, ok := d.PopBottom()
		if !ok || v != want {
			t.Fatalf("PopBottom = (%d,%v), want (%d,true)", v, ok, want)
		}
	}
	if _, ok := d.PopBottom(); ok {
		t.Error("PopBottom on empty deque succeeded")
	}
}

func TestDequeThiefFIFO(t *testing.T) {
	var d Deque[int]
	for i := 1; i <= 3; i++ {
		d.PushBottom(i)
	}
	for want := 1; want <= 3; want++ {
		v, ok := d.PopTop()
		if !ok || v != want {
			t.Fatalf("PopTop = (%d,%v), want (%d,true)", v, ok, want)
		}
	}
	if _, ok := d.PopTop(); ok {
		t.Error("PopTop on empty deque succeeded")
	}
	if d.Steals != 3 {
		t.Errorf("Steals = %d, want 3", d.Steals)
	}
}

func TestDequeMixedEnds(t *testing.T) {
	var d Deque[int]
	d.PushBottom(1)
	d.PushBottom(2)
	d.PushBottom(3)
	if v, _ := d.PopTop(); v != 1 {
		t.Errorf("PopTop = %d, want 1", v)
	}
	if v, _ := d.PopBottom(); v != 3 {
		t.Errorf("PopBottom = %d, want 3", v)
	}
	d.PushBottom(4)
	if v, _ := d.PopTop(); v != 2 {
		t.Errorf("PopTop = %d, want 2", v)
	}
	if v, _ := d.PopBottom(); v != 4 {
		t.Errorf("PopBottom = %d, want 4", v)
	}
	if !d.Empty() || d.Len() != 0 {
		t.Error("deque not empty after draining")
	}
}

func TestDequeStorageReclaimedWhenEmpty(t *testing.T) {
	var d Deque[int]
	for round := 0; round < 100; round++ {
		for i := 0; i < 10; i++ {
			d.PushBottom(i)
		}
		for i := 0; i < 10; i++ {
			d.PopTop()
		}
	}
	if cap(d.items) > 64 {
		t.Errorf("deque storage grew to %d despite resets", cap(d.items))
	}
}

// TestDequeConservation: a random sequence of operations never loses or
// duplicates a task.
func TestDequeConservation(t *testing.T) {
	prop := func(ops []uint8) bool {
		var d Deque[int]
		next := 0
		seen := map[int]int{}
		for _, op := range ops {
			switch op % 3 {
			case 0:
				d.PushBottom(next)
				next++
			case 1:
				if v, ok := d.PopBottom(); ok {
					seen[v]++
				}
			case 2:
				if v, ok := d.PopTop(); ok {
					seen[v]++
				}
			}
		}
		for d.Len() > 0 {
			v, _ := d.PopBottom()
			seen[v]++
		}
		if len(seen) != next {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// fakePool implements Pool over fixed lengths.
type fakePool []int

func (p fakePool) NumQueues() int     { return len(p) }
func (p fakePool) QueueLen(i int) int { return p[i] }

func TestBestOf2PicksLonger(t *testing.T) {
	pool := fakePool{0, 10, 2, 0}
	rng := rand.New(rand.NewSource(1))
	p := NewBestOf2()
	counts := map[int]int{}
	for i := 0; i < 1000; i++ {
		v := p.ChooseVictim(0, pool, rng)
		if v == 0 {
			t.Fatal("chose self")
		}
		counts[v]++
	}
	// Queue 1 (len 10) must dominate: it wins every pairing it appears in.
	if counts[1] < counts[2] || counts[1] < counts[3] {
		t.Errorf("longer queue not preferred: %v", counts)
	}
}

func TestBestOf2TooFewQueues(t *testing.T) {
	p := NewBestOf2()
	if v := p.ChooseVictim(0, fakePool{5}, rand.New(rand.NewSource(1))); v != -1 {
		t.Errorf("single-queue pool returned victim %d, want -1", v)
	}
}

func TestSemiRandomRemembersSuccess(t *testing.T) {
	pool := fakePool{0, 5, 5, 5}
	rng := rand.New(rand.NewSource(1))
	p := NewSemiRandom(4)
	p.RecordResult(0, 2, true)
	// With queue 2 remembered and all lengths equal, victim 2 must appear
	// at least as one of the two candidates every time; over many draws it
	// must be chosen far more often than under uniform best-of-2.
	hits := 0
	for i := 0; i < 1000; i++ {
		if p.ChooseVictim(0, pool, rng) == 2 {
			hits++
		}
	}
	if hits < 400 {
		t.Errorf("remembered victim chosen only %d/1000 times", hits)
	}
}

func TestSemiRandomGivesUpWhenBothEmpty(t *testing.T) {
	pool := fakePool{0, 0, 0, 0}
	rng := rand.New(rand.NewSource(1))
	p := NewSemiRandom(4)
	if v := p.ChooseVictim(0, pool, rng); v != -1 {
		t.Errorf("ChooseVictim on all-empty pool = %d, want -1", v)
	}
}

func TestSemiRandomForgetsFailedVictim(t *testing.T) {
	p := NewSemiRandom(4).(*semiRandom)
	p.RecordResult(0, 2, true)
	if p.lastSuccess[0] != 2 {
		t.Fatal("success not recorded")
	}
	p.RecordResult(0, 2, false)
	if p.lastSuccess[0] != -1 {
		t.Error("failure on remembered victim did not reset it")
	}
}

func TestNUMARestrictedStaysLocal(t *testing.T) {
	// Queues 0-3 on node 0, 4-7 on node 1.
	nodeOf := []int{0, 0, 0, 0, 1, 1, 1, 1}
	pool := fakePool{1, 1, 1, 1, 100, 100, 100, 100}
	rng := rand.New(rand.NewSource(1))
	p := NewNUMARestricted(nodeOf)
	for i := 0; i < 200; i++ {
		v := p.ChooseVictim(0, pool, rng)
		if v < 0 || nodeOf[v] != 0 {
			t.Fatalf("victim %d not on thief's node", v)
		}
	}
	if n := p.(*numaRestricted).LocalThreads(0); n != 4 {
		t.Errorf("LocalThreads(0) = %d, want 4", n)
	}
	if n := p.(*numaRestricted).LocalThreads(5); n != 4 {
		t.Errorf("LocalThreads(5) = %d, want 4", n)
	}
}

func TestSmartStealingSticksAndAborts(t *testing.T) {
	pool := fakePool{0, 3, 3, 3}
	rng := rand.New(rand.NewSource(1))
	p := NewSmartStealing(4)
	if !p.AbortOnFailure() {
		t.Error("SmartStealing must abort on failure")
	}
	p.RecordResult(0, 3, true)
	for i := 0; i < 50; i++ {
		if v := p.ChooseVictim(0, pool, rng); v != 3 {
			t.Fatalf("did not stick to successful victim: got %d", v)
		}
	}
	p.RecordResult(0, 3, false)
	// After failure the memory resets; victims vary again.
	varied := map[int]bool{}
	for i := 0; i < 100; i++ {
		varied[p.ChooseVictim(0, pool, rng)] = true
	}
	if len(varied) < 2 {
		t.Errorf("after reset victims did not vary: %v", varied)
	}
}

func TestStatsAggregation(t *testing.T) {
	s := NewStats(3)
	s.Attempts[0] = 10
	s.Failures[0] = 4
	s.Attempts[2] = 5
	s.Failures[2] = 5
	if s.TotalAttempts() != 15 || s.TotalFailures() != 9 {
		t.Errorf("totals = (%d,%d), want (15,9)", s.TotalAttempts(), s.TotalFailures())
	}
	if r := s.FailureRate(); r < 0.59 || r > 0.61 {
		t.Errorf("FailureRate = %v, want 0.6", r)
	}
	if (&Stats{Attempts: []int64{0}, Failures: []int64{0}}).FailureRate() != 0 {
		t.Error("FailureRate on empty stats should be 0")
	}
}

func TestPolicyKindMake(t *testing.T) {
	nodeOf := []int{0, 0, 1, 1}
	for _, k := range []PolicyKind{KindBestOf2, KindSemiRandom, KindNUMARestricted, KindSmartStealing} {
		p := k.Make(4, nodeOf)
		if p == nil {
			t.Fatalf("Make(%v) returned nil", k)
		}
		if p.Name() != k.String() {
			t.Errorf("kind %v produced policy %q", k, p.Name())
		}
	}
	if PolicyKind(9).String() != "PolicyKind(9)" {
		t.Error("unknown kind String() wrong")
	}
}

func TestRandOtherNeverSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for self := 0; self < 5; self++ {
		for i := 0; i < 100; i++ {
			if v := randOther(self, 5, rng); v == self || v < 0 || v >= 5 {
				t.Fatalf("randOther(%d,5) = %d", self, v)
			}
		}
	}
}

// TestNUMARestrictedChooseVictimNoAlloc: the victim candidate lists are
// precomputed in NewNUMARestricted, so the steal hot path must not
// allocate.
func TestNUMARestrictedChooseVictimNoAlloc(t *testing.T) {
	nodeOf := []int{0, 0, 0, 0, 1, 1, 1, 1}
	var pool Pool = fakePool{3, 1, 4, 1, 5, 9, 2, 6}
	p := NewNUMARestricted(nodeOf)
	rng := rand.New(rand.NewSource(11))
	allocs := testing.AllocsPerRun(200, func() {
		if v := p.ChooseVictim(2, pool, rng); v < 0 {
			t.Fatal("no victim on a populated node")
		}
	})
	if allocs != 0 {
		t.Errorf("ChooseVictim allocates %.1f objects per call, want 0", allocs)
	}
}

func TestNUMARestrictedLoneThreadHasNoVictim(t *testing.T) {
	// Queue 2 is alone on node 1.
	p := NewNUMARestricted([]int{0, 0, 1, 0})
	if v := p.ChooseVictim(2, fakePool{4, 4, 4, 4}, rand.New(rand.NewSource(1))); v != -1 {
		t.Errorf("lone thread on its node got victim %d, want -1", v)
	}
}

// TestSemiRandomFallbackWhenRememberedDrained: when the remembered victim's
// queue is empty it is replaced by a random fallback, which must never be
// the drained queue or the thief itself, and must vary across candidates.
func TestSemiRandomFallbackWhenRememberedDrained(t *testing.T) {
	pool := fakePool{0, 5, 0, 5}
	p := NewSemiRandom(4).(*semiRandom)
	p.RecordResult(0, 2, true) // queue 2 later drains to empty
	rng := rand.New(rand.NewSource(3))
	got := map[int]bool{}
	for i := 0; i < 500; i++ {
		v := p.ChooseVictim(0, pool, rng)
		switch v {
		case 0:
			t.Fatal("chose self")
		case 2:
			t.Fatal("chose the drained remembered victim")
		case -1:
			// Both random draws can land on the empty queue; a failed
			// attempt is legal.
		default:
			got[v] = true
		}
	}
	if !got[1] || !got[3] {
		t.Errorf("random fallback did not vary victims: %v", got)
	}
}

// TestSemiRandomTieBreak pins the corrected tie rule of Algorithm 2: the
// "prefer q2" stickiness applies only to a genuinely remembered victim.
// When the remembered slot was unset, self, or empty — and q2 is just a
// second random draw — ties fall back to plain best-of-2 (first draw
// wins), exactly like bestOf2. Each case replays the rng's draw sequence
// with a reference generator to know which queues were picked.
func TestSemiRandomTieBreak(t *testing.T) {
	cases := []struct {
		name       string
		pool       fakePool
		remembered int  // lastSuccess[0] before the call
		sticky     bool // true: remembered victim must win ties
	}{
		{"remembered victim wins ties", fakePool{0, 4, 4, 4}, 2, true},
		{"remembered victim wins when longer", fakePool{0, 2, 5, 3}, 2, true},
		{"no memory: first draw wins ties", fakePool{0, 4, 4, 4}, -1, false},
		{"remembered is self: first draw wins ties", fakePool{0, 4, 4, 4}, 0, false},
		{"remembered empty: first draw wins ties", fakePool{0, 4, 4, 0}, 3, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewSemiRandom(4).(*semiRandom)
			rng := rand.New(rand.NewSource(9))
			ref := rand.New(rand.NewSource(9)) // replays the same draws
			for i := 0; i < 100; i++ {
				p.lastSuccess[0] = tc.remembered
				v := p.ChooseVictim(0, tc.pool, rng)
				q1 := randOther(0, 4, ref)
				var want int
				if tc.sticky {
					// Only q1 is drawn; the remembered victim is q2.
					q2 := tc.remembered
					if tc.pool.QueueLen(q2) >= tc.pool.QueueLen(q1) {
						want = q2
					} else {
						want = q1
					}
				} else {
					// Fallback path: q2 is a second random draw, plain
					// best-of-2 semantics (q1 keeps ties).
					q2 := randOther(0, 4, ref)
					if tc.pool.QueueLen(q1) == 0 && tc.pool.QueueLen(q2) == 0 {
						want = -1
					} else {
						want = longer(tc.pool, q1, q2)
					}
				}
				if v != want {
					t.Fatalf("iteration %d: got victim %d, want %d (q1=%d)", i, v, want, q1)
				}
			}
		})
	}
}

// TestSemiRandomStrictlyLongerRandomBeatsRemembered: stickiness prefers
// the remembered victim only on ties or when it is longer; a strictly
// longer random candidate must still win.
func TestSemiRandomStrictlyLongerRandomBeatsRemembered(t *testing.T) {
	pool := fakePool{0, 9, 1, 1} // queue 1 is strictly longest
	p := NewSemiRandom(4).(*semiRandom)
	rng := rand.New(rand.NewSource(3))
	ref := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		p.lastSuccess[0] = 2 // remembered, non-empty, but short
		v := p.ChooseVictim(0, pool, rng)
		q1 := randOther(0, 4, ref)
		want := 2
		if pool.QueueLen(q1) > pool.QueueLen(2) {
			want = q1
		}
		if v != want {
			t.Fatalf("iteration %d: got victim %d, want %d (q1=%d)", i, v, want, q1)
		}
	}
}

func TestDequeCompactsDeadPrefix(t *testing.T) {
	// A deque that is mostly stolen from must not hold its high-water-mark
	// backing array: once top passes the halfway point the live region is
	// copied down, and a grossly oversized array is reallocated smaller.
	var d Deque[int]
	const n = 1024
	for i := 0; i < n; i++ {
		d.PushBottom(i)
	}
	grown := d.Cap()
	if grown < n {
		t.Fatalf("backing array cap = %d, want >= %d", grown, n)
	}
	// Steal most of the queue, leaving a small live tail.
	for i := 0; i < n-16; i++ {
		v, ok := d.PopTop()
		if !ok || v != i {
			t.Fatalf("PopTop #%d = (%d,%v), want (%d,true)", i, v, ok, i)
		}
	}
	if d.Cap() >= grown {
		t.Errorf("cap = %d after heavy stealing, want shrunk below %d", d.Cap(), grown)
	}
	// Order of the remaining window must be intact from both ends.
	if v, _ := d.PopTop(); v != n-16 {
		t.Errorf("PopTop after compaction = %d, want %d", v, n-16)
	}
	if v, _ := d.PopBottom(); v != n-1 {
		t.Errorf("PopBottom after compaction = %d, want %d", v, n-1)
	}
	for want := n - 15; want <= n-2; want++ {
		v, ok := d.PopTop()
		if !ok || v != want {
			t.Fatalf("drain PopTop = (%d,%v), want (%d,true)", v, ok, want)
		}
	}
	if !d.Empty() {
		t.Error("deque not empty after drain")
	}
}

func TestDequeCompactionPreservesMixedOrder(t *testing.T) {
	// Interleave pushes with heavy stealing across the compaction threshold
	// and check against a reference slice model.
	var d Deque[int]
	var model []int
	next := 0
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 10000; step++ {
		switch k := rng.Intn(5); {
		case k < 2:
			d.PushBottom(next)
			model = append(model, next)
			next++
		case k < 4:
			v, ok := d.PopTop()
			wantOK := len(model) > 0
			if ok != wantOK {
				t.Fatalf("step %d: PopTop ok=%v, want %v", step, ok, wantOK)
			}
			if ok {
				if v != model[0] {
					t.Fatalf("step %d: PopTop = %d, want %d", step, v, model[0])
				}
				model = model[1:]
			}
		default:
			v, ok := d.PopBottom()
			wantOK := len(model) > 0
			if ok != wantOK {
				t.Fatalf("step %d: PopBottom ok=%v, want %v", step, ok, wantOK)
			}
			if ok {
				if v != model[len(model)-1] {
					t.Fatalf("step %d: PopBottom = %d, want %d", step, v, model[len(model)-1])
				}
				model = model[:len(model)-1]
			}
		}
		if d.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, d.Len(), len(model))
		}
	}
}
