package taskq

import (
	"fmt"
	"math/rand"
)

// Pool is the stealing policies' view of the GC threads' local queues.
type Pool interface {
	// NumQueues returns the number of GC threads (and local queues).
	NumQueues() int
	// QueueLen returns the current length of queue i.
	QueueLen(i int) int
}

// Policy selects steal victims. Implementations are per-GC (they may keep
// per-thief state) and must be deterministic given the rng.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// ChooseVictim returns the queue thief self should steal from, or -1
	// when the policy found no candidate (counted as a failed attempt).
	ChooseVictim(self int, pool Pool, rng *rand.Rand) int
	// RecordResult reports whether the attempted steal succeeded.
	RecordResult(self, victim int, success bool)
	// AbortOnFailure reports whether a failed attempt should abandon
	// stealing immediately (SmartStealing's behaviour).
	AbortOnFailure() bool
}

// Stats counts steal attempts per thief; the engine fills it. It produces
// Table 1 and Figure 9.
type Stats struct {
	Attempts []int64
	Failures []int64
}

// NewStats creates counters for n thieves.
func NewStats(n int) *Stats {
	return &Stats{Attempts: make([]int64, n), Failures: make([]int64, n)}
}

// TotalAttempts sums attempts across thieves.
func (s *Stats) TotalAttempts() int64 { return sum(s.Attempts) }

// TotalFailures sums failures across thieves.
func (s *Stats) TotalFailures() int64 { return sum(s.Failures) }

// FailureRate returns failed/total (0 when no attempts).
func (s *Stats) FailureRate() float64 {
	a := s.TotalAttempts()
	if a == 0 {
		return 0
	}
	return float64(s.TotalFailures()) / float64(a)
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// --- steal_best_of_2 (HotSpot default, §2.3) -------------------------------

type bestOf2 struct{}

// NewBestOf2 returns HotSpot's default policy: pick two random queues and
// steal from the longer.
func NewBestOf2() Policy { return bestOf2{} }

func (bestOf2) Name() string                                { return "best-of-2" }
func (bestOf2) AbortOnFailure() bool                        { return false }
func (bestOf2) RecordResult(self, victim int, success bool) {}

func (bestOf2) ChooseVictim(self int, pool Pool, rng *rand.Rand) int {
	n := pool.NumQueues()
	if n < 2 {
		return -1
	}
	q1 := randOther(self, n, rng)
	q2 := randOther(self, n, rng)
	return longer(pool, q1, q2)
}

// --- semi-random stealing (the paper's Algorithm 2) ------------------------

type semiRandom struct {
	lastSuccess []int // per-thief qs; -1 = ϕ
}

// NewSemiRandom returns the paper's optimized policy: one candidate is the
// last successful victim (if it still has work), the other is random; steal
// from the longer.
func NewSemiRandom(nthreads int) Policy {
	s := &semiRandom{lastSuccess: make([]int, nthreads)}
	for i := range s.lastSuccess {
		s.lastSuccess[i] = -1
	}
	return s
}

func (s *semiRandom) Name() string         { return "semi-random" }
func (s *semiRandom) AbortOnFailure() bool { return false }

func (s *semiRandom) ChooseVictim(self int, pool Pool, rng *rand.Rand) int {
	n := pool.NumQueues()
	if n < 2 {
		return -1
	}
	q1 := randOther(self, n, rng)
	q2 := s.lastSuccess[self]
	remembered := q2 >= 0 && q2 != self && pool.QueueLen(q2) > 0
	if !remembered {
		q2 = randOther(self, n, rng)
	}
	if pool.QueueLen(q1) == 0 && pool.QueueLen(q2) == 0 {
		s.lastSuccess[self] = -1
		return -1
	}
	if remembered {
		// Prefer q2 (the remembered victim) on ties: stickiness is the
		// point of Algorithm 2.
		if pool.QueueLen(q2) >= pool.QueueLen(q1) {
			return q2
		}
		return q1
	}
	// Both candidates are random draws — the remembered victim was unset,
	// self, or empty — so there is nothing to be sticky to: fall back to
	// plain best-of-2 (first draw wins ties, like bestOf2).
	return longer(pool, q1, q2)
}

func (s *semiRandom) RecordResult(self, victim int, success bool) {
	if success {
		s.lastSuccess[self] = victim
	} else if s.lastSuccess[self] == victim {
		s.lastSuccess[self] = -1
	}
}

// --- NUMA-restricted stealing (Gidra et al., ported baseline, §5.2) --------

type numaRestricted struct {
	node     []int   // queue index -> node
	siblings [][]int // queue index -> node-local victim candidates
}

// NewNUMARestricted returns best-of-2 stealing restricted to victims on the
// thief's NUMA node, per Gidra et al.'s NUMA-aware stealing. The per-node
// sibling lists are precomputed here so ChooseVictim — the hottest loop of
// the simulation — does not allocate.
func NewNUMARestricted(nodeOf []int) Policy {
	p := &numaRestricted{node: nodeOf, siblings: make([][]int, len(nodeOf))}
	for self := range nodeOf {
		for i, n := range nodeOf {
			if i != self && n == nodeOf[self] {
				p.siblings[self] = append(p.siblings[self], i)
			}
		}
	}
	return p
}

func (p *numaRestricted) Name() string                                { return "numa-restricted" }
func (p *numaRestricted) AbortOnFailure() bool                        { return false }
func (p *numaRestricted) RecordResult(self, victim int, success bool) {}

func (p *numaRestricted) ChooseVictim(self int, pool Pool, rng *rand.Rand) int {
	local := p.siblings[self]
	if len(local) == 0 {
		return -1
	}
	q1 := local[rng.Intn(len(local))]
	q2 := local[rng.Intn(len(local))]
	return longer(pool, q1, q2)
}

// LocalThreads returns how many queues share self's node (the paper's
// N_local, used for the NUMA termination threshold 2·N_local).
func (p *numaRestricted) LocalThreads(self int) int {
	n := 0
	for i := range p.node {
		if p.node[i] == p.node[self] {
			n++
		}
	}
	return n
}

// --- SmartStealing (Qian et al., baseline, §6.1) ----------------------------

type smartStealing struct {
	lastSuccess []int
}

// NewSmartStealing returns Qian et al.'s heuristic: keep stealing from the
// same victim after a success; abort stealing immediately after a failure.
func NewSmartStealing(nthreads int) Policy {
	s := &smartStealing{lastSuccess: make([]int, nthreads)}
	for i := range s.lastSuccess {
		s.lastSuccess[i] = -1
	}
	return s
}

func (s *smartStealing) Name() string         { return "smart-stealing" }
func (s *smartStealing) AbortOnFailure() bool { return true }

func (s *smartStealing) ChooseVictim(self int, pool Pool, rng *rand.Rand) int {
	if v := s.lastSuccess[self]; v >= 0 && v != self && pool.QueueLen(v) > 0 {
		return v
	}
	n := pool.NumQueues()
	if n < 2 {
		return -1
	}
	return randOther(self, n, rng)
}

func (s *smartStealing) RecordResult(self, victim int, success bool) {
	if success {
		s.lastSuccess[self] = victim
	} else {
		s.lastSuccess[self] = -1
	}
}

// --- helpers ----------------------------------------------------------------

func randOther(self, n int, rng *rand.Rand) int {
	q := rng.Intn(n - 1)
	if q >= self {
		q++
	}
	return q
}

func longer(pool Pool, q1, q2 int) int {
	if pool.QueueLen(q2) > pool.QueueLen(q1) {
		return q2
	}
	return q1
}

// PolicyKind names a policy for configuration.
type PolicyKind int

const (
	// KindBestOf2 is HotSpot's default steal_best_of_2.
	KindBestOf2 PolicyKind = iota
	// KindSemiRandom is the paper's Algorithm 2.
	KindSemiRandom
	// KindNUMARestricted is Gidra et al.'s node-local stealing.
	KindNUMARestricted
	// KindSmartStealing is Qian et al.'s heuristic.
	KindSmartStealing
)

func (k PolicyKind) String() string {
	switch k {
	case KindBestOf2:
		return "best-of-2"
	case KindSemiRandom:
		return "semi-random"
	case KindNUMARestricted:
		return "numa-restricted"
	case KindSmartStealing:
		return "smart-stealing"
	}
	return fmt.Sprintf("PolicyKind(%d)", int(k))
}

// Make instantiates a policy for nthreads queues; nodeOf is required for
// KindNUMARestricted and ignored otherwise.
func (k PolicyKind) Make(nthreads int, nodeOf []int) Policy {
	switch k {
	case KindSemiRandom:
		return NewSemiRandom(nthreads)
	case KindNUMARestricted:
		return NewNUMARestricted(nodeOf)
	case KindSmartStealing:
		return NewSmartStealing(nthreads)
	default:
		return NewBestOf2()
	}
}
