package evtrace

import (
	"fmt"
	"io"
	"sort"
)

// This file folds the jmutex event stream into the paper's §3.2 analysis:
// HotSpot's competitive handoff lets the previous owner re-acquire the
// monitor through the CAS fast path before the OnDeck heir is even
// scheduled, so ownership "sticks" to one thread for long runs and queued
// waiters start serially. The profiler makes that visible as (a) an
// ownership-transition matrix — who took the lock from whom — whose heavy
// diagonal is the re-acquisition pathology, and (b) a histogram of
// consecutive-acquisition run lengths.

// LockProfile is the folded view of one monitor's acquisition stream.
type LockProfile struct {
	Lock string

	Acquires      int // total acquisitions observed
	FastAcquires  int // via the CAS fast path
	Handoffs      int // via the queue (OnDeck / FIFO successor)
	Bypasses      int // fast acquisitions that jumped queued waiters
	Blocks        int // park events while contending
	PrevOwnerWins int // acquisitions by the immediately previous owner

	// Threads lists the contenders in first-acquisition order; the
	// transition matrix is indexed by position in this slice.
	Threads []ThreadRef
	// Transitions[i][j] counts ownership passing from Threads[i] to
	// Threads[j]; the diagonal holds consecutive re-acquisitions.
	Transitions [][]int
	// RunLengths[n] counts maximal runs of exactly n consecutive
	// acquisitions by one thread.
	RunLengths map[int]int
	// MaxRun is the longest observed consecutive-acquisition run.
	MaxRun int
	// Dropped is how many jmutex records the ring overwrote before the
	// profile's window; the profile covers the retained tail only.
	Dropped uint64
}

// ThreadRef names one contender.
type ThreadRef struct {
	TID  int32
	Name string
}

// BuildLockProfile folds the tracer's retained jmutex events for the named
// lock ("" = all locks merged) into a LockProfile. Returns an empty
// profile when tracing was disabled.
func BuildLockProfile(t *Tracer, lock string) *LockProfile {
	p := &LockProfile{Lock: lock, RunLengths: make(map[int]int)}
	if t == nil {
		return p
	}
	p.Dropped = t.Drops()[LayerJmutex]
	index := map[int32]int{}
	idxOf := func(tid int32) int {
		if i, ok := index[tid]; ok {
			return i
		}
		i := len(p.Threads)
		index[tid] = i
		name := t.ThreadName(tid)
		if name == "" {
			name = fmt.Sprintf("tid%d", tid)
		}
		p.Threads = append(p.Threads, ThreadRef{TID: tid, Name: name})
		for r := range p.Transitions {
			p.Transitions[r] = append(p.Transitions[r], 0)
		}
		p.Transitions = append(p.Transitions, make([]int, i+1))
		return i
	}

	// Ownership state is tracked per monitor name even when profiles are
	// merged (lock == ""): in a multi-JVM run each machine has its own
	// "GCTaskManager#N" monitor, and folding their interleaved acquisition
	// streams through one prev/run cursor fabricated cross-machine
	// "transitions" that no thread ever performed.
	type lockState struct {
		prev int
		run  int
	}
	states := map[string]*lockState{}
	stateOf := func(name string) *lockState {
		s := states[name]
		if s == nil {
			s = &lockState{prev: -1}
			states[name] = s
		}
		return s
	}
	endRun := func(s *lockState) {
		if s.run > 0 {
			p.RunLengths[s.run]++
			if s.run > p.MaxRun {
				p.MaxRun = s.run
			}
		}
		s.run = 0
	}
	for _, e := range t.LayerEvents(LayerJmutex) {
		if lock != "" && e.Name != lock {
			continue
		}
		switch e.Kind {
		case KLockFast, KLockHandoff:
			s := stateOf(e.Name)
			cur := idxOf(e.TID)
			p.Acquires++
			if e.Kind == KLockFast {
				p.FastAcquires++
			} else {
				p.Handoffs++
			}
			if s.prev >= 0 {
				p.Transitions[s.prev][cur]++
				if s.prev == cur {
					p.PrevOwnerWins++
				}
			}
			if cur == s.prev {
				s.run++
			} else {
				endRun(s)
				s.run = 1
			}
			s.prev = cur
		case KLockBypass:
			p.Bypasses++
		case KLockBlock:
			p.Blocks++
		}
	}
	for _, s := range states {
		endRun(s)
	}
	return p
}

// BuildLockProfiles folds the tracer's retained jmutex events into one
// profile per distinct monitor name, sorted by name — the per-machine
// view for multi-JVM runs, where every instance has its own
// "GCTaskManager#N" monitor. Returns nil when tracing was disabled or no
// jmutex events were retained.
func BuildLockProfiles(t *Tracer) []*LockProfile {
	if t == nil {
		return nil
	}
	seen := map[string]bool{}
	names := []string{}
	for _, e := range t.LayerEvents(LayerJmutex) {
		if !seen[e.Name] {
			seen[e.Name] = true
			names = append(names, e.Name)
		}
	}
	sort.Strings(names)
	out := make([]*LockProfile, len(names))
	for i, name := range names {
		out[i] = BuildLockProfile(t, name)
	}
	return out
}

// Acquisition is one entry of a monitor's acquisition log (§3.2's
// root-cause trace).
type Acquisition struct {
	At        int64 // virtual ns
	Thread    string
	Fast      bool // won through the CAS fast path
	Reacquire bool // the thread that last released the lock took it again
	Queued    int  // waiters queued (cxq + EntryList + OnDeck) at that instant
}

// AcquisitionLog is a bus subscriber that logs every Lock acquisition of
// the monitor named Lock: KLockFast, and KLockHandoff with Arg2 == 0
// (Arg2 == 1 marks a Wait re-acquisition, which is not a Lock call). Being
// a subscriber it is complete even when the rings drop records.
type AcquisitionLog struct {
	Lock    string
	Entries []Acquisition

	tr       *Tracer
	released int32 // TID of the last KLockRelease (-1 = none yet)
}

// Attach subscribes l to t's event stream and remembers the tracer for
// thread names. Attach before the run so the log sees the monitor's whole
// stream.
func (l *AcquisitionLog) Attach(t *Tracer) {
	l.tr, l.released = t, -1
	t.Subscribe(l.observe)
}

func (l *AcquisitionLog) observe(e Event) {
	if e.Name != l.Lock {
		return
	}
	switch {
	case e.Kind == KLockRelease:
		l.released = e.TID
	case e.Kind == KLockFast, e.Kind == KLockHandoff && e.Arg2 == 0:
		l.Entries = append(l.Entries, Acquisition{
			At: e.At, Thread: l.tr.ThreadName(e.TID),
			Fast: e.Kind == KLockFast, Reacquire: e.TID == l.released,
			Queued: int(e.Arg1),
		})
	}
}

// PrevOwnerWinRate is the share of (non-first) acquisitions won by the
// immediately previous owner — the paper's "previous owner always wins".
func (p *LockProfile) PrevOwnerWinRate() float64 {
	if p.Acquires <= 1 {
		return 0
	}
	return float64(p.PrevOwnerWins) / float64(p.Acquires-1)
}

// Render renders the profile as the printable §3.2 report.
func (p *LockProfile) Render(w io.Writer) {
	name := p.Lock
	if name == "" {
		name = "(all locks)"
	}
	fmt.Fprintf(w, "lock-contention profile: %s\n", name)
	if p.Dropped > 0 {
		fmt.Fprintf(w, "  (ring overwrote %d older records; profile covers the retained tail)\n", p.Dropped)
	}
	if p.Acquires == 0 {
		fmt.Fprintln(w, "  no acquisitions recorded (was tracing enabled?)")
		return
	}
	fmt.Fprintf(w, "  acquisitions: %d (fast %d, handoff %d, bypasses %d, parks %d)\n",
		p.Acquires, p.FastAcquires, p.Handoffs, p.Bypasses, p.Blocks)
	fmt.Fprintf(w, "  previous owner re-acquired: %d of %d (%.1f%%), longest run %d\n",
		p.PrevOwnerWins, p.Acquires-1, 100*p.PrevOwnerWinRate(), p.MaxRun)

	fmt.Fprintf(w, "  consecutive-acquisition runs:\n")
	for _, b := range runBuckets {
		n := 0
		for l, c := range p.RunLengths {
			if l >= b.lo && l <= b.hi {
				n += c
			}
		}
		if n > 0 {
			fmt.Fprintf(w, "    %-7s %d\n", b.label, n)
		}
	}

	// Ownership-transition matrix over the top contenders by acquisitions.
	order := make([]int, len(p.Threads))
	for i := range order {
		order[i] = i
	}
	acq := make([]int, len(p.Threads))
	for _, row := range p.Transitions {
		for j, c := range row {
			acq[j] += c
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return acq[order[a]] > acq[order[b]] })
	const topN = 8
	if len(order) > topN {
		order = order[:topN]
	}
	fmt.Fprintf(w, "  ownership transitions (from row to column, top %d threads):\n", len(order))
	fmt.Fprintf(w, "    %-16s", "")
	for _, j := range order {
		fmt.Fprintf(w, " %8s", short(p.Threads[j].Name))
	}
	fmt.Fprintln(w)
	for _, i := range order {
		fmt.Fprintf(w, "    %-16s", short(p.Threads[i].Name))
		for _, j := range order {
			fmt.Fprintf(w, " %8d", p.Transitions[i][j])
		}
		fmt.Fprintln(w)
	}
}

type runBucket struct {
	lo, hi int
	label  string
}

var runBuckets = []runBucket{
	{1, 1, "1"},
	{2, 3, "2-3"},
	{4, 7, "4-7"},
	{8, 15, "8-15"},
	{16, 63, "16-63"},
	{64, 1 << 30, ">=64"},
}

// short compacts a thread name for matrix headers.
func short(name string) string {
	if len(name) <= 8 {
		return name
	}
	// Keep the distinguishing suffix (e.g. "GCTaskThread#12" -> "GCT..#12").
	return name[:4] + ".." + name[len(name)-2:]
}
