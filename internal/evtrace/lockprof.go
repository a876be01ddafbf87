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
}

// ThreadRef names one contender.
type ThreadRef struct {
	TID  int32
	Name string
}

// LockProfiler folds the jmutex event stream into LockProfiles as it is
// emitted. It subscribes to the jmutex kinds it reads, so it sees every
// acquisition of the run, however little the tracer's rings retain. The
// zero value is ready to Attach.
type LockProfiler struct {
	tr     *Tracer
	all    lockFold             // every monitor merged
	byLock map[string]*lockFold // one fold per monitor name
}

// lockProfilerKinds are the jmutex kinds a LockProfiler reads.
var lockProfilerKinds = []Kind{KLockFast, KLockHandoff, KLockBypass, KLockBlock}

// Attach subscribes lp to t's jmutex events and remembers the tracer for
// thread names. Attach before the run so the profiles cover it whole.
func (lp *LockProfiler) Attach(t *Tracer) {
	lp.tr = t
	t.SubscribeKinds(lp.observe, lockProfilerKinds...)
}

func (lp *LockProfiler) observe(e Event) {
	f := lp.byLock[e.Name]
	if f == nil {
		if lp.byLock == nil {
			lp.byLock = make(map[string]*lockFold)
		}
		f = &lockFold{}
		lp.byLock[e.Name] = f
	}
	lp.all.add(e)
	f.add(e)
}

// Profile returns the profile of the named lock ("" = all locks merged)
// over the events folded so far.
func (lp *LockProfiler) Profile(lock string) *LockProfile {
	f := &lp.all
	if lock != "" {
		if f = lp.byLock[lock]; f == nil {
			f = &lockFold{}
		}
	}
	return f.profile(lock, lp.tr)
}

// Profiles returns one profile per distinct monitor name, sorted by name
// — the per-machine view for multi-JVM runs, where every instance has its
// own "GCTaskManager#N" monitor. Returns nil when no jmutex event was
// folded.
func (lp *LockProfiler) Profiles() []*LockProfile {
	names := make([]string, 0, len(lp.byLock))
	for name := range lp.byLock {
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	out := make([]*LockProfile, len(names))
	for i, name := range names {
		out[i] = lp.Profile(name)
	}
	return out
}

// lockFold is the running state behind one LockProfile. Ownership cursors
// are kept per monitor name even when monitors are merged: in a multi-JVM
// run each machine has its own "GCTaskManager#N" monitor, and folding
// their interleaved acquisition streams through one prev/run cursor would
// fabricate cross-machine "transitions" that no thread ever performed.
type lockFold struct {
	p       LockProfile
	index   map[int32]int
	cursors map[string]*lockCursor
}

// lockCursor tracks one monitor's previous owner (index into Threads, -1
// before the first acquisition) and that owner's current run length.
type lockCursor struct {
	prev int
	run  int
}

func (f *lockFold) add(e Event) {
	switch e.Kind {
	case KLockBypass:
		f.p.Bypasses++
		return
	case KLockBlock:
		f.p.Blocks++
		return
	}
	p := &f.p
	c := f.cursors[e.Name]
	if c == nil {
		if f.cursors == nil {
			f.cursors = make(map[string]*lockCursor)
			p.RunLengths = make(map[int]int)
		}
		c = &lockCursor{prev: -1}
		f.cursors[e.Name] = c
	}
	cur := f.threadIndex(e.TID)
	p.Acquires++
	if e.Kind == KLockFast {
		p.FastAcquires++
	} else {
		p.Handoffs++
	}
	if c.prev >= 0 {
		p.Transitions[c.prev][cur]++
	}
	if cur == c.prev {
		p.PrevOwnerWins++
		c.run++
	} else {
		endRun(p, c.run)
		c.run = 1
	}
	c.prev = cur
}

// threadIndex returns tid's row in the transition matrix, adding a row
// and a column on its first acquisition.
func (f *lockFold) threadIndex(tid int32) int {
	if i, ok := f.index[tid]; ok {
		return i
	}
	if f.index == nil {
		f.index = make(map[int32]int)
	}
	p := &f.p
	i := len(p.Threads)
	f.index[tid] = i
	p.Threads = append(p.Threads, ThreadRef{TID: tid})
	for r := range p.Transitions {
		p.Transitions[r] = append(p.Transitions[r], 0)
	}
	p.Transitions = append(p.Transitions, make([]int, i+1))
	return i
}

// endRun records a finished consecutive-acquisition run of length n.
func endRun(p *LockProfile, n int) {
	if n > 0 {
		p.RunLengths[n]++
		p.MaxRun = max(p.MaxRun, n)
	}
}

// profile snapshots the fold as a LockProfile named lock: open runs are
// closed in the copy, not in the fold, and thread names are resolved
// through t now that every thread has registered.
func (f *lockFold) profile(lock string, t *Tracer) *LockProfile {
	p := f.p
	p.Lock = lock
	p.RunLengths = make(map[int]int, len(f.p.RunLengths))
	for n, c := range f.p.RunLengths {
		p.RunLengths[n] = c
	}
	for _, c := range f.cursors {
		endRun(&p, c.run)
	}
	p.Threads = make([]ThreadRef, len(f.p.Threads))
	for i, th := range f.p.Threads {
		if th.Name = t.ThreadName(th.TID); th.Name == "" {
			th.Name = fmt.Sprintf("tid%d", th.TID)
		}
		p.Threads[i] = th
	}
	p.Transitions = make([][]int, len(f.p.Transitions))
	for i, row := range f.p.Transitions {
		p.Transitions[i] = append([]int(nil), row...)
	}
	return &p
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
// a subscriber it is complete even when the rings drop records; it
// subscribes to those two kinds and KLockRelease only.
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
	t.SubscribeKinds(l.observe, KLockRelease, KLockFast, KLockHandoff)
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
	if p.Acquires == 0 {
		fmt.Fprintln(w, "  no acquisitions recorded (was the profiler attached before the run?)")
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
