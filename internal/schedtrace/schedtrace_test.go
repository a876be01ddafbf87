package schedtrace

import (
	"strings"
	"testing"

	"repro/internal/cfs"
	"repro/internal/check"
	"repro/internal/evtrace"
	"repro/internal/ostopo"
	"repro/internal/simkit"
)

const ms = simkit.Millisecond

// tracedKernel builds a kernel whose bus carries a Recorder and an
// invariant checker; the test fails at cleanup if the checker saw any
// violation (the scheduler-trace invariants: one thread per core, each
// dispatch span covering exactly its stint).
func tracedKernel(t *testing.T, cores int) (*simkit.Sim, *cfs.Kernel, *Recorder) {
	t.Helper()
	sim := simkit.New(1)
	t.Cleanup(sim.Close)
	return traced(t, sim, &ostopo.Topology{PhysCores: cores, SMTWays: 1, Nodes: 1})
}

func traced(t *testing.T, sim *simkit.Sim, topo *ostopo.Topology) (*simkit.Sim, *cfs.Kernel, *Recorder) {
	t.Helper()
	tr := evtrace.New(1)
	sim.SetTracer(tr)
	k := cfs.NewKernel(sim, topo, cfs.DefaultParams())
	k.SetEvTracer(tr)
	rec := new(Recorder)
	rec.Attach(tr)
	ck := check.New()
	ck.Attach(tr)
	t.Cleanup(func() {
		ck.Finish()
		if err := ck.Err(); err != nil {
			t.Error(err)
		}
	})
	return sim, k, rec
}

// busy sums the recorded run time of thread tid.
func busy(segs []Segment, tid int32) simkit.Time {
	var sum simkit.Time
	for _, s := range segs {
		if s.TID == tid {
			sum += s.End - s.Start
		}
	}
	return sum
}

// forged feeds raw segments through a real tracer as the cfs events that
// delimit them: a dispatch pop at Start and, unless End is -1 (still
// open), the KDispatch span ending at End.
func forged(segs ...Segment) *Recorder {
	tr := evtrace.New(1)
	rec := new(Recorder)
	rec.Attach(tr)
	for _, s := range segs {
		tr.Emit(evtrace.Event{Kind: evtrace.KRunqPop, At: int64(s.Start), Core: s.Core, TID: s.TID, Name: s.Name})
		if s.End >= 0 {
			tr.Emit(evtrace.Event{Kind: evtrace.KDispatch, At: int64(s.Start), Dur: int64(s.End - s.Start), Core: s.Core, TID: s.TID, Name: s.Name})
		}
	}
	return rec
}

func TestClassify(t *testing.T) {
	cases := map[string]byte{
		"GCTaskThread#3": 'G',
		"VMThread":       'V',
		"mutator#12":     'M',
		"busyloop#0":     'B',
		"whatever":       'o',
	}
	for name, want := range cases {
		if got := Classify(name); got != want {
			t.Errorf("Classify(%q) = %c, want %c", name, got, want)
		}
	}
}

func TestTraceRecordsSegments(t *testing.T) {
	sim, k, rec := tracedKernel(t, 2)
	th := k.Spawn("mutator#0", 0, func(e *cfs.Env) {
		e.Compute(2 * ms)
		e.Sleep(1 * ms)
		e.Compute(2 * ms)
	})
	for th.State() != cfs.StateDone && sim.Step() {
	}
	segs := rec.Segments()
	if len(segs) < 2 {
		t.Fatalf("expected >= 2 segments (sleep splits the run), got %d", len(segs))
	}
	if got := busy(segs, int32(th.ID)); got != th.CPUTime {
		t.Errorf("busy time = %v, CPUTime = %v; must agree", got, th.CPUTime)
	}
	if segs[0].Name != "mutator#0" {
		t.Errorf("segment names thread %q, want mutator#0", segs[0].Name)
	}
}

func TestTraceBusyTimeMatchesCPUTimeUnderContention(t *testing.T) {
	sim, k, rec := tracedKernel(t, 2)
	var ths []*cfs.Thread
	for i := 0; i < 5; i++ {
		ths = append(ths, k.Spawn("mutator#x", 0, func(e *cfs.Env) {
			for j := 0; j < 10; j++ {
				e.Compute(1 * ms)
				e.Sleep(simkit.Time(j%3) * 100 * simkit.Microsecond)
			}
		}))
	}
	done := func() bool {
		for _, th := range ths {
			if th.State() != cfs.StateDone {
				return false
			}
		}
		return true
	}
	for !done() && sim.Step() {
	}
	segs := rec.Segments()
	for i, th := range ths {
		if got := busy(segs, int32(th.ID)); got != th.CPUTime {
			t.Errorf("thread %d: recorded busy %v != CPUTime %v", i, got, th.CPUTime)
		}
	}
}

// TestRecorderMatchesDispatchSpans: the recorder's segments are exactly
// the bus's KDispatch spans (in emission order of their dispatch pops),
// plus the stints still on-CPU when the stream ends, closed at the last
// bus instant.
func TestRecorderMatchesDispatchSpans(t *testing.T) {
	sim := simkit.New(3)
	defer sim.Close()
	tr := evtrace.New(1 << 18)
	sim.SetTracer(tr)
	k := cfs.NewKernel(sim, &ostopo.Topology{PhysCores: 3, SMTWays: 1, Nodes: 1}, cfs.DefaultParams())
	k.SetEvTracer(tr)
	var rec Recorder
	rec.Attach(tr)
	for i := 0; i < 6; i++ {
		k.Spawn("mutator#x", ostopo.CoreID(i%2), func(e *cfs.Env) {
			for j := 0; j < 20; j++ {
				e.Compute(simkit.Time(300+j*37) * simkit.Microsecond)
				e.Sleep(simkit.Time(j%4) * 150 * simkit.Microsecond)
			}
		})
	}
	hog := k.Spawn("busyloop#0", 2, func(e *cfs.Env) {
		e.ComputePlan(func() (simkit.Time, bool) { return ms, true })
	})
	for sim.Now() < 40*ms && sim.Step() {
	}
	if len(tr.Drops()) != 0 {
		t.Fatalf("ring dropped events: %v", tr.Drops())
	}

	type stint struct {
		core, tid  int32
		start, end simkit.Time
	}
	var want []stint
	var last simkit.Time
	open := map[int32]int{} // core -> index into want
	for _, e := range tr.Events() {
		last = max(last, simkit.Time(e.At+e.Dur))
		switch {
		case e.Kind == evtrace.KRunqPop && e.Arg2 == 0:
			open[e.Core] = len(want)
			want = append(want, stint{e.Core, e.TID, simkit.Time(e.At), -1})
		case e.Kind == evtrace.KDispatch:
			w := &want[open[e.Core]]
			if w.tid != e.TID || w.start != simkit.Time(e.At) {
				t.Fatalf("span %+v does not close the stint %+v its core opened", e, *w)
			}
			w.end = simkit.Time(e.At + e.Dur)
			delete(open, e.Core)
		}
	}
	if len(open) == 0 {
		t.Fatal("no stint open at the end; the open-tail case is untested")
	}
	for _, i := range open {
		want[i].end = last
	}
	if last != sim.Now() {
		t.Errorf("last bus instant %v != final sim time %v", last, sim.Now())
	}

	got := rec.Segments()
	if len(got) != len(want) {
		t.Fatalf("recorder has %d segments, dispatch spans + open tail give %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Core != w.core || g.TID != w.tid || g.Start != w.start || g.End != w.end {
			t.Fatalf("segment %d = {core %d tid %d %v..%v}, want {core %d tid %d %v..%v}",
				i, g.Core, g.TID, g.Start, g.End, w.core, w.tid, w.start, w.end)
		}
		if g.Name != tr.ThreadName(g.TID) {
			t.Errorf("segment %d names %q, thread %d is %q", i, g.Name, g.TID, tr.ThreadName(g.TID))
		}
	}
	if busy(got, int32(hog.ID)) == 0 {
		t.Error("busy loop recorded no run time")
	}
}

func TestRenderTimeline(t *testing.T) {
	sim, k, rec := tracedKernel(t, 3)
	th := k.Spawn("GCTaskThread#0", 1, func(e *cfs.Env) { e.Compute(10 * ms) })
	for th.State() != cfs.StateDone && sim.Step() {
	}
	var b strings.Builder
	Render(&b, rec, 3, 0, 10*ms, Options{Width: 20, Legend: true})
	out := b.String()
	if !strings.Contains(out, "cpu01 |GGGGGGGGGGGGGGGGGGGG|") {
		t.Errorf("cpu01 row should be all G:\n%s", out)
	}
	if !strings.Contains(out, "cpu00 |--------------------|") {
		t.Errorf("cpu00 row should be idle:\n%s", out)
	}
	if !strings.Contains(out, "legend:") {
		t.Error("legend missing")
	}
}

// TestRenderTieBreakIsFixed: a bucket split evenly between two classes is
// drawn with the class first in the documented precedence, on every
// render (a map-ordered pick printed either class).
func TestRenderTieBreakIsFixed(t *testing.T) {
	rec := forged(
		Segment{Core: 0, Name: "mutator#0", Start: 5, End: 10},
		Segment{Core: 0, Name: "GCTaskThread#0", Start: 0, End: 5},
	)
	for i := 0; i < 200; i++ {
		var b strings.Builder
		Render(&b, rec, 1, 0, 10, Options{Width: 1})
		if !strings.Contains(b.String(), "cpu00 |G|") {
			t.Fatalf("render %d: tie between G and M not drawn as G:\n%s", i, b.String())
		}
	}
}

func TestRenderEmptyWindow(t *testing.T) {
	var b strings.Builder
	Render(&b, new(Recorder), 2, 10, 10, Options{})
	if !strings.Contains(b.String(), "empty trace window") {
		t.Error("empty window not reported")
	}
}

func TestWindowFiltering(t *testing.T) {
	sim, k, rec := tracedKernel(t, 1)
	th := k.Spawn("mutator#0", 0, func(e *cfs.Env) {
		e.Compute(2 * ms)
		e.Sleep(2 * ms)
		e.Compute(2 * ms)
	})
	for th.State() != cfs.StateDone && sim.Step() {
	}
	// Only the first compute overlaps [0, 2ms).
	if n := len(rec.Window(0, 2*ms)); n != 1 {
		t.Errorf("Window(0,2ms) = %d segments, want 1", n)
	}
	// The sleep gap [2.1ms, 3.9ms) overlaps nothing.
	if n := len(rec.Window(2*ms+200_000, 4*ms-200_000)); n != 0 {
		t.Errorf("sleep-gap window = %d segments, want 0", n)
	}
}

func TestWindowClipsToBounds(t *testing.T) {
	rec := forged(
		Segment{Core: 0, Start: 0, End: 10},  // straddles the left edge
		Segment{Core: 0, Start: 10, End: 20}, // straddles the right edge
		Segment{Core: 1, Start: 12, End: 14}, // fully inside
		Segment{Core: 2, Start: 20, End: 30}, // fully after
		Segment{Core: 3, Start: 0, End: 8},   // fully before
		Segment{Core: 4, Start: 15, End: -1}, // still open
		Segment{Core: 5, Start: 4, End: -1},  // open, starts before the window
	)
	got := rec.Window(8, 18)
	want := []Segment{
		{Core: 0, Start: 8, End: 10},
		{Core: 0, Start: 10, End: 18},
		{Core: 1, Start: 12, End: 14},
		{Core: 4, Start: 15, End: 18},
		{Core: 5, Start: 8, End: 18},
	}
	if len(got) != len(want) {
		t.Fatalf("Window returned %d segments, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Core != w.Core || got[i].Start != w.Start || got[i].End != w.End {
			t.Errorf("segment %d = {core %d, %v..%v}, want {core %d, %v..%v}",
				i, got[i].Core, got[i].Start, got[i].End, w.Core, w.Start, w.End)
		}
	}
	// Clipping must not mutate the recorded segments.
	if segs := rec.Segments(); segs[0].End != 10 || segs[5].End != 30 {
		t.Errorf("Window mutated the recording: %+v", segs)
	}
}

func TestWindowDegenerate(t *testing.T) {
	rec := forged(Segment{Core: 0, Start: 0, End: 10})
	if got := rec.Window(5, 5); got != nil {
		t.Errorf("zero-length window returned %+v, want nil", got)
	}
	if got := rec.Window(7, 3); got != nil {
		t.Errorf("inverted window returned %+v, want nil", got)
	}
	// A zero-length segment clips away entirely.
	rec = forged(Segment{Core: 0, Start: 4, End: 4})
	if got := rec.Window(0, 10); got != nil {
		t.Errorf("zero-length segment survived clipping: %+v", got)
	}
	// An open segment starting exactly at the right edge is excluded
	// ([from, to) is half-open).
	rec = forged(Segment{Core: 0, Start: 10, End: -1})
	if got := rec.Window(0, 10); got != nil {
		t.Errorf("segment at the window edge survived: %+v", got)
	}
	// Empty recording.
	if got := new(Recorder).Window(0, 10); got != nil {
		t.Errorf("empty recording returned %+v, want nil", got)
	}
}

// TestBusyTimeCountsClosedOnce: an open segment ends at the last bus
// instant, and reading the segments never closes it for good — a later
// event extends it, and repeated reads do not double-count.
func TestBusyTimeCountsClosedOnce(t *testing.T) {
	tr := evtrace.New(1)
	var rec Recorder
	rec.Attach(tr)
	tr.Emit(evtrace.Event{Kind: evtrace.KRunqPop, At: 0, Core: 0, TID: 7})
	tr.Emit(evtrace.Event{Kind: evtrace.KDispatch, At: 0, Dur: 10, Core: 0, TID: 7})
	tr.Emit(evtrace.Event{Kind: evtrace.KRunqPop, At: 20, Core: 1, TID: 7})
	if got := busy(rec.Segments(), 7); got != 10 {
		t.Errorf("busy with a zero-length open tail = %v, want 10", got)
	}
	tr.Emit(evtrace.Event{Kind: evtrace.KEvFire, At: 25, Core: -1, TID: -1})
	for i := 0; i < 2; i++ {
		if got := busy(rec.Segments(), 7); got != 15 {
			t.Errorf("read %d: busy with the tail open to 25 = %v, want 15", i, got)
		}
	}
	tr.Emit(evtrace.Event{Kind: evtrace.KDispatch, At: 20, Dur: 8, Core: 1, TID: 7})
	tr.Emit(evtrace.Event{Kind: evtrace.KEvFire, At: 100, Core: -1, TID: -1})
	if got := busy(rec.Segments(), 7); got != 18 {
		t.Errorf("busy after the tail closed at 28 = %v, want 18 (extended past its close?)", got)
	}
}

// TestKernelConservationProperty is a property test over random workloads:
// (1) scheduler-trace invariants hold (the checker attached by traced);
// (2) per-thread recorded busy time equals the kernel's CPUTime accounting;
// (3) total busy time never exceeds cores × wall time (no CPU is conjured);
// (4) every thread received exactly the CPU it asked for (work conservation
//
//	at the request level: bodies finish only when their work is done).
func TestKernelConservationProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		sim := simkit.New(seed)
		topo := &ostopo.Topology{PhysCores: 4, SMTWays: 1, Nodes: 2}
		_, k, rec := traced(t, sim, topo)
		rng := sim.Rand()
		type spec struct {
			th   *cfs.Thread
			want simkit.Time
		}
		var specs []spec
		for i := 0; i < 10; i++ {
			chunks := 5 + rng.Intn(20)
			var want simkit.Time
			var plan []simkit.Time
			for c := 0; c < chunks; c++ {
				d := simkit.Time(1+rng.Intn(2000)) * simkit.Microsecond
				plan = append(plan, d)
				want += d
			}
			core := ostopo.CoreID(rng.Intn(topo.NumCPUs()))
			sleepy := rng.Intn(2) == 0
			th := k.Spawn("mutator#p", core, func(e *cfs.Env) {
				for _, d := range plan {
					e.Compute(d)
					if sleepy {
						e.Sleep(simkit.Time(1+e.Rand().Intn(500)) * simkit.Microsecond)
					}
				}
			})
			specs = append(specs, spec{th, want})
		}
		for {
			done := true
			for _, s := range specs {
				if s.th.State() != cfs.StateDone {
					done = false
					break
				}
			}
			if done || !sim.Step() {
				break
			}
		}
		segs := rec.Segments()
		var totalBusy simkit.Time
		for _, s := range specs {
			if s.th.State() != cfs.StateDone {
				t.Fatalf("seed %d: thread not done", seed)
			}
			b := busy(segs, int32(s.th.ID))
			if b != s.th.CPUTime {
				t.Errorf("seed %d: recorded busy %v != CPUTime %v", seed, b, s.th.CPUTime)
			}
			// CPUTime covers the requested work plus charged context-switch
			// overhead; it must never be below the requested work.
			if s.th.CPUTime < s.want {
				t.Errorf("seed %d: CPUTime %v below requested work %v", seed, s.th.CPUTime, s.want)
			}
			totalBusy += b
		}
		if cap := simkit.Time(topo.NumCPUs()) * sim.Now(); totalBusy > cap {
			t.Errorf("seed %d: total busy %v exceeds machine capacity %v", seed, totalBusy, cap)
		}
		sim.Close()
	}
}

func TestRenderDegenerateWidths(t *testing.T) {
	sim, k, rec := tracedKernel(t, 1)
	th := k.Spawn("GCTaskThread#0", 0, func(e *cfs.Env) { e.Compute(10) })
	for th.State() != cfs.StateDone && sim.Step() {
	}

	// Window shorter than the width: the bucket size clamps to 1 time
	// unit, so only the first len(window) columns can be non-idle.
	var b strings.Builder
	Render(&b, rec, 1, 0, 5, Options{Width: 20})
	out := b.String()
	if !strings.Contains(out, "cpu00 |GGGGG") {
		t.Errorf("sub-width window misrendered:\n%s", out)
	}
	if strings.Count(out, "G") != 5 {
		t.Errorf("want exactly 5 busy columns for a 5-unit window:\n%s", out)
	}

	// Width 1: the whole window is a single bucket.
	b.Reset()
	Render(&b, rec, 1, 0, 10, Options{Width: 1})
	if !strings.Contains(b.String(), "cpu00 |G|") {
		t.Errorf("width-1 render wrong:\n%s", b.String())
	}
}

func TestRenderSingleCoreAndEmptyTrace(t *testing.T) {
	// A valid window over a recording with no segments renders all-idle
	// rows rather than reporting an empty window.
	var b strings.Builder
	Render(&b, new(Recorder), 1, 0, 10*ms, Options{Width: 10})
	out := b.String()
	if !strings.Contains(out, "cpu00 |----------|") {
		t.Errorf("empty trace should render an idle row:\n%s", out)
	}
	if strings.Contains(out, "cpu01") {
		t.Errorf("single-core render produced extra rows:\n%s", out)
	}
	if strings.Contains(out, "legend:") {
		t.Error("legend rendered without being requested")
	}

	// Inverted windows are reported, not rendered.
	b.Reset()
	Render(&b, new(Recorder), 1, 10, 0, Options{})
	if !strings.Contains(b.String(), "empty trace window") {
		t.Error("inverted window not reported")
	}
}
