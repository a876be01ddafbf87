package evtrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: KEvFire})
	tr.RegisterThread(1, "x")
	if tr.Enabled() {
		t.Error("nil tracer reports Enabled")
	}
	if tr.Len() != 0 || tr.Events() != nil || tr.LayerEvents(LayerCFS) != nil {
		t.Error("nil tracer retains events")
	}
	if tr.ThreadName(1) != "" || tr.Drops() != nil {
		t.Error("nil tracer registry not empty")
	}
}

func TestEmitOrderingAndLayerRouting(t *testing.T) {
	tr := New(16)
	tr.Emit(Event{Kind: KEvSchedule, At: 1})
	tr.Emit(Event{Kind: KDispatch, At: 2, Core: 0})
	tr.Emit(Event{Kind: KLockFast, At: 3, TID: 7, Name: "m"})
	tr.Emit(Event{Kind: KStealOK, At: 4, TID: 1})
	tr.Emit(Event{Kind: KGCSpan, At: 5, Dur: 10})

	if got := tr.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("Events not in Seq order: %v", evs)
		}
	}
	for i, want := range []Layer{LayerSimkit, LayerCFS, LayerJmutex, LayerTaskq, LayerGC} {
		if got := evs[i].Kind.Layer(); got != want {
			t.Errorf("event %d layer = %v, want %v", i, got, want)
		}
		if n := len(tr.LayerEvents(want)); n != 1 {
			t.Errorf("layer %v holds %d events, want 1", want, n)
		}
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Kind: KEvFire, At: int64(i)})
	}
	evs := tr.LayerEvents(LayerSimkit)
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := int64(6 + i); e.At != want {
			t.Errorf("retained[%d].At = %d, want %d (oldest overwritten)", i, e.At, want)
		}
	}
	if d := tr.Drops()[LayerSimkit]; d != 6 {
		t.Errorf("drops = %d, want 6", d)
	}
}

func TestKindMetaComplete(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.Name() == "" {
			t.Errorf("kind %d has no name", k)
		}
		if k.Layer() >= numLayers {
			t.Errorf("kind %d has invalid layer", k)
		}
	}
	if len(Layers()) != numLayers {
		t.Errorf("Layers() lists %d layers, want %d", len(Layers()), numLayers)
	}
}

func TestWritePerfettoLoadableJSON(t *testing.T) {
	tr := New(64)
	tr.RegisterThread(7, "GCTaskThread#0")
	tr.Emit(Event{Kind: KEvSchedule, At: 100, Arg1: 500})
	tr.Emit(Event{Kind: KDispatch, At: 200, Dur: 300, Core: 2, TID: 7, Name: "GCTaskThread#0"})
	tr.Emit(Event{Kind: KLockFast, At: 250, TID: 7, Name: "GCTaskManager", Arg1: 3})
	tr.Emit(Event{Kind: KStealFail, At: 260, TID: 0, Arg1: -1})
	tr.Emit(Event{Kind: KGCSpan, At: 100, Dur: 900, Name: "minor", Arg1: 1})
	tr.Emit(Event{Kind: KGCPhase, At: 100, Dur: 50, Name: "init"})

	var b bytes.Buffer
	if err := WritePerfetto(&b, tr); err != nil {
		t.Fatal(err)
	}
	var f struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &f); err != nil {
		t.Fatalf("exported JSON does not parse: %v", err)
	}
	cats := map[string]bool{}
	spans, instants, metas := 0, 0, 0
	for _, te := range f.TraceEvents {
		switch te.Ph {
		case "X":
			spans++
			if te.Dur == nil {
				t.Errorf("span %q missing dur", te.Name)
			}
		case "i":
			instants++
		case "M":
			metas++
		default:
			t.Errorf("unexpected ph %q", te.Ph)
		}
		if te.Cat != "" {
			cats[te.Cat] = true
		}
	}
	for _, l := range []string{"simkit", "cfs", "jmutex", "taskq", "pscavenge"} {
		if !cats[l] {
			t.Errorf("exported trace missing category %q (got %v)", l, cats)
		}
	}
	if spans != 3 || instants != 3 || metas == 0 {
		t.Errorf("spans=%d instants=%d metas=%d, want 3/3/>0", spans, instants, metas)
	}
	// The dispatch span must land on the core track.
	if !strings.Contains(b.String(), `"name":"cpu02"`) {
		t.Error("core track metadata missing")
	}
}

func TestWritePerfettoDeterministic(t *testing.T) {
	build := func() *Tracer {
		tr := New(32)
		tr.RegisterThread(3, "b")
		tr.RegisterThread(1, "a")
		tr.Emit(Event{Kind: KDispatch, At: 1, Dur: 2, Core: 1, TID: 1, Name: "a"})
		tr.Emit(Event{Kind: KDispatch, At: 3, Dur: 2, Core: 0, TID: 3, Name: "b"})
		tr.Emit(Event{Kind: KWakeup, At: 4, TID: 1, Arg1: 1})
		return tr
	}
	var b1, b2 bytes.Buffer
	if err := WritePerfetto(&b1, build()); err != nil {
		t.Fatal(err)
	}
	if err := WritePerfetto(&b2, build()); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("export is not byte-deterministic")
	}
}

func TestLockProfile(t *testing.T) {
	tr := NewBus()
	var lp LockProfiler
	lp.Attach(tr)
	tr.RegisterThread(1, "GCTaskThread#0")
	tr.RegisterThread(2, "GCTaskThread#1")
	// Owner 1 acquires 3x in a row (2 reacquires), then 2 takes over after
	// a bypass+block, then 1 again.
	tr.Emit(Event{Kind: KLockFast, At: 1, TID: 1, Name: "m"})
	tr.Emit(Event{Kind: KLockRelease, At: 2, TID: 1, Name: "m"})
	tr.Emit(Event{Kind: KLockFast, At: 3, TID: 1, Name: "m", Arg2: 1})
	tr.Emit(Event{Kind: KLockBlock, At: 4, TID: 2, Name: "m"})
	tr.Emit(Event{Kind: KLockFast, At: 5, TID: 1, Name: "m", Arg2: 1})
	tr.Emit(Event{Kind: KLockBypass, At: 5, TID: 1, Name: "m", Arg1: 1})
	tr.Emit(Event{Kind: KLockHandoff, At: 6, TID: 2, Name: "m"})
	tr.Emit(Event{Kind: KLockFast, At: 7, TID: 1, Name: "m"})
	// A different lock must be filtered out.
	tr.Emit(Event{Kind: KLockFast, At: 8, TID: 2, Name: "other"})

	p := lp.Profile("m")
	if p.Acquires != 5 || p.FastAcquires != 4 || p.Handoffs != 1 {
		t.Errorf("acquires=%d fast=%d handoff=%d, want 5/4/1", p.Acquires, p.FastAcquires, p.Handoffs)
	}
	if p.Bypasses != 1 || p.Blocks != 1 {
		t.Errorf("bypasses=%d blocks=%d, want 1/1", p.Bypasses, p.Blocks)
	}
	if p.PrevOwnerWins != 2 {
		t.Errorf("PrevOwnerWins = %d, want 2", p.PrevOwnerWins)
	}
	if p.MaxRun != 3 {
		t.Errorf("MaxRun = %d, want 3", p.MaxRun)
	}
	if p.RunLengths[3] != 1 || p.RunLengths[1] != 2 {
		t.Errorf("RunLengths = %v, want {3:1, 1:2}", p.RunLengths)
	}
	// Transition matrix: 1->1 twice, 1->2 once, 2->1 once.
	if got := p.Transitions[0][0]; got != 2 {
		t.Errorf("Transitions[1][1] = %d, want 2", got)
	}
	if got := p.Transitions[0][1]; got != 1 {
		t.Errorf("Transitions[1][2] = %d, want 1", got)
	}
	var b bytes.Buffer
	p.Render(&b)
	for _, want := range []string{"lock-contention profile: m", "previous owner re-acquired: 2 of 4 (50.0%)", "GCTa..#0"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("report missing %q:\n%s", want, b.String())
		}
	}
}

// TestLockProfileMergedMultiMonitor pins the per-monitor ownership
// cursor: when two monitors' acquisition streams interleave (one per JVM
// in a multi-JVM run) and profiles are merged (lock == ""), runs and
// transitions must be tracked per monitor — a single global cursor would
// fabricate cross-machine transitions no thread ever performed.
func TestLockProfileMergedMultiMonitor(t *testing.T) {
	tr := NewBus()
	var lp LockProfiler
	lp.Attach(tr)
	tr.RegisterThread(1, "GCTaskThread#0")
	tr.RegisterThread(2, "GCTaskThread#1")
	// Monitor A: tid 1 acquires three times in a row; monitor B's stream
	// (tid 2, twice) interleaves between them.
	tr.Emit(Event{Kind: KLockFast, At: 1, TID: 1, Name: "GCTaskManager"})
	tr.Emit(Event{Kind: KLockFast, At: 2, TID: 2, Name: "GCTaskManager#1"})
	tr.Emit(Event{Kind: KLockFast, At: 3, TID: 1, Name: "GCTaskManager", Arg2: 1})
	tr.Emit(Event{Kind: KLockFast, At: 4, TID: 2, Name: "GCTaskManager#1", Arg2: 1})
	tr.Emit(Event{Kind: KLockFast, At: 5, TID: 1, Name: "GCTaskManager", Arg2: 1})

	p := lp.Profile("")
	if p.Acquires != 5 {
		t.Fatalf("acquires = %d, want 5", p.Acquires)
	}
	// tid 1 re-acquired A twice, tid 2 re-acquired B once; nothing else.
	if p.PrevOwnerWins != 3 {
		t.Errorf("PrevOwnerWins = %d, want 3 (per-monitor cursors)", p.PrevOwnerWins)
	}
	if p.MaxRun != 3 || p.RunLengths[3] != 1 || p.RunLengths[2] != 1 {
		t.Errorf("runs = %v max %d, want {3:1, 2:1} max 3", p.RunLengths, p.MaxRun)
	}
	// Transition matrix must be purely diagonal: ownership never crossed
	// between the two machines' monitors.
	for i := range p.Transitions {
		for j, c := range p.Transitions[i] {
			if i != j && c != 0 {
				t.Errorf("fabricated cross-monitor transition [%d][%d] = %d", i, j, c)
			}
		}
	}
	if p.Transitions[0][0] != 2 || p.Transitions[1][1] != 1 {
		t.Errorf("diagonal = [%d, %d], want [2, 1]",
			p.Transitions[0][0], p.Transitions[1][1])
	}

	// The per-monitor view splits the same stream into two profiles.
	profiles := lp.Profiles()
	if len(profiles) != 2 {
		t.Fatalf("Profiles returned %d profiles, want 2", len(profiles))
	}
	if profiles[0].Lock != "GCTaskManager" || profiles[1].Lock != "GCTaskManager#1" {
		t.Errorf("profile names %q/%q, want sorted monitor names",
			profiles[0].Lock, profiles[1].Lock)
	}
	if profiles[0].Acquires != 3 || profiles[1].Acquires != 2 {
		t.Errorf("per-monitor acquires = %d/%d, want 3/2",
			profiles[0].Acquires, profiles[1].Acquires)
	}
}

func TestLockProfileEmpty(t *testing.T) {
	var lp LockProfiler
	lp.Attach(nil)
	p := lp.Profile("m")
	if p.Acquires != 0 || p.PrevOwnerWinRate() != 0 {
		t.Error("profile of an unattached profiler not empty")
	}
	if lp.Profiles() != nil {
		t.Error("unattached profiler lists monitors")
	}
	var b bytes.Buffer
	p.Render(&b)
	if !strings.Contains(b.String(), "no acquisitions") {
		t.Error("empty profile report missing notice")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Set(4)
	r.Counter("z.abs").Set(10)
	r.Gauge("m.ratio").Set(0.5)
	got := r.Current()
	want := []Metric{{"a.count", 4}, {"m.ratio", 0.5}, {"z.abs", 10}}
	if len(got) != len(want) {
		t.Fatalf("values = %v", got)
	}
	for i, m := range want {
		if got[i] != m {
			t.Errorf("values[%d] = %v, want %v", i, got[i], m)
		}
	}
	var b bytes.Buffer
	r.Render(&b)
	if !strings.Contains(b.String(), "a.count") || !strings.Contains(b.String(), "0.500") {
		t.Errorf("Render output wrong:\n%s", b.String())
	}
}
