package evtrace

import "testing"

// The disabled path (nil tracer) must cost zero allocations: this is the
// contract that lets every hot path carry an unconditional `if etr != nil`
// guard without an alloc/GC penalty when tracing is off.
func TestEmitDisabledZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(Event{Kind: KDispatch, At: 1, Dur: 2, Core: 0, TID: 1, Name: "t"})
	})
	if allocs != 0 {
		t.Errorf("disabled Emit allocates %.1f/op, want 0", allocs)
	}
}

// Once a sink's ring is warm (first Emit on the layer allocated it), the
// enabled steady state must also be zero-alloc: records are copied into the
// ring in place and names are preexisting strings, never formatted.
func TestEmitEnabledSteadyStateZeroAlloc(t *testing.T) {
	tr := New(256)
	tr.Emit(Event{Kind: KDispatch}) // warm the cfs ring
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(Event{Kind: KDispatch, At: 1, Dur: 2, Core: 0, TID: 1, Name: "t"})
	})
	if allocs != 0 {
		t.Errorf("enabled Emit allocates %.1f/op after warm-up, want 0", allocs)
	}
}

func BenchmarkEmitDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{Kind: KDispatch, At: int64(i), Core: 0, TID: 1, Name: "t"})
	}
}

func BenchmarkEmitEnabled(b *testing.B) {
	tr := New(1 << 12)
	tr.Emit(Event{Kind: KDispatch})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{Kind: KDispatch, At: int64(i), Core: 0, TID: 1, Name: "t"})
	}
}

func BenchmarkEmitBus(b *testing.B) {
	tr := NewBus()
	tr.SubscribeKinds(func(Event) {}, KLockFast)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{Kind: KDispatch, At: int64(i), Core: 0, TID: 1, Name: "t"})
	}
}
