package evtrace

import (
	"reflect"
	"testing"
)

// TestSubscribeKindsDeliversExactly: kind subscribers receive exactly the
// kinds they asked for, each once even when listed twice, in Seq order,
// and every event reaches its subscribers in subscription order, kind
// subscribers interleaved with catch-all ones.
func TestSubscribeKindsDeliversExactly(t *testing.T) {
	type call struct {
		sub int
		seq uint64
	}
	var log []call
	sub := func(id int) func(Event) {
		return func(e Event) { log = append(log, call{id, e.Seq}) }
	}
	subs := []struct {
		all   bool
		kinds []Kind
	}{
		{kinds: []Kind{KLockFast, KDispatch, KLockFast}},
		{all: true},
		{kinds: []Kind{KDispatch}},
		{kinds: nil},
		{all: true},
		{kinds: []Kind{KGCSpan, KEvFire}},
	}
	for _, tr := range []*Tracer{NewBus(), New(4)} {
		log = log[:0]
		for id, s := range subs {
			if s.all {
				tr.Subscribe(sub(id))
			} else {
				tr.SubscribeKinds(sub(id), s.kinds...)
			}
		}
		stream := []Kind{KEvFire, KDispatch, KLockFast, KStealOK, KDispatch, KGCSpan, KLockFast, KEvSchedule}
		for i, k := range stream {
			tr.Emit(Event{Kind: k, At: int64(i)})
		}

		var want []call
		for i, k := range stream {
			for id, s := range subs {
				wants := s.all
				for _, sk := range s.kinds {
					wants = wants || sk == k
				}
				if wants {
					want = append(want, call{id, uint64(i + 1)})
				}
			}
		}
		if !reflect.DeepEqual(log, want) {
			t.Errorf("rings=%v: deliveries\n got %v\nwant %v", tr.rings, log, want)
		}
	}
}

// TestBusKeepsNothing: a NewBus tracer numbers and dispatches events but
// retains none, so everything a ring reader sees is empty.
func TestBusKeepsNothing(t *testing.T) {
	tr := NewBus()
	var seen []uint64
	tr.Subscribe(func(e Event) { seen = append(seen, e.Seq) })
	for i := 0; i < 3*sinkBlock; i++ {
		tr.Emit(Event{Kind: ringKinds[i%len(ringKinds)], At: int64(i)})
	}
	if len(seen) != 3*sinkBlock || seen[len(seen)-1] != 3*sinkBlock {
		t.Fatalf("subscriber saw %d events, last Seq %d; want %d", len(seen), seen[len(seen)-1], 3*sinkBlock)
	}
	if tr.Len() != 0 || len(tr.Events()) != 0 || len(tr.Drops()) != 0 {
		t.Errorf("bus retained events: Len %d, Events %d, Drops %v", tr.Len(), len(tr.Events()), tr.Drops())
	}
	for _, l := range Layers() {
		if tr.LayerEvents(l) != nil || tr.sinks[l].buf != nil {
			t.Errorf("bus holds %v storage", l)
		}
	}
}

// TestEmitBusZeroAlloc: Emit on a bus-only tracer with kind subscribers
// allocates nothing, from the first event on.
func TestEmitBusZeroAlloc(t *testing.T) {
	tr := NewBus()
	n := 0
	tr.SubscribeKinds(func(Event) { n++ }, KDispatch, KLockFast)
	tr.SubscribeKinds(func(Event) { n++ }, KGCSpan)
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(Event{Kind: KDispatch, At: 1, Dur: 2, Core: 0, TID: 1, Name: "t"})
		tr.Emit(Event{Kind: KEvFire, At: 1})
	})
	if allocs != 0 {
		t.Errorf("bus Emit allocates %.1f/op, want 0", allocs)
	}
	if n == 0 {
		t.Error("kind subscriber never called")
	}
}
