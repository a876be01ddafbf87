package evtrace

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// ringModel is the reference the growing rings must match: every layer
// keeps its whole stream, and a sink of capacity c retains the last c
// events of its layer and counts the rest as drops.
type ringModel struct {
	cap    int
	layers [numLayers][]Event
}

func (m *ringModel) emit(e Event) { m.layers[e.Kind.Layer()] = append(m.layers[e.Kind.Layer()], e) }

func (m *ringModel) retained(l Layer) []Event {
	evs := m.layers[l]
	if len(evs) > m.cap {
		evs = evs[len(evs)-m.cap:]
	}
	return evs
}

func (m *ringModel) drops() map[Layer]uint64 {
	out := make(map[Layer]uint64)
	for l, evs := range m.layers {
		if len(evs) > m.cap {
			out[Layer(l)] = uint64(len(evs) - m.cap)
		}
	}
	return out
}

// ringKinds holds one kind of each layer, so an event stream cycling
// through a prefix of it spreads over that many layers.
var ringKinds = []Kind{KEvFire, KDispatch, KLockFast, KStealOK, KGCTask}

// TestRingMatchesModel drives sinks through the sizes where growth and
// wrap-around meet — one short of the cap, exactly the cap, one past it,
// and several laps — on one layer and on all five, for caps below, at and
// above the first block, and compares everything a consumer can read
// against the reference model.
func TestRingMatchesModel(t *testing.T) {
	for _, c := range []int{5, 64, sinkBlock, 3000} {
		for _, n := range []int{c - 1, c, c + 1, 3*c + 5} {
			for _, layers := range []int{1, len(ringKinds)} {
				t.Run(fmt.Sprintf("cap%d/n%d/layers%d", c, n, layers), func(t *testing.T) {
					tr := New(c)
					m := &ringModel{cap: c}
					for i := 0; i < n; i++ {
						// Each layer receives n events, in an interleaving
						// that is not round-robin.
						for j := 0; j < layers; j++ {
							k := ringKinds[(i*7+j)%layers]
							e := Event{Kind: k, At: int64(i), Arg1: int64(j), Seq: tr.seq + 1}
							tr.Emit(e)
							m.emit(e)
						}
					}
					var all []Event
					want := 0
					for l := Layer(0); l < numLayers; l++ {
						got, exp := tr.LayerEvents(l), m.retained(l)
						if len(got) != 0 || len(exp) != 0 {
							if !reflect.DeepEqual(got, exp) {
								t.Fatalf("LayerEvents(%v): %d events, want the model's %d", l, len(got), len(exp))
							}
						}
						all = append(all, exp...)
						want += len(exp)
					}
					if got := tr.Len(); got != want {
						t.Errorf("Len = %d, want %d", got, want)
					}
					if got, exp := tr.Drops(), m.drops(); !reflect.DeepEqual(got, exp) {
						t.Errorf("Drops = %v, want %v", got, exp)
					}
					sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
					if got := tr.Events(); !reflect.DeepEqual(got, all) {
						t.Errorf("Events: %d events, want %d in Seq order", len(got), len(all))
					}
				})
			}
		}
	}
}

// TestRingGrowsOnDemand: a default-capacity tracer holds storage in
// proportion to the events it received, not to DefaultSinkCap, and layers
// that received nothing hold none.
func TestRingGrowsOnDemand(t *testing.T) {
	const n = 1000
	tr := New(0)
	for i := 0; i < n; i++ {
		tr.Emit(Event{Kind: KDispatch, At: int64(i)})
	}
	if got := cap(tr.sinks[LayerCFS].buf); got >= 4*n {
		t.Errorf("cfs sink holds %d slots for %d events, want < %d", got, n, 4*n)
	}
	for _, l := range []Layer{LayerSimkit, LayerJmutex, LayerTaskq, LayerGC} {
		if got := cap(tr.sinks[l].buf); got != 0 {
			t.Errorf("%v sink holds %d slots without events", l, got)
		}
	}
	if got := len(tr.LayerEvents(LayerCFS)); got != n {
		t.Errorf("retained %d events, want %d", got, n)
	}
}

// TestEmitWrappedRingZeroAlloc: once a sink has grown to its cap and
// wrapped, emitting overwrites in place and never allocates.
func TestEmitWrappedRingZeroAlloc(t *testing.T) {
	const c = 3 * sinkBlock
	tr := New(c)
	for i := 0; i < c+1; i++ {
		tr.Emit(Event{Kind: KDispatch, At: int64(i)})
	}
	if !tr.sinks[LayerCFS].full {
		t.Fatal("ring did not wrap")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(Event{Kind: KDispatch, At: 1, Dur: 2, Core: 0, TID: 1, Name: "t"})
	})
	if allocs != 0 {
		t.Errorf("Emit on a wrapped ring allocates %.1f/op, want 0", allocs)
	}
}
