package heap

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// This file checks the SoA arena heap against an independent reference
// model: a plain map of per-object structs (each with its own refs slice —
// the layout the arena replaced) driven through the same randomized
// alloc / addref / minor-GC / major-GC op sequence. The reference
// recomputes every collection decision (tenuring, survivor overflow,
// write-barrier membership, sweeps) from its own state, so any divergence
// in the arena bookkeeping — offsets, reservations, compaction, free-slot
// recycling — shows up as an observable mismatch.

type refObj struct {
	size int32
	age  uint8
	sp   Space
	refs []ObjID
	inRS bool
}

type refModel struct {
	cfg        Config
	objs       map[ObjID]*refObj
	eden, from []ObjID
	to, old    []ObjID
	edenUsed   int64
	fromUsed   int64
	toUsed     int64
	oldUsed    int64
	remembered []ObjID
	marked     map[ObjID]bool
}

func newRefModel(cfg Config) *refModel {
	return &refModel{cfg: cfg, objs: map[ObjID]*refObj{}}
}

func (r *refModel) alloc(id ObjID, size int32, refs []ObjID) {
	if _, dup := r.objs[id]; dup {
		panic(fmt.Sprintf("heap handed out live id %d again", id))
	}
	r.objs[id] = &refObj{size: size, sp: SpaceEden, refs: append([]ObjID(nil), refs...)}
	r.eden = append(r.eden, id)
	r.edenUsed += int64(size)
}

func (r *refModel) allocOld(id ObjID, size int32, refs []ObjID) {
	if _, dup := r.objs[id]; dup {
		panic(fmt.Sprintf("heap handed out live id %d again", id))
	}
	r.objs[id] = &refObj{size: size, sp: SpaceOld, refs: append([]ObjID(nil), refs...)}
	r.old = append(r.old, id)
	r.oldUsed += int64(size)
	for _, c := range refs {
		r.barrier(id, c)
	}
}

func (r *refModel) barrier(parent, child ObjID) {
	p := r.objs[parent]
	if p.sp != SpaceOld || p.inRS {
		return
	}
	if c, ok := r.objs[child]; ok && (c.sp == SpaceEden || c.sp == SpaceFrom || c.sp == SpaceTo) {
		p.inRS = true
		r.remembered = append(r.remembered, parent)
	}
}

func (r *refModel) addRef(parent, child ObjID) {
	r.objs[parent].refs = append(r.objs[parent].refs, child)
	r.barrier(parent, child)
}

func (r *refModel) setRef(parent ObjID, i int, child ObjID) {
	r.objs[parent].refs[i] = child
	r.barrier(parent, child)
}

func (r *refModel) copyYoung(id ObjID) (promoted, first bool) {
	o := r.objs[id]
	if r.marked[id] {
		return o.sp == SpaceOld, false
	}
	if o.sp != SpaceEden && o.sp != SpaceFrom {
		r.marked[id] = true
		return o.sp == SpaceOld, false
	}
	r.marked[id] = true
	sz := int64(o.size)
	if o.age+1 >= r.cfg.TenureAge || r.toUsed+sz > r.cfg.SurvivorBytes {
		o.sp = SpaceOld
		o.age = 0
		r.old = append(r.old, id)
		r.oldUsed += sz
		for _, c := range o.refs {
			if c != 0 {
				r.barrier(id, c)
			}
		}
		return true, true
	}
	o.sp = SpaceTo
	o.age++
	r.to = append(r.to, id)
	r.toUsed += sz
	return false, true
}

func (r *refModel) finishMinor() {
	sweepYoung := func(list []ObjID, sp Space) {
		for _, id := range list {
			if o := r.objs[id]; o.sp == sp {
				delete(r.objs, id)
			}
		}
	}
	sweepYoung(r.eden, SpaceEden)
	sweepYoung(r.from, SpaceFrom)
	r.eden, r.edenUsed = nil, 0
	for _, id := range r.to {
		r.objs[id].sp = SpaceFrom
	}
	r.from, r.to = r.to, nil
	r.fromUsed, r.toUsed = r.toUsed, 0
	r.pruneRS()
	r.marked = nil
}

func (r *refModel) pruneRS() {
	live := r.remembered[:0]
	for _, id := range r.remembered {
		o, ok := r.objs[id]
		if !ok || o.sp != SpaceOld {
			if ok {
				o.inRS = false
			}
			continue
		}
		keep := false
		for _, c := range o.refs {
			if c == 0 {
				continue
			}
			if co, live := r.objs[c]; live && (co.sp == SpaceEden || co.sp == SpaceFrom) {
				keep = true
				break
			}
		}
		if keep {
			live = append(live, id)
		} else {
			o.inRS = false
		}
	}
	r.remembered = live
}

func (r *refModel) mark(id ObjID) bool {
	if r.marked[id] {
		return false
	}
	r.marked[id] = true
	return true
}

func (r *refModel) finishMajor() (freedOld int64) {
	sweep := func(list []ObjID, used *int64, old bool) []ObjID {
		var out []ObjID
		for _, id := range list {
			if r.marked[id] {
				out = append(out, id)
				continue
			}
			*used -= int64(r.objs[id].size)
			if old {
				freedOld += int64(r.objs[id].size)
			}
			delete(r.objs, id)
		}
		return out
	}
	r.eden = sweep(r.eden, &r.edenUsed, false)
	r.from = sweep(r.from, &r.fromUsed, false)
	r.old = sweep(r.old, &r.oldUsed, true)
	r.pruneRS()
	r.marked = nil
	return freedOld
}

// liveYoungRefChildren lists the young objects referenced from RS entries,
// in RS order — the remembered-set scan of a scavenge.
func (r *refModel) rsChildren() []ObjID {
	var out []ObjID
	for _, id := range r.remembered {
		for _, c := range r.objs[id].refs {
			if c == 0 {
				continue
			}
			if co, ok := r.objs[c]; ok && (co.sp == SpaceEden || co.sp == SpaceFrom) {
				out = append(out, c)
			}
		}
	}
	return out
}

func sortedIDs(ids []ObjID) []ObjID {
	out := append([]ObjID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// compareState checks every observable the simulation reads off the heap
// against the reference model.
func compareState(t *testing.T, step string, h *Heap, r *refModel) {
	t.Helper()
	eden, from, old := h.Usage()
	if eden != r.edenUsed || from != r.fromUsed || old != r.oldUsed {
		t.Fatalf("%s: usage (%d,%d,%d) != reference (%d,%d,%d)",
			step, eden, from, old, r.edenUsed, r.fromUsed, r.oldUsed)
	}
	if h.LiveObjects() != len(r.objs) {
		t.Fatalf("%s: %d live objects, reference has %d", step, h.LiveObjects(), len(r.objs))
	}
	for id, o := range r.objs {
		if h.SpaceOf(id) != o.sp || h.AgeOf(id) != o.age || h.SizeOf(id) != o.size {
			t.Fatalf("%s: obj %d = (%v, age %d, size %d), reference (%v, age %d, size %d)",
				step, id, h.SpaceOf(id), h.AgeOf(id), h.SizeOf(id), o.sp, o.age, o.size)
		}
		if h.InRS(id) != o.inRS {
			t.Fatalf("%s: obj %d InRS = %v, reference %v", step, id, h.InRS(id), o.inRS)
		}
		refs := h.Refs(id)
		if len(refs) != len(o.refs) {
			t.Fatalf("%s: obj %d has %d refs, reference %d", step, id, len(refs), len(o.refs))
		}
		for i := range refs {
			if refs[i] != o.refs[i] {
				t.Fatalf("%s: obj %d ref[%d] = %d, reference %d", step, id, i, refs[i], o.refs[i])
			}
		}
	}
	hrs, rrs := sortedIDs(h.RememberedSet()), sortedIDs(r.remembered)
	if len(hrs) != len(rrs) {
		t.Fatalf("%s: RS size %d != reference %d", step, len(hrs), len(rrs))
	}
	for i := range hrs {
		if hrs[i] != rrs[i] {
			t.Fatalf("%s: RS[%d] = %d, reference %d", step, i, hrs[i], rrs[i])
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
}

func TestHeapMatchesReferenceModel(t *testing.T) {
	for _, seed := range []int64{1, 7, 1234, 99} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := Config{EdenBytes: 60_000, SurvivorBytes: 12_000, OldBytes: 400_000, TenureAge: 3}
			h, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := newRefModel(cfg)
			rng := rand.New(rand.NewSource(seed))

			// live ids the driver aims refs and roots at.
			var live []ObjID
			refreshLive := func() {
				live = live[:0]
				for id := range r.objs {
					live = append(live, id)
				}
				live = sortedIDs(live)
			}
			randRefs := func() []ObjID {
				n := rng.Intn(4)
				if n > len(live) {
					n = len(live)
				}
				refs := make([]ObjID, 0, n)
				for i := 0; i < n; i++ {
					refs = append(refs, live[rng.Intn(len(live))])
				}
				return refs
			}

			minorGC := func(step string) {
				// Root set: a random subset of live objects plus every
				// young object reachable from the remembered set, exactly
				// like a scavenge's thread-roots + RS tasks.
				refreshLive()
				var work []ObjID
				for _, id := range live {
					if rng.Intn(3) == 0 {
						work = append(work, id)
					}
				}
				work = append(work, r.rsChildren()...)

				h.BeginMinorGC()
				r.marked = map[ObjID]bool{}
				for len(work) > 0 {
					id := work[0]
					work = work[1:]
					wantProm, wantFirst := r.copyYoung(id)
					_, gotProm, gotFirst := h.CopyYoung(id)
					if gotProm != wantProm || gotFirst != wantFirst {
						t.Fatalf("%s: CopyYoung(%d) = (%v,%v), reference (%v,%v)",
							step, id, gotProm, gotFirst, wantProm, wantFirst)
					}
					if wantFirst {
						for _, c := range r.objs[id].refs {
							if c != 0 {
								work = append(work, c)
							}
						}
					}
				}
				h.FinishMinorGC()
				r.finishMinor()
				compareState(t, step+"/minor", h, r)
			}

			majorGC := func(step string) {
				refreshLive()
				var work []ObjID
				for _, id := range live {
					if rng.Intn(2) == 0 {
						work = append(work, id)
					}
				}
				h.BeginMajorGC()
				r.marked = map[ObjID]bool{}
				for len(work) > 0 {
					id := work[0]
					work = work[1:]
					if !r.mark(id) {
						h.Mark(id)
						continue
					}
					if _, first := h.Mark(id); !first {
						t.Fatalf("%s: Mark(%d) not first visit, reference disagrees", step, id)
					}
					for _, c := range r.objs[id].refs {
						if _, ok := r.objs[c]; ok {
							work = append(work, c)
						}
					}
				}
				freedOld, liveOld := h.FinishMajorGC()
				wantFreed := r.finishMajor()
				if freedOld != wantFreed || liveOld != r.oldUsed {
					t.Fatalf("%s: FinishMajorGC = (%d,%d), reference (%d,%d)",
						step, freedOld, liveOld, wantFreed, r.oldUsed)
				}
				compareState(t, step+"/major", h, r)
			}

			// Forced refs-arena compaction between mutations: the arena
			// must shrink to exactly the live blocks, every live object's
			// Refs must read the same, and later allocations and block
			// growth must keep working on the compacted arena.
			compact := func(step string) {
				before := h.Stats.RefCompactions
				h.compactRefs()
				if h.Stats.RefCompactions != before+1 {
					t.Fatalf("%s: RefCompactions %d -> %d, want +1", step, before, h.Stats.RefCompactions)
				}
				want := 0
				for _, o := range r.objs {
					want += len(o.refs)
				}
				if len(h.refs) != want {
					t.Fatalf("%s: compacted arena holds %d slots, live refs %d", step, len(h.refs), want)
				}
				compareState(t, step+"/compact", h, r)
			}

			for round := 0; round < 60; round++ {
				step := fmt.Sprintf("round%d", round)
				for op := 0; op < 120; op++ {
					if op%40 == 39 {
						compact(fmt.Sprintf("%s/op%d", step, op))
					}
					refreshLive()
					switch k := rng.Intn(10); {
					case k < 5: // eden alloc
						size := int32(64 + rng.Intn(512))
						refs := randRefs()
						id, ok := h.Alloc(size, refs...)
						if !ok {
							minorGC(fmt.Sprintf("%s/op%d-allocfail", step, op))
							continue
						}
						r.alloc(id, size, refs)
					case k < 6: // old alloc
						size := int32(256 + rng.Intn(1024))
						refs := randRefs()
						id, ok := h.AllocOld(size, refs...)
						if !ok {
							majorGC(fmt.Sprintf("%s/op%d-oldfull", step, op))
							continue
						}
						r.allocOld(id, size, refs)
					case k < 8: // add a reference
						if len(live) == 0 {
							continue
						}
						p := live[rng.Intn(len(live))]
						c := live[rng.Intn(len(live))]
						h.AddRef(p, c)
						r.addRef(p, c)
					case k < 9: // overwrite a reference slot
						if len(live) == 0 {
							continue
						}
						p := live[rng.Intn(len(live))]
						if n := h.RefLen(p); n > 0 {
							c := live[rng.Intn(len(live))]
							i := rng.Intn(n)
							h.SetRef(p, i, c)
							r.setRef(p, i, c)
						}
					default: // drop references
						if len(live) == 0 {
							continue
						}
						p := live[rng.Intn(len(live))]
						if n := h.RefLen(p); n > 0 && rng.Intn(2) == 0 {
							keep := rng.Intn(n)
							h.TruncateRefs(p, keep)
							r.objs[p].refs = r.objs[p].refs[:keep]
						} else {
							h.ClearRefs(p)
							r.objs[p].refs = r.objs[p].refs[:0]
						}
					}
				}
				minorGC(step)
				if round%7 == 6 {
					majorGC(step)
				}
			}
		})
	}
}
