// Package heap implements a generational Java-style heap: an eden space,
// two survivor semispaces (from/to), and an old generation, with object
// ages, tenuring, a remembered set maintained by a write barrier, and the
// bookkeeping a scavenging collector needs (§2.1 of the paper).
//
// Object identity is stable: a "copy" during scavenging retags the object's
// space rather than moving bytes, so references never need rewriting. The
// collector still pays the copying *cost* (the cost model lives in package
// pscavenge); what matters for fidelity here is the reachability and
// promotion behaviour, which is real.
//
// Layout: the object table is one flat slice of packed per-object records
// indexed by ObjID, and outgoing references live in one shared arena
// addressed by (offset, length, capacity) triples rather than per-object Go
// slices. GC tracing therefore walks cache-linear memory, and — because the
// table holds no pointers — the *host* Go GC never scans the simulated
// heaps at all. See DESIGN.md §7.
package heap

import "fmt"

// ObjID identifies a heap object. 0 is the nil reference.
type ObjID int32

// Space tags which space an object currently lives in.
type Space uint8

const (
	// SpaceNone marks a free (dead) object slot.
	SpaceNone Space = iota
	// SpaceEden is the allocation space of the young generation.
	SpaceEden
	// SpaceFrom is the occupied survivor semispace.
	SpaceFrom
	// SpaceTo is the empty survivor semispace (only populated during GC).
	SpaceTo
	// SpaceOld is the old (tenured) generation.
	SpaceOld
)

func (s Space) String() string {
	switch s {
	case SpaceNone:
		return "free"
	case SpaceEden:
		return "eden"
	case SpaceFrom:
		return "from"
	case SpaceTo:
		return "to"
	case SpaceOld:
		return "old"
	}
	return fmt.Sprintf("Space(%d)", uint8(s))
}

// Config sizes the heap. All byte figures are model bytes.
type Config struct {
	EdenBytes     int64
	SurvivorBytes int64 // each survivor semispace
	OldBytes      int64
	TenureAge     uint8 // promote to old after surviving this many minor GCs
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.EdenBytes <= 0 || c.SurvivorBytes <= 0 || c.OldBytes <= 0 {
		return fmt.Errorf("heap: all space sizes must be positive: %+v", c)
	}
	if c.TenureAge == 0 {
		return fmt.Errorf("heap: TenureAge must be >= 1")
	}
	return nil
}

// Stats tracks cumulative heap activity.
type Stats struct {
	AllocatedObjects int64
	AllocatedBytes   int64
	PromotedObjects  int64
	PromotedBytes    int64
	SurvivedObjects  int64
	FreedYoungBytes  int64
	FreedOldBytes    int64
	BarrierHits      int64 // old→young pointer stores (remembered-set adds)
	RefCompactions   int64 // refs-arena compactions (GC-time housekeeping)
}

// objMeta is one object's packed record in the object table: identity
// fields, the visited mark, and the refs-arena reservation, sized to 24
// bytes so consecutive ObjIDs share cache lines.
type objMeta struct {
	size   int32
	mark   uint32
	refOff uint32
	refLen uint32
	refCap uint32
	age    uint8
	space  Space
	node   uint8 // NUMA node backing the object's memory
	inRS   bool  // old object registered in the remembered set
}

// Heap is a generational heap instance. It is not safe for concurrent use;
// within the simulation, GC threads interleave deterministically.
type Heap struct {
	cfg Config

	// Object table: index i holds object i's packed record. Slot 0 is the
	// nil object. The table holds no Go pointers, so the host GC skips it
	// entirely. One record per object (instead of nine parallel arrays)
	// means an allocation or a tracing visit touches one cache line, not
	// nine — the dominant memory-traffic saving of the Fig10 hot path.
	meta []objMeta

	// Outgoing references live in one shared arena: object i's refs are
	// refs[meta[i].refOff : +refLen], with refCap arena slots reserved.
	// Blocks are allocated at the arena tail and relocated (doubling) when
	// they outgrow their reservation; dead blocks are reclaimed by
	// compactRefs at GC boundaries.
	refs []ObjID

	refsLive int64   // sum of refLen over live objects (compaction trigger)
	refsBack []ObjID // spare buffer compactRefs packs live blocks into

	free []ObjID

	edenUsed, fromUsed, toUsed, oldUsed int64

	eden []ObjID // objects currently in eden
	from []ObjID // objects currently in the from-survivor space
	to   []ObjID // objects copied to the to-space during the current GC
	old  []ObjID // objects in the old generation

	remembered []ObjID // old objects that may hold young refs (dedup by InRS)

	allocNode uint8 // NUMA node tag for new allocations

	epoch     uint32
	inMinorGC bool

	Stats Stats
}

// New creates a heap.
func New(cfg Config) (*Heap, error) {
	return NewWith(cfg, nil)
}

// Scratch holds a retired heap's backing arrays (the object table, refs
// arena, free list, and per-space index slices) for reuse by a later
// NewWith. The object table and arena are the largest allocations of a
// simulation cell — millions of object records per run — so recycling them
// per worker is the bulk of the experiment runner's steady-state allocation
// savings. The zero value is ready to use.
type Scratch struct {
	meta []objMeta

	refs, refsBack []ObjID

	free []ObjID

	eden, from, to, old, remembered []ObjID
}

// NewWith creates a heap like New, adopting sc's backing arrays (sc may be
// nil). The scratch is emptied; reclaim the heap back into it with Reclaim
// once the run is over. Adopted storage differs from a cold start only in
// slice capacity, and object slots are fully reinitialized as they are
// handed out (see newObject), so runs are byte-identical with or without
// scratch.
func NewWith(cfg Config, sc *Scratch) (*Heap, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Heap{cfg: cfg}
	if sc != nil && cap(sc.meta) > 0 {
		h.meta = append(sc.meta[:0], objMeta{space: SpaceNone}) // slot 0 is the nil object
		h.refs, h.refsBack = sc.refs[:0], sc.refsBack[:0]
		h.free = sc.free[:0]
		h.eden, h.from, h.to = sc.eden[:0], sc.from[:0], sc.to[:0]
		h.old, h.remembered = sc.old[:0], sc.remembered[:0]
		*sc = Scratch{}
	} else {
		h.meta = make([]objMeta, 1, 1024)
	}
	return h, nil
}

// Reclaim harvests the heap's backing arrays into sc for a later NewWith.
// The heap is unusable afterwards. Everything is ObjIDs and scalars — no
// pointers — so truncation alone recycles the storage.
func (h *Heap) Reclaim(sc *Scratch) {
	*sc = Scratch{
		meta: h.meta[:0],
		refs: h.refs[:0], refsBack: h.refsBack[:0],
		free: h.free[:0],
		eden: h.eden[:0], from: h.from[:0], to: h.to[:0],
		old: h.old[:0], remembered: h.remembered[:0],
	}
	*h = Heap{cfg: h.cfg}
}

// Config returns the heap's configuration.
func (h *Heap) Config() Config { return h.cfg }

// SetConfig replaces the space sizes (used by adaptive resizing between
// GCs). Shrinking below current occupancy is rejected.
func (h *Heap) SetConfig(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.EdenBytes < h.edenUsed || cfg.SurvivorBytes < h.fromUsed || cfg.OldBytes < h.oldUsed {
		return fmt.Errorf("heap: cannot shrink below occupancy")
	}
	h.cfg = cfg
	return nil
}

// Usage returns current occupancy of eden, from-survivor and old spaces.
func (h *Heap) Usage() (eden, from, old int64) { return h.edenUsed, h.fromUsed, h.oldUsed }

// --- Per-object accessors --------------------------------------------------

// Refs returns object id's outgoing references as a view into the shared
// arena. The view is invalidated by any operation that can grow or compact
// the arena (Alloc, AllocOld, AddRef, FinishMinorGC, FinishMajorGC); don't
// hold it across those. In-place writes through the view are visible to the
// heap (TrimAnchor-style filtering relies on this).
func (h *Heap) Refs(id ObjID) []ObjID {
	m := &h.meta[id]
	return h.refs[m.refOff : m.refOff+m.refLen : m.refOff+m.refCap]
}

// RefLen returns the number of outgoing references of id without
// materializing the view.
func (h *Heap) RefLen(id ObjID) int { return int(h.meta[id].refLen) }

// SizeOf returns object id's size in model bytes.
func (h *Heap) SizeOf(id ObjID) int32 { return h.meta[id].size }

// AgeOf returns object id's age (minor GCs survived).
func (h *Heap) AgeOf(id ObjID) uint8 { return h.meta[id].age }

// SpaceOf returns the space object id currently lives in.
func (h *Heap) SpaceOf(id ObjID) Space { return h.meta[id].space }

// NodeOf returns the NUMA node whose memory backs object id.
func (h *Heap) NodeOf(id ObjID) uint8 { return h.meta[id].node }

// SetNode retags object id's backing NUMA node (a GC thread copying the
// object to its own node's memory).
func (h *Heap) SetNode(id ObjID, node uint8) { h.meta[id].node = node }

// InRS reports whether old object id is registered in the remembered set.
func (h *Heap) InRS(id ObjID) bool { return h.meta[id].inRS }

// LiveObjects returns the number of live (non-free) objects.
func (h *Heap) LiveObjects() int {
	return len(h.eden) + len(h.from) + len(h.to) + len(h.old)
}

// EdenFull reports whether an allocation of size bytes would overflow eden.
func (h *Heap) EdenFull(size int32) bool { return h.edenUsed+int64(size) > h.cfg.EdenBytes }

// OldOccupancy returns the old generation's fill fraction.
func (h *Heap) OldOccupancy() float64 { return float64(h.oldUsed) / float64(h.cfg.OldBytes) }

// SetAllocNode tags subsequent allocations with the NUMA node whose local
// memory backs them (first-touch policy: the allocating thread's node).
func (h *Heap) SetAllocNode(node int) {
	if node >= 0 && node < 256 {
		h.allocNode = uint8(node)
	}
}

// Alloc allocates a new object of the given size in eden, referencing refs.
// It returns false when eden is full (a minor GC is needed first).
func (h *Heap) Alloc(size int32, refs ...ObjID) (ObjID, bool) {
	if size <= 0 {
		panic("heap: Alloc with non-positive size")
	}
	if h.edenUsed+int64(size) > h.cfg.EdenBytes {
		return 0, false
	}
	id := h.newObject(size, SpaceEden)
	h.eden = append(h.eden, id)
	h.edenUsed += int64(size)
	h.initRefs(id, refs)
	return id, true
}

// AllocOld allocates directly in the old generation (humongous or cached
// data such as Spark RDD partitions). Returns false when old is full.
func (h *Heap) AllocOld(size int32, refs ...ObjID) (ObjID, bool) {
	if size <= 0 {
		panic("heap: AllocOld with non-positive size")
	}
	if h.oldUsed+int64(size) > h.cfg.OldBytes {
		return 0, false
	}
	id := h.newObject(size, SpaceOld)
	h.old = append(h.old, id)
	h.oldUsed += int64(size)
	h.initRefs(id, refs)
	for _, r := range refs {
		h.barrier(id, r)
	}
	return id, true
}

func (h *Heap) newObject(size int32, sp Space) ObjID {
	var id ObjID
	if n := len(h.free); n > 0 {
		// A recycled slot keeps its refs-arena reservation (refOff/refCap,
		// with refLen already zeroed by release) — the moral equivalent of
		// the old per-object Refs[:0] reuse.
		id = h.free[n-1]
		h.free = h.free[:n-1]
	} else {
		id = ObjID(len(h.meta))
		h.meta = append(h.meta, objMeta{})
	}
	rec := &h.meta[id]
	rec.size = size
	rec.age = 0
	rec.space = sp
	rec.node = h.allocNode
	rec.mark = 0
	rec.inRS = false
	h.Stats.AllocatedObjects++
	h.Stats.AllocatedBytes += int64(size)
	return id
}

// initRefs installs a fresh object's initial reference list.
func (h *Heap) initRefs(id ObjID, refs []ObjID) {
	n := uint32(len(refs))
	if n == 0 {
		return
	}
	if h.meta[id].refCap < n {
		h.growRefs(id, n)
	}
	m := &h.meta[id]
	copy(h.refs[m.refOff:m.refOff+n], refs)
	m.refLen = n
	h.refsLive += int64(n)
}

// growRefs relocates id's reference block to the arena tail with capacity
// at least need (amortized doubling). Existing refs are carried over.
func (h *Heap) growRefs(id ObjID, need uint32) {
	newCap := h.meta[id].refCap * 2
	if newCap < need {
		newCap = need
	}
	if newCap < 4 {
		newCap = 4
	}
	off := uint32(len(h.refs))
	total := int(off) + int(newCap)
	if total > cap(h.refs) {
		// append's growth (about 1.25x at arena sizes) rather than
		// doubling: compaction never shrinks the arena's capacity, so
		// doubling would leave up to half of it unused for the heap's
		// whole life.
		h.refs = append(h.refs, make([]ObjID, newCap)...)
	} else {
		h.refs = h.refs[:total]
	}
	if n := h.meta[id].refLen; n > 0 {
		copy(h.refs[off:off+n], h.refs[h.meta[id].refOff:h.meta[id].refOff+n])
	}
	h.meta[id].refOff, h.meta[id].refCap = off, newCap
}

// AddRef appends a reference from parent to child, applying the write
// barrier (old parent + young child → remembered set).
func (h *Heap) AddRef(parent, child ObjID) {
	if parent == 0 || child == 0 {
		return
	}
	h.appendRef(parent, child)
	h.barrier(parent, child)
}

func (h *Heap) appendRef(parent, child ObjID) {
	if h.meta[parent].refLen == h.meta[parent].refCap {
		h.growRefs(parent, h.meta[parent].refLen+1)
	}
	m := &h.meta[parent]
	h.refs[m.refOff+m.refLen] = child
	m.refLen++
	h.refsLive++
}

// AddRefUnsafe appends a reference without applying the write barrier. It
// exists so tests can corrupt the heap deliberately (VerifyHeap coverage);
// simulation code must use AddRef.
func (h *Heap) AddRefUnsafe(parent, child ObjID) { h.appendRef(parent, child) }

// SetRef overwrites reference slot i of parent, applying the write barrier.
func (h *Heap) SetRef(parent ObjID, i int, child ObjID) {
	if uint32(i) >= h.meta[parent].refLen {
		panic("heap: SetRef index out of range")
	}
	h.refs[h.meta[parent].refOff+uint32(i)] = child
	if child != 0 {
		h.barrier(parent, child)
	}
}

// ClearRefs drops all outgoing references of an object (e.g. a mutator
// releasing a transient data structure).
func (h *Heap) ClearRefs(id ObjID) {
	if id == 0 {
		return
	}
	h.refsLive -= int64(h.meta[id].refLen)
	h.meta[id].refLen = 0
}

// TruncateRefs keeps only the first n outgoing references of id. Callers
// that filter a Refs view in place finish with this (see
// objgraph.TrimAnchor).
func (h *Heap) TruncateRefs(id ObjID, n int) {
	if uint32(n) > h.meta[id].refLen {
		panic("heap: TruncateRefs beyond current length")
	}
	h.refsLive -= int64(h.meta[id].refLen) - int64(n)
	h.meta[id].refLen = uint32(n)
}

func (h *Heap) barrier(parent, child ObjID) {
	p := &h.meta[parent]
	if p.space != SpaceOld || p.inRS {
		return
	}
	if sp := h.meta[child].space; sp == SpaceEden || sp == SpaceFrom || sp == SpaceTo {
		p.inRS = true
		h.remembered = append(h.remembered, parent)
		h.Stats.BarrierHits++
	}
}

// RememberedSet returns the old objects registered as possibly holding
// young references, in deterministic (insertion) order.
func (h *Heap) RememberedSet() []ObjID { return h.remembered }

// AgeTable returns survivor-space bytes by object age (index = age), the
// input to HotSpot's adaptive tenuring-threshold computation.
func (h *Heap) AgeTable() []int64 {
	table := make([]int64, 16)
	for _, id := range h.from {
		age := int(h.meta[id].age)
		if age > 15 {
			age = 15
		}
		table[age] += int64(h.meta[id].size)
	}
	return table
}

// young reports whether an object currently lives in the young generation.
func (h *Heap) young(id ObjID) bool {
	sp := h.meta[id].space
	return sp == SpaceEden || sp == SpaceFrom
}

// --- Minor (scavenge) GC support -----------------------------------------

// BeginMinorGC starts a scavenge cycle: a fresh visited epoch and an empty
// to-space. Collector threads then call CopyYoung on reachable objects.
func (h *Heap) BeginMinorGC() {
	if h.inMinorGC {
		panic("heap: nested BeginMinorGC")
	}
	h.inMinorGC = true
	h.epoch++
	h.to = h.to[:0]
	h.toUsed = 0
}

// Visited reports whether id was already processed in this GC cycle.
func (h *Heap) Visited(id ObjID) bool { return h.meta[id].mark == h.epoch }

// CopyYoung processes one young object during a scavenge: it "copies" the
// object to the to-space (incrementing its age) or promotes it to the old
// generation when it has reached tenure age or the to-space is full. It
// returns the object's size (the copy cost driver), whether the object was
// promoted, and whether this call was the first visit.
func (h *Heap) CopyYoung(id ObjID) (size int32, promoted, first bool) {
	if !h.inMinorGC {
		panic("heap: CopyYoung outside a minor GC")
	}
	m := &h.meta[id]
	if m.mark == h.epoch {
		return m.size, m.space == SpaceOld, false
	}
	if sp := m.space; sp != SpaceEden && sp != SpaceFrom {
		// Old (or already-moved) objects are not scavenged.
		m.mark = h.epoch
		return m.size, sp == SpaceOld, false
	}
	m.mark = h.epoch
	sz := int64(m.size)
	if m.age+1 >= h.cfg.TenureAge || h.toUsed+sz > h.cfg.SurvivorBytes {
		// Promote. The old generation may transiently overflow; the
		// caller watches OldOccupancy and schedules a major GC.
		m.space = SpaceOld
		m.age = 0
		h.old = append(h.old, id)
		h.oldUsed += sz
		h.Stats.PromotedObjects++
		h.Stats.PromotedBytes += sz
		// A promoted object with young children must enter the RS.
		off, n := m.refOff, m.refLen
		for _, r := range h.refs[off : off+n] {
			if r != 0 {
				h.barrier(id, r)
			}
		}
		return m.size, true, true
	}
	m.space = SpaceTo
	m.age++
	h.to = append(h.to, id)
	h.toUsed += sz
	h.Stats.SurvivedObjects++
	return m.size, false, true
}

// FinishMinorGC sweeps eden and the from-space (everything unvisited is
// garbage), swaps the survivor semispaces, and prunes the remembered set.
// It returns the number of bytes freed.
func (h *Heap) FinishMinorGC() int64 {
	if !h.inMinorGC {
		panic("heap: FinishMinorGC without BeginMinorGC")
	}
	var freed int64
	for _, id := range h.eden {
		if m := &h.meta[id]; m.space == SpaceEden {
			freed += int64(m.size)
			h.release(id)
		}
	}
	for _, id := range h.from {
		if m := &h.meta[id]; m.space == SpaceFrom {
			freed += int64(m.size)
			h.release(id)
		}
	}
	h.eden = h.eden[:0]
	h.edenUsed = 0
	// Swap semispaces: to becomes from.
	for _, id := range h.to {
		h.meta[id].space = SpaceFrom
	}
	h.from, h.to = h.to, h.from[:0]
	h.fromUsed = h.toUsed
	h.toUsed = 0
	h.Stats.FreedYoungBytes += freed
	h.pruneRememberedSet()
	h.inMinorGC = false
	h.maybeCompactRefs()
	return freed
}

// pruneRememberedSet drops RS entries that died or no longer reference the
// young generation.
func (h *Heap) pruneRememberedSet() {
	live := h.remembered[:0]
	for _, id := range h.remembered {
		m := &h.meta[id]
		if m.space != SpaceOld {
			m.inRS = false
			continue
		}
		keep := false
		off, n := m.refOff, m.refLen
		for _, r := range h.refs[off : off+n] {
			if r != 0 && h.young(r) {
				keep = true
				break
			}
		}
		if keep {
			live = append(live, id)
		} else {
			m.inRS = false
		}
	}
	h.remembered = live
}

// --- Refs-arena compaction -------------------------------------------------

// maybeCompactRefs compacts the shared refs arena when dead and
// over-reserved blocks dominate it. It runs only at GC boundaries — a
// deterministic point where no Refs views are outstanding — so arena
// housekeeping is invisible to the simulation.
func (h *Heap) maybeCompactRefs() {
	if int64(len(h.refs)) > 4*h.refsLive+4096 {
		h.compactRefs()
	}
}

// compactRefs rewrites every live object's reference block contiguously:
// it packs them into the spare buffer, then copies the packed blocks back
// to the start of the arena, so block offsets are those of the packed
// layout. Reservations shrink to the live length; free slots lose their
// (now dangling) reservations. Copying back instead of swapping keeps the
// spare at the size of the live refs (at most a quarter of the arena,
// given the trigger) instead of a second arena-sized buffer.
func (h *Heap) compactRefs() {
	dst := h.refsBack[:0]
	for _, list := range [][]ObjID{h.eden, h.from, h.to, h.old} {
		for _, id := range list {
			n := h.meta[id].refLen
			if n == 0 {
				h.meta[id].refOff, h.meta[id].refCap = 0, 0
				continue
			}
			off := h.meta[id].refOff
			newOff := uint32(len(dst))
			dst = append(dst, h.refs[off:off+n]...)
			h.meta[id].refOff, h.meta[id].refCap = newOff, n
		}
	}
	for _, id := range h.free {
		h.meta[id].refOff, h.meta[id].refLen, h.meta[id].refCap = 0, 0, 0
	}
	h.refs = h.refs[:copy(h.refs, dst)]
	h.refsBack = dst[:0]
	h.Stats.RefCompactions++
}

// --- Major (full) GC support ----------------------------------------------

// BeginMajorGC starts a full-heap mark cycle with a fresh epoch.
func (h *Heap) BeginMajorGC() {
	h.epoch++
}

// Mark marks one object live in the major GC, returning (size, first visit).
func (h *Heap) Mark(id ObjID) (int32, bool) {
	m := &h.meta[id]
	if m.mark == h.epoch {
		return m.size, false
	}
	m.mark = h.epoch
	return m.size, true
}

// FinishMajorGC sweeps every unmarked object in all spaces (a full GC in
// Parallel Scavenge collects the whole heap) and returns (bytes freed from
// old, live bytes in old) — the inputs to the compaction cost model.
func (h *Heap) FinishMajorGC() (freedOld, liveOld int64) {
	sweep := func(list []ObjID, used *int64, freed *int64) []ObjID {
		out := list[:0]
		for _, id := range list {
			m := &h.meta[id]
			if m.mark == h.epoch {
				out = append(out, id)
				continue
			}
			*used -= int64(m.size)
			*freed += int64(m.size)
			h.release(id)
		}
		return out
	}
	var freedYoung int64
	h.eden = sweep(h.eden, &h.edenUsed, &freedYoung)
	h.from = sweep(h.from, &h.fromUsed, &freedYoung)
	h.old = sweep(h.old, &h.oldUsed, &freedOld)
	h.Stats.FreedYoungBytes += freedYoung
	h.Stats.FreedOldBytes += freedOld
	h.pruneRememberedSet()
	h.maybeCompactRefs()
	return freedOld, h.oldUsed
}

func (h *Heap) release(id ObjID) {
	m := &h.meta[id]
	m.space = SpaceNone
	m.age = 0
	m.inRS = false
	h.refsLive -= int64(m.refLen)
	m.refLen = 0
	h.free = append(h.free, id)
}

// --- Verification helpers (used by tests as an oracle) ---------------------

// ReachableFrom returns the set of objects reachable from the given roots,
// as a map. It is the sequential oracle the parallel collector is checked
// against.
func (h *Heap) ReachableFrom(roots []ObjID) map[ObjID]bool {
	seen := make(map[ObjID]bool)
	stack := make([]ObjID, 0, len(roots))
	for _, r := range roots {
		if r != 0 && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, r := range h.Refs(id) {
			if r != 0 && !seen[r] {
				seen[r] = true
				stack = append(stack, r)
			}
		}
	}
	return seen
}

// CheckInvariants verifies internal accounting; tests call it after
// operations. It returns an error describing the first violation.
func (h *Heap) CheckInvariants() error {
	var eden, from, to, old int64
	var count [SpaceOld + 1]int // objects per space
	for id := 1; id < len(h.meta); id++ {
		count[h.meta[id].space]++
		switch h.meta[id].space {
		case SpaceEden:
			eden += int64(h.meta[id].size)
		case SpaceFrom:
			from += int64(h.meta[id].size)
		case SpaceTo:
			to += int64(h.meta[id].size)
		case SpaceOld:
			old += int64(h.meta[id].size)
		}
	}
	if eden != h.edenUsed {
		return fmt.Errorf("edenUsed=%d but objects sum to %d", h.edenUsed, eden)
	}
	if from != h.fromUsed {
		return fmt.Errorf("fromUsed=%d but objects sum to %d", h.fromUsed, from)
	}
	if to != h.toUsed {
		return fmt.Errorf("toUsed=%d but objects sum to %d", h.toUsed, to)
	}
	if old != h.oldUsed {
		return fmt.Errorf("oldUsed=%d but objects sum to %d", h.oldUsed, old)
	}
	if count[SpaceEden] != len(h.eden) {
		return fmt.Errorf("eden list has %d entries, %d objects tagged eden", len(h.eden), count[SpaceEden])
	}
	if count[SpaceOld] != len(h.old) {
		return fmt.Errorf("old list has %d entries, %d objects tagged old", len(h.old), count[SpaceOld])
	}
	// Remembered-set completeness: every old→young edge is covered.
	for id := 1; id < len(h.meta); id++ {
		if h.meta[id].space != SpaceOld {
			continue
		}
		for _, r := range h.Refs(ObjID(id)) {
			if r != 0 && h.young(r) && !h.meta[id].inRS {
				return fmt.Errorf("old object %d references young %d but is not in RS", id, r)
			}
		}
	}
	// Refs-arena block accounting: live lengths sum to refsLive, and no
	// block escapes the arena.
	var live int64
	for id := 1; id < len(h.meta); id++ {
		if h.meta[id].space != SpaceNone {
			live += int64(h.meta[id].refLen)
		}
		if h.meta[id].refLen > h.meta[id].refCap {
			return fmt.Errorf("object %d refLen %d > refCap %d", id, h.meta[id].refLen, h.meta[id].refCap)
		}
		if int(h.meta[id].refOff)+int(h.meta[id].refCap) > len(h.refs) {
			return fmt.Errorf("object %d refs block [%d,+%d) escapes arena of %d", id, h.meta[id].refOff, h.meta[id].refCap, len(h.refs))
		}
	}
	if live != h.refsLive {
		return fmt.Errorf("refsLive=%d but live blocks sum to %d", h.refsLive, live)
	}
	return nil
}
