package pscavenge

import (
	"math/rand"
	"testing"

	"repro/internal/cfs"
	"repro/internal/heap"
	"repro/internal/jmutex"
	"repro/internal/objgraph"
	"repro/internal/ostopo"
	"repro/internal/simkit"
	"repro/internal/taskq"
)

const (
	us = simkit.Microsecond
	ms = simkit.Millisecond
)

// rig is a test harness: kernel + heap + filled object graph + engine.
type rig struct {
	sim  *simkit.Sim
	k    *cfs.Kernel
	h    *heap.Heap
	g    *Engine
	muts []*objgraph.Mutator
}

func newRig(t *testing.T, seed int64, opt Options, nmut int) *rig {
	t.Helper()
	sim := simkit.New(seed)
	t.Cleanup(sim.Close)
	// The GC engine must never schedule into the past (see Sim.Clamped).
	t.Cleanup(func() {
		if n := sim.Clamped(); n != 0 {
			t.Errorf("simulation clamped %d past-scheduled events, want 0", n)
		}
	})
	k := cfs.NewKernel(sim, ostopo.PaperTestbed(), cfs.DefaultParams())
	h, err := heap.New(heap.Config{
		EdenBytes: 1 << 20, SurvivorBytes: 1 << 18, OldBytes: 1 << 22, TenureAge: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{sim: sim, k: k, h: h}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nmut; i++ {
		m, err := objgraph.NewMutator(i, h, objgraph.DefaultParams(), rng)
		if err != nil {
			t.Fatal(err)
		}
		r.muts = append(r.muts, m)
	}
	r.g = New(k, h, opt)
	return r
}

// fillEden allocates clusters until eden is (nearly) full.
func (r *rig) fillEden(t *testing.T) {
	t.Helper()
	for i := 0; ; i = (i + 1) % len(r.muts) {
		if _, ok := r.muts[i].AllocCluster(); !ok {
			return
		}
	}
}

// roots builds the minor-GC root set from the mutators.
func (r *rig) roots() RootSet {
	rs := RootSet{}
	for _, m := range r.muts {
		rs.ThreadRoots = append(rs.ThreadRoots, m.Roots())
	}
	return rs
}

// oracleRoots returns roots for reachability checking: thread roots plus
// remembered-set entries (the anchors reach young objects only through RS).
func (r *rig) oracleRoots() []heap.ObjID {
	var roots []heap.ObjID
	for _, m := range r.muts {
		roots = append(roots, m.Roots()...)
	}
	roots = append(roots, r.h.RememberedSet()...)
	return roots
}

// runVM spawns a VM thread executing fn and drains the simulation.
func (r *rig) runVM(t *testing.T, fn func(e *cfs.Env)) {
	t.Helper()
	done := false
	vm := r.k.Spawn("VMThread", 19, func(e *cfs.Env) {
		fn(e)
		r.g.Shutdown(e)
		done = true
	})
	_ = vm
	for !done && r.sim.Now() < 60*simkit.Second {
		if !r.sim.Step() {
			break
		}
	}
	if !done {
		t.Fatalf("VM thread did not finish by %v", r.sim.Now())
	}
	// Workers must exit after shutdown; step until they do (bounded).
	workersDone := func() bool {
		for _, w := range r.g.Workers() {
			if w.State() != cfs.StateDone {
				return false
			}
		}
		return true
	}
	for i := 0; i < 500_000 && !workersDone() && r.sim.Step(); i++ {
	}
	for _, w := range r.g.Workers() {
		if w.State() != cfs.StateDone {
			t.Fatalf("GC worker %s stuck in %v after shutdown", w.Name, w.State())
		}
	}
	// Stop recurring balance timers so the event queue can drain fully.
	r.k.Shutdown()
	for r.sim.Step() {
	}
}

func TestDefaultGCThreadsHeuristic(t *testing.T) {
	cases := map[int]int{1: 1, 4: 4, 8: 8, 16: 13, 20: 15, 40: 28}
	for ncpus, want := range cases {
		if got := DefaultGCThreads(ncpus); got != want {
			t.Errorf("DefaultGCThreads(%d) = %d, want %d", ncpus, got, want)
		}
	}
}

func TestMinorGCPreservesOracleLiveSet(t *testing.T) {
	r := newRig(t, 1, Options{}, 8)
	r.fillEden(t)
	wantLive := r.h.ReachableFrom(r.oracleRoots())
	roots := r.roots()
	var rep *GCReport
	r.runVM(t, func(e *cfs.Env) {
		rep = r.g.RunMinorGC(e, roots)
	})
	if rep == nil {
		t.Fatal("no report")
	}
	// Every oracle-live young object must still exist (from-space or
	// promoted); eden must be empty.
	for id := range wantLive {
		sp := r.h.SpaceOf(id)
		if sp == heap.SpaceNone || sp == heap.SpaceEden {
			t.Fatalf("live object %d lost (space %v)", id, sp)
		}
	}
	edenUsed, _, _ := r.h.Usage()
	if edenUsed != 0 {
		t.Errorf("eden not empty after minor GC: %d bytes", edenUsed)
	}
	if err := r.h.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if rep.FreedBytes <= 0 {
		t.Error("no garbage freed — workload must generate garbage")
	}
	if rep.CopiedObjects <= 0 {
		t.Error("nothing copied")
	}
}

func TestMinorGCReportStructure(t *testing.T) {
	r := newRig(t, 2, Options{}, 8)
	r.fillEden(t)
	roots := r.roots()
	var rep *GCReport
	r.runVM(t, func(e *cfs.Env) { rep = r.g.RunMinorGC(e, roots) })
	if rep.Pause() <= 0 {
		t.Error("non-positive pause")
	}
	if rep.InitTime <= 0 || rep.FinalSyncTime <= 0 {
		t.Errorf("init=%v final=%v, want positive", rep.InitTime, rep.FinalSyncTime)
	}
	if rep.RootTaskTime <= 0 {
		t.Error("no root task time recorded")
	}
	if rep.StealWorkTime+rep.TerminationTime <= 0 {
		t.Error("no steal/termination time recorded")
	}
	// Steal tasks: exactly one per GC thread was enqueued and executed.
	stealCount := 0
	for _, row := range rep.TasksByThread {
		stealCount += row[TaskSteal]
	}
	if stealCount != r.g.Threads() {
		t.Errorf("%d StealTasks executed, want %d", stealCount, r.g.Threads())
	}
	if rep.StealAttempts <= 0 {
		t.Error("no steal attempts")
	}
	if rep.CoresUsed() < 1 {
		t.Error("CoresUsed < 1")
	}
}

func TestEachWorkerRunsExactlyOneStealTask(t *testing.T) {
	r := newRig(t, 3, Options{}, 6)
	r.fillEden(t)
	roots := r.roots()
	var rep *GCReport
	r.runVM(t, func(e *cfs.Env) { rep = r.g.RunMinorGC(e, roots) })
	for w, row := range rep.TasksByThread {
		if row[TaskSteal] != 1 {
			t.Errorf("worker %d executed %d StealTasks, want exactly 1", w, row[TaskSteal])
		}
	}
}

func TestMajorGCCollectsOldGarbage(t *testing.T) {
	r := newRig(t, 4, Options{}, 6)
	// Run several fill+minor cycles to tenure data, then cut anchors.
	for cycle := 0; cycle < 6; cycle++ {
		r.fillEden(t)
		roots := r.roots()
		done := false
		vm := r.k.Spawn("VM", 19, func(e *cfs.Env) {
			r.g.RunMinorGC(e, roots)
			done = true
		})
		_ = vm
		for !done && r.sim.Step() {
		}
	}
	_, _, oldBefore := r.h.Usage()
	if oldBefore == 0 {
		t.Fatal("nothing tenured; test needs old-generation data")
	}
	// Cut most anchor references: tenured data becomes garbage.
	for _, m := range r.muts {
		m.TrimAnchor(0.9)
	}
	var rep *GCReport
	majorRoots := RootSet{}
	for _, m := range r.muts {
		majorRoots.ThreadRoots = append(majorRoots.ThreadRoots, m.Roots())
		majorRoots.StaticRoots = append(majorRoots.StaticRoots, m.Anchor())
	}
	r.runVM(t, func(e *cfs.Env) { rep = r.g.RunMajorGC(e, majorRoots) })
	if rep.Kind != Major {
		t.Error("report kind not major")
	}
	if rep.FreedBytes <= 0 {
		t.Errorf("major GC freed %d bytes, want > 0", rep.FreedBytes)
	}
	_, _, oldAfter := r.h.Usage()
	if oldAfter >= oldBefore {
		t.Errorf("old gen %d -> %d: no reclamation", oldBefore, oldAfter)
	}
	// Anchors must survive.
	for _, m := range r.muts {
		if r.h.SpaceOf(m.Anchor()) != heap.SpaceOld {
			t.Error("anchor lost by major GC")
		}
	}
	if err := r.h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAllMutexPoliciesComplete(t *testing.T) {
	for _, pol := range []jmutex.Policy{
		jmutex.PolicyHotSpot, jmutex.PolicyFairFIFO, jmutex.PolicyNoFastPath, jmutex.PolicyWakeAll,
	} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			r := newRig(t, 5, Options{MutexPolicy: pol}, 4)
			r.fillEden(t)
			roots := r.roots()
			var rep *GCReport
			r.runVM(t, func(e *cfs.Env) { rep = r.g.RunMinorGC(e, roots) })
			if rep == nil || rep.CopiedObjects == 0 {
				t.Fatal("GC did not complete properly")
			}
		})
	}
}

func TestAllStealPoliciesComplete(t *testing.T) {
	nodeOf := make([]int, 15)
	for i := range nodeOf {
		nodeOf[i] = i % 2
	}
	for _, kind := range []taskq.PolicyKind{
		taskq.KindBestOf2, taskq.KindSemiRandom, taskq.KindNUMARestricted, taskq.KindSmartStealing,
	} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			opt := Options{StealKind: kind}
			if kind == taskq.KindNUMARestricted {
				opt.NodeOf = nodeOf
			}
			r := newRig(t, 6, opt, 4)
			r.fillEden(t)
			roots := r.roots()
			var rep *GCReport
			r.runVM(t, func(e *cfs.Env) { rep = r.g.RunMinorGC(e, roots) })
			if rep == nil || rep.CopiedObjects == 0 {
				t.Fatal("GC did not complete")
			}
		})
	}
}

func TestFastTerminatorReducesStealFailures(t *testing.T) {
	run := func(fast bool) int64 {
		r := newRig(t, 7, Options{FastTerminator: fast}, 6)
		r.fillEden(t)
		roots := r.roots()
		var rep *GCReport
		r.runVM(t, func(e *cfs.Env) { rep = r.g.RunMinorGC(e, roots) })
		return rep.StealFailures
	}
	std := run(false)
	fst := run(true)
	if fst >= std {
		t.Errorf("fast terminator failures %d >= standard %d", fst, std)
	}
}

func TestAffinityHooksInvoked(t *testing.T) {
	started := map[int]bool{}
	woke := map[int]bool{}
	opt := Options{
		OnWorkerStart: func(e *cfs.Env, w int) { started[w] = true },
		OnGCWake:      func(e *cfs.Env, w int) { woke[w] = true },
	}
	r := newRig(t, 8, opt, 6)
	r.fillEden(t)
	roots := r.roots()
	r.runVM(t, func(e *cfs.Env) { r.g.RunMinorGC(e, roots) })
	if len(started) != r.g.Threads() {
		t.Errorf("OnWorkerStart called for %d workers, want %d", len(started), r.g.Threads())
	}
	if len(woke) != r.g.Threads() {
		t.Errorf("OnGCWake called for %d workers, want %d", len(woke), r.g.Threads())
	}
}

func TestStaticBindingImprovesDistribution(t *testing.T) {
	run := func(bind bool) (*GCReport, int) {
		opt := Options{}
		if bind {
			opt.OnWorkerStart = func(e *cfs.Env, w int) {
				e.SetAffinity(ostopo.CoreID(w % 20))
			}
			opt.TaskAffinity = true
		}
		r := newRig(t, 9, opt, 8)
		r.fillEden(t)
		roots := r.roots()
		var rep *GCReport
		r.runVM(t, func(e *cfs.Env) { rep = r.g.RunMinorGC(e, roots) })
		return rep, rep.CoresUsed()
	}
	_, coresVanilla := run(false)
	repBound, coresBound := run(true)
	if coresBound <= coresVanilla {
		t.Errorf("binding did not increase cores used: %d vs %d", coresBound, coresVanilla)
	}
	if repBound.RootTaskSpread() < 4 {
		t.Errorf("with task affinity only %d threads ran root tasks", repBound.RootTaskSpread())
	}
}

func TestVanillaGCStacksThreads(t *testing.T) {
	// The headline pathology: on an idle 20-core machine, a vanilla minor
	// GC exercises only a few cores.
	r := newRig(t, 10, Options{}, 8)
	r.fillEden(t)
	roots := r.roots()
	var rep *GCReport
	r.runVM(t, func(e *cfs.Env) { rep = r.g.RunMinorGC(e, roots) })
	if rep.CoresUsed() > 6 {
		t.Errorf("vanilla GC used %d cores; expected heavy stacking (few cores)", rep.CoresUsed())
	}
	if rep.RootTaskSpread() > 6 {
		t.Errorf("root tasks spread over %d threads; expected concentration", rep.RootTaskSpread())
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (simkit.Time, int64, int64) {
		r := newRig(t, 11, Options{}, 6)
		r.fillEden(t)
		roots := r.roots()
		var rep *GCReport
		r.runVM(t, func(e *cfs.Env) { rep = r.g.RunMinorGC(e, roots) })
		return rep.Pause(), rep.StealAttempts, rep.CopiedBytes
	}
	p1, a1, c1 := run()
	p2, a2, c2 := run()
	if p1 != p2 || a1 != a2 || c1 != c2 {
		t.Errorf("non-deterministic GC: (%v,%d,%d) vs (%v,%d,%d)", p1, a1, c1, p2, a2, c2)
	}
}

func TestAggregateReports(t *testing.T) {
	reports := []*GCReport{
		{Kind: Minor, Start: 0, End: 10 * ms, StealAttempts: 5, StealFailures: 2, CopiedObjects: 3, PromotedObjects: 1},
		{Kind: Major, Start: 20 * ms, End: 50 * ms, StealAttempts: 7, StealFailures: 7, CopiedObjects: 4, PromotedObjects: 2},
	}
	all := Aggregate(reports, GCKind(-1))
	if all.Count != 2 || all.TotalPause != 40*ms || all.StealAttempts != 12 ||
		all.CopiedObjects != 7 || all.PromotedObjects != 3 {
		t.Errorf("Aggregate(all) = %+v", all)
	}
	minor := Aggregate(reports, Minor)
	if minor.Count != 1 || minor.TotalPause != 10*ms {
		t.Errorf("Aggregate(minor) = %+v", minor)
	}
}

func TestTaskKindStrings(t *testing.T) {
	kinds := []TaskKind{TaskOldToYoungRoots, TaskScavengeRoots, TaskThreadRoots, TaskSteal, TaskMarkRoots, TaskMarkSteal, TaskCompact}
	for _, k := range kinds {
		if k.String() == "?" {
			t.Errorf("kind %d has no name", int(k))
		}
	}
	if Minor.String() != "minor" || Major.String() != "major" {
		t.Error("GCKind strings wrong")
	}
}

func TestPartition(t *testing.T) {
	ids := make([]heap.ObjID, 10)
	for i := range ids {
		ids[i] = heap.ObjID(i + 1)
	}
	parts := partition(ids, 3)
	if len(parts) != 3 {
		t.Fatalf("partition into %d parts, want 3", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total != 10 {
		t.Errorf("partition lost elements: %d of 10", total)
	}
	if partition(nil, 3) != nil {
		t.Error("partition(nil) != nil")
	}
	if got := partition(ids[:2], 5); len(got) != 2 {
		t.Errorf("partition of 2 into 5 = %d parts, want 2", len(got))
	}
}

func TestAdaptiveSizing(t *testing.T) {
	opt := Options{AdaptiveSizing: true}
	r := newRig(t, 12, opt, 6)
	before := r.h.Config().EdenBytes
	r.fillEden(t)
	roots := r.roots()
	r.runVM(t, func(e *cfs.Env) { r.g.RunMinorGC(e, roots) })
	after := r.h.Config().EdenBytes
	if after == 0 {
		t.Fatal("config lost")
	}
	// Either direction is fine; it must stay within policy bounds.
	if after > 2*before || after < before/2 {
		t.Errorf("resize out of bounds: %d -> %d", before, after)
	}
}

func TestNUMAModelChargesRemoteAccesses(t *testing.T) {
	// With the NUMA model on, tracing must classify accesses and cost more
	// overall than the uniform-memory run of the same workload.
	run := func(numa bool) (*GCReport, simkit.Time) {
		opt := Options{}
		if numa {
			opt.NUMA = &NUMAModel{Topo: ostopo.PaperTestbed(), RemoteFactor: 2.0}
		}
		r := newRig(t, 21, opt, 8)
		// Home all objects on node 1 so the (stacked, node-0) GC threads
		// must reach across the interconnect.
		r.h.SetAllocNode(1)
		r.fillEden(t)
		roots := r.roots()
		var rep *GCReport
		r.runVM(t, func(e *cfs.Env) { rep = r.g.RunMinorGC(e, roots) })
		return rep, rep.Pause()
	}
	uni, uniPause := run(false)
	num, numPause := run(true)
	if uni.RemoteAccesses != 0 || uni.LocalAccesses != 0 {
		t.Error("uniform-memory run classified accesses")
	}
	if num.RemoteAccesses == 0 {
		t.Fatal("NUMA run recorded no remote accesses")
	}
	if num.RemoteAccessRatio() < 0.5 {
		t.Errorf("remote ratio %.2f; objects homed remotely should dominate", num.RemoteAccessRatio())
	}
	if numPause <= uniPause {
		t.Errorf("NUMA pause %v not above uniform pause %v despite 2x remote cost", numPause, uniPause)
	}
}

func TestNUMACopyRehomesObjects(t *testing.T) {
	opt := Options{NUMA: &NUMAModel{Topo: ostopo.PaperTestbed(), RemoteFactor: 1.5}}
	r := newRig(t, 22, opt, 4)
	r.h.SetAllocNode(1)
	r.fillEden(t)
	roots := r.roots()
	r.runVM(t, func(e *cfs.Env) { r.g.RunMinorGC(e, roots) })
	// Survivors were copied by node-0-resident GC threads (spawn core 0):
	// at least some must have been rehomed to node 0.
	rehomed := 0
	for _, m := range r.muts {
		for _, id := range m.Roots() {
			if r.h.SpaceOf(id) != heap.SpaceNone && r.h.NodeOf(id) == 0 {
				rehomed++
			}
		}
	}
	if rehomed == 0 {
		t.Error("no surviving object was rehomed to the copying thread's node")
	}
}

func TestVerifyHeapPanicsOnCorruption(t *testing.T) {
	r := newRig(t, 23, Options{VerifyHeap: true}, 4)
	r.fillEden(t)
	roots := r.roots()
	var recovered any
	done := false
	r.k.Spawn("VM", 19, func(e *cfs.Env) {
		defer func() {
			recovered = recover()
			done = true
		}()
		// Corrupt the heap behind the collector's back: an old object with
		// a young reference but no remembered-set entry. The target is a
		// rooted young object so it survives the collection young.
		oldObj, ok := r.h.AllocOld(64)
		if !ok {
			t.Error("AllocOld failed")
		}
		young := r.muts[0].Roots()[0]
		r.h.AddRefUnsafe(oldObj, young) // bypasses the barrier
		r.g.RunMinorGC(e, roots)
	})
	for !done && r.sim.Step() {
	}
	if recovered == nil {
		t.Error("VerifyHeap did not catch a remembered-set violation")
	}
}

func TestTaskAffinityPreferredDequeue(t *testing.T) {
	// With task affinity on, get_task must hand a worker its own task when
	// one is queued, in queue order otherwise.
	r := newRig(t, 24, Options{TaskAffinity: true, Threads: 4}, 4)
	m := r.g.mgr
	mkTask := func(aff int) *GCTask {
		return &GCTask{Kind: TaskScavengeRoots, Affinity: aff}
	}
	m.queue = []*GCTask{mkTask(2), mkTask(1), mkTask(-1)}
	if got := m.dequeue(1); got.Affinity != 1 {
		t.Errorf("worker 1 got task with affinity %d, want 1", got.Affinity)
	}
	if got := m.dequeue(3); got.Affinity != 2 {
		t.Errorf("worker 3 (no matching task) got affinity %d, want head task (2)", got.Affinity)
	}
	// Without task affinity, strictly FIFO.
	m.taskAffinity = false
	m.queue = []*GCTask{mkTask(2), mkTask(1)}
	if got := m.dequeue(1); got.Affinity != 2 {
		t.Errorf("FIFO dequeue returned affinity %d, want head (2)", got.Affinity)
	}
}

func TestMinorTasksCarryAffinityRoundRobin(t *testing.T) {
	r := newRig(t, 25, Options{TaskAffinity: true, Threads: 5}, 6)
	r.fillEden(t)
	rep := newGCReport(Minor, 1, 5, 20, 0)
	tasks, _ := r.g.buildMinorTasks(r.roots(), rep)
	seen := map[int]bool{}
	for _, task := range tasks {
		switch task.Kind {
		case TaskSteal:
			if task.Affinity != -1 {
				t.Error("steal tasks must not carry affinity")
			}
		default:
			seen[task.Affinity] = true
		}
	}
	for w := 0; w < 5; w++ {
		if !seen[w] {
			t.Errorf("no root task assigned affinity %d (round-robin incomplete)", w)
		}
	}
}

func TestAdaptiveTenuringRespondsToSurvivorPressure(t *testing.T) {
	// Heavy survivor occupancy must lower the tenuring threshold (promote
	// earlier); light occupancy must keep it high.
	mk := func(retainedClusters int) uint8 {
		sim := simkit.New(26)
		defer sim.Close()
		k := cfs.NewKernel(sim, ostopo.PaperTestbed(), cfs.DefaultParams())
		h, err := heap.New(heap.Config{
			EdenBytes: 1 << 20, SurvivorBytes: 64 << 10, OldBytes: 1 << 22, TenureAge: 15,
		})
		if err != nil {
			t.Fatal(err)
		}
		gp := objgraph.DefaultParams()
		gp.StackWindow = retainedClusters
		gp.RetainWindow = retainedClusters
		gp.RetainProb = 0
		m, err := objgraph.NewMutator(0, h, gp, rand.New(rand.NewSource(26)))
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, ok := m.AllocCluster(); !ok {
				break
			}
		}
		g := New(k, h, Options{AdaptiveSizing: true})
		done := false
		k.Spawn("VM", 19, func(e *cfs.Env) {
			g.RunMinorGC(e, RootSet{ThreadRoots: [][]heap.ObjID{m.Roots()}})
			g.Shutdown(e)
			done = true
		})
		for !done && sim.Step() {
		}
		return h.Config().TenureAge
	}
	heavy := mk(64) // survivors overflow half the survivor space
	light := mk(2)  // tiny live set
	if heavy >= light {
		t.Errorf("tenuring threshold: heavy survival %d >= light survival %d; want earlier tenuring under pressure", heavy, light)
	}
	if light < 10 {
		t.Errorf("light survival threshold %d; want near the 15 ceiling", light)
	}
}
