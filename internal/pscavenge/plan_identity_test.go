package pscavenge_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"repro/internal/cfs"
	"repro/internal/evtrace"
	"repro/internal/heap"
	"repro/internal/jvm"
	"repro/internal/objgraph"
	"repro/internal/ostopo"
	"repro/internal/pscavenge"
	"repro/internal/simkit"
	"repro/internal/taskq"
	"repro/internal/workload"
)

// streamHash folds the complete event-bus stream of one run into a SHA-256
// as it is emitted. It subscribes rather than reading the ring sinks, so
// the digest covers every event even when the rings overwrite old records.
type streamHash struct {
	h   hash.Hash
	buf []byte
	n   int
}

func newStreamHash(tr *evtrace.Tracer) *streamHash {
	s := &streamHash{h: sha256.New()}
	tr.Subscribe(s.add)
	return s
}

func (s *streamHash) add(ev evtrace.Event) {
	b := s.buf[:0]
	for _, v := range [...]uint64{uint64(ev.At), uint64(ev.Dur), ev.Seq, uint64(ev.Arg1), uint64(ev.Arg2)} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	b = append(b, byte(ev.Kind))
	b = binary.LittleEndian.AppendUint32(b, uint32(ev.Core))
	b = binary.LittleEndian.AppendUint32(b, uint32(ev.TID))
	b = binary.AppendUvarint(b, uint64(len(ev.Name)))
	b = append(b, ev.Name...)
	s.h.Write(b)
	s.buf = b
	s.n++
}

// workerRun is what one fixture case observed: the digest of its event
// stream, GC reports and kernel counters, plus the two counters that say
// how the GC workers were serviced.
type workerRun struct {
	digest        string
	events        int
	bodyResumes   int
	burstElisions int
}

// finish appends the dereferenced GC reports and the kernel counters to the
// stream digest. The elision counters record how work was serviced, not
// what work happened, so they are zeroed before hashing and reported
// separately.
func (s *streamHash) finish(reps []*pscavenge.GCReport, ks cfs.KernelStats) workerRun {
	for _, r := range reps {
		fmt.Fprintf(s.h, "%+v\n", *r)
	}
	run := workerRun{events: s.n, bodyResumes: ks.BodyResumes, burstElisions: ks.BurstElisions}
	ks.BodyResumes, ks.PlanElisions, ks.BurstElisions = 0, 0, 0
	fmt.Fprintf(s.h, "%+v\n", ks)
	run.digest = hex.EncodeToString(s.h.Sum(nil))
	return run
}

// runWorkerScript drives a fixed fill/minor/fill/minor/major schedule on a
// fully traced 20-core machine with the given collector options.
func runWorkerScript(t *testing.T, opt pscavenge.Options) workerRun {
	t.Helper()
	sim := simkit.New(31)
	t.Cleanup(sim.Close)
	tr := evtrace.New(1)
	sh := newStreamHash(tr)
	sim.SetTracer(tr)
	topo := ostopo.PaperTestbed()
	k := cfs.NewKernel(sim, topo, cfs.DefaultParams())
	k.SetEvTracer(tr)
	h, err := heap.New(heap.Config{
		EdenBytes: 1 << 20, SurvivorBytes: 1 << 18, OldBytes: 1 << 22, TenureAge: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	var muts []*objgraph.Mutator
	for i := 0; i < 6; i++ {
		m, err := objgraph.NewMutator(i, h, objgraph.DefaultParams(), rng)
		if err != nil {
			t.Fatal(err)
		}
		muts = append(muts, m)
	}
	g := pscavenge.New(k, h, opt)

	fill := func() {
		for i := 0; ; i = (i + 1) % len(muts) {
			if _, ok := muts[i].AllocCluster(); !ok {
				return
			}
		}
	}
	roots := func() pscavenge.RootSet {
		rs := pscavenge.RootSet{}
		for _, m := range muts {
			rs.ThreadRoots = append(rs.ThreadRoots, m.Roots())
		}
		return rs
	}

	done := false
	k.Spawn("VMThread", 19, func(e *cfs.Env) {
		fill()
		g.RunMinorGC(e, roots())
		fill()
		g.RunMinorGC(e, roots())
		major := pscavenge.RootSet{}
		for _, m := range muts {
			major.ThreadRoots = append(major.ThreadRoots, m.Roots())
			major.StaticRoots = append(major.StaticRoots, m.Anchor())
		}
		g.RunMajorGC(e, major)
		g.Shutdown(e)
		done = true
	})
	for !done && sim.Now() < 60*simkit.Second {
		if !sim.Step() {
			break
		}
	}
	if !done {
		t.Fatalf("VM thread did not finish by %v", sim.Now())
	}
	k.Shutdown()
	for sim.Step() {
	}
	if n := sim.Clamped(); n != 0 {
		t.Fatalf("simulation clamped %d past-scheduled events, want 0", n)
	}
	return sh.finish(g.Reports, k.Stats)
}

// runReducedCell runs the reduced lusearch cell (an eighth of the items,
// 16 mutators, seed 1) through the full JVM model with the bus traced.
func runReducedCell(t *testing.T, optimized bool) workerRun {
	t.Helper()
	p := workload.Lusearch()
	p.TotalItems /= 8
	cfg := jvm.Config{Profile: p, Mutators: 16, Seed: 1}
	if optimized {
		cfg = cfg.WithOptimizations()
	}
	tr := evtrace.New(1)
	sh := newStreamHash(tr)
	res, err := jvm.Run(jvm.RunSpec{Config: cfg, Seed: 1, EvTracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.MinorGCs == 0 {
		t.Fatal("reduced cell ran no minor GCs; cannot exercise workers")
	}
	return sh.finish(res.Reports, res.Kernel)
}

// numaOptions is the fast-terminator, task-affinity, NUMA-restricted
// stealing configuration, with the NUMA memory cost model on.
func numaOptions() pscavenge.Options {
	topo := ostopo.PaperTestbed()
	n := pscavenge.DefaultGCThreads(topo.NumCPUs())
	nodeOf := make([]int, n)
	for w := range nodeOf {
		nodeOf[w] = w % topo.Nodes
	}
	return pscavenge.Options{
		FastTerminator: true,
		TaskAffinity:   true,
		StealKind:      taskq.KindNUMARestricted,
		NodeOf:         nodeOf,
		NUMA:           &pscavenge.NUMAModel{Topo: topo, RemoteFactor: 1.6},
	}
}

// hookOptions binds each worker at start and rebinds it on every GC wake,
// so the plan must hand the migrating SetAffinity calls back to the body.
func hookOptions() pscavenge.Options {
	const ncpu = 20
	wakes := 0
	return pscavenge.Options{
		OnWorkerStart: func(e *cfs.Env, w int) {
			e.SetAffinity(ostopo.CoreID(w % ncpu))
		},
		OnGCWake: func(e *cfs.Env, w int) {
			wakes++
			e.SetAffinity(ostopo.CoreID((3*w + wakes) % ncpu))
		},
	}
}

// TestWorkerPlanMatchesLoop pins the GC worker state machines to the
// execution of the Compute-per-step coroutine loop they replaced. The
// digests were computed with both worker implementations, which agreed on
// every case; any change to the event stream (kernel dispatches, scheduler
// timers, monitor hand-offs, task dispatches, steal traffic), to a GC
// report field, or to a kernel counter other than the elision counters
// moves a digest. The resume and elision counts are pinned exactly so a
// change in how the workers are serviced is explained, not absorbed.
func TestWorkerPlanMatchesLoop(t *testing.T) {
	for _, tc := range []struct {
		name          string
		run           func(*testing.T) workerRun
		digest        string
		bodyResumes   int
		burstElisions int
	}{
		{"script/defaults", func(t *testing.T) workerRun { return runWorkerScript(t, pscavenge.Options{}) },
			"17315d340d9131e5047b04dd6c6dc5a65381a02d3a9af557f94fa063fbf9aab7", 361, 2177},
		{"script/numa-fast-affinity", func(t *testing.T) workerRun { return runWorkerScript(t, numaOptions()) },
			"f27a3a6f19f8b18fcc8b6a43d94a55ac7f96d1ad17d374ef90b1cb43e90e49b7", 361, 1358},
		{"script/affinity-hooks", func(t *testing.T) workerRun { return runWorkerScript(t, hookOptions()) },
			"7b633cdd8dda5c5d25ca77be2520b2f1f3f2e2e122388194dc8169c4159dfe84", 639, 2340},
		{"lusearch/vanilla", func(t *testing.T) workerRun { return runReducedCell(t, false) },
			"1e40b356ed50087b96d2efa2f67ff15ce7918ec34f1420f6786bb5c4ef6b15ac", 1214, 14131},
		{"lusearch/optimized", func(t *testing.T) workerRun { return runReducedCell(t, true) },
			"2b510245198dec02c61e54efb38aee49189e4f807fa57ab11a58f215f92abd0f", 1985, 13425},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t)
			if got.digest != tc.digest {
				t.Errorf("digest over %d events = %s, want %s", got.events, got.digest, tc.digest)
			}
			if got.bodyResumes != tc.bodyResumes || got.burstElisions != tc.burstElisions {
				t.Errorf("BodyResumes/BurstElisions = %d/%d, want %d/%d",
					got.bodyResumes, got.burstElisions, tc.bodyResumes, tc.burstElisions)
			}
		})
	}
}
