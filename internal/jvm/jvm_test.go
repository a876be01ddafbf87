package jvm

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/affinity"
	"repro/internal/objgraph"
	"repro/internal/ostopo"
	"repro/internal/simkit"
	"repro/internal/taskq"
	"repro/internal/workload"
)

// shrink scales a batch profile down for fast tests.
func shrink(p workload.Profile, factor int) workload.Profile {
	p.TotalItems /= factor
	if p.TotalItems < 200 {
		p.TotalItems = 200
	}
	return p
}

func mustRun(t *testing.T, spec RunSpec) *Result {
	t.Helper()
	r, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestOptimizationsImproveGCAndTotalTime(t *testing.T) {
	base := Config{Profile: shrink(workload.Lusearch(), 4), Mutators: 16, Seed: 1}
	van := mustRun(t, RunSpec{Config: base, Seed: 1})
	opt := mustRun(t, RunSpec{Config: base.WithOptimizations(), Seed: 1})
	if opt.GCTime >= van.GCTime*7/10 {
		t.Errorf("GC time: optimized %v vs vanilla %v — want >= 30%% reduction", opt.GCTime, van.GCTime)
	}
	if opt.TotalTime >= van.TotalTime {
		t.Errorf("total time: optimized %v vs vanilla %v — want improvement", opt.TotalTime, van.TotalTime)
	}
	if van.MinorGCs == 0 {
		t.Fatal("no GCs happened")
	}
}

func TestVanillaGCIsStacked(t *testing.T) {
	base := Config{Profile: shrink(workload.Lusearch(), 8), Mutators: 16, Seed: 2}
	van := mustRun(t, RunSpec{Config: base, Seed: 2})
	opt := mustRun(t, RunSpec{Config: base.WithOptimizations(), Seed: 2})
	avgCores := func(r *Result) float64 {
		if len(r.Reports) == 0 {
			return 0
		}
		s := 0
		for _, rep := range r.Reports {
			s += rep.CoresUsed()
		}
		return float64(s) / float64(len(r.Reports))
	}
	vc, oc := avgCores(van), avgCores(opt)
	if vc > 5 {
		t.Errorf("vanilla GC used %.1f cores on average; expected stacking (<= 5)", vc)
	}
	if oc < 8 {
		t.Errorf("optimized GC used %.1f cores on average; expected wide spread (>= 8)", oc)
	}
	if van.Monitor.OwnerReacquires < 20 {
		t.Errorf("vanilla owner reacquisitions = %d; the unfair fast path should dominate", van.Monitor.OwnerReacquires)
	}
}

func TestIndividualOptimizationsHelp(t *testing.T) {
	base := Config{Profile: shrink(workload.Sunflow(), 6), Mutators: 16, Seed: 3}
	van := mustRun(t, RunSpec{Config: base, Seed: 3})
	aff := mustRun(t, RunSpec{Config: base.WithAffinityOnly(), Seed: 3})
	stl := mustRun(t, RunSpec{Config: base.WithStealOnly(), Seed: 3})
	both := mustRun(t, RunSpec{Config: base.WithOptimizations(), Seed: 3})
	if aff.GCTime >= van.GCTime {
		t.Errorf("affinity-only GC %v not better than vanilla %v", aff.GCTime, van.GCTime)
	}
	// The stealing optimization's first-order effect is on futile steal
	// attempts (Fig. 9); under full stacking its GC-time effect is small,
	// so assert the attempt reduction and that GC time does not regress.
	if stl.Steal.TotalFailures() >= van.Steal.TotalFailures() {
		t.Errorf("steal-only failed attempts %d not below vanilla %d",
			stl.Steal.TotalFailures(), van.Steal.TotalFailures())
	}
	if stl.GCTime > van.GCTime*12/10 {
		t.Errorf("steal-only GC %v regressed past vanilla %v", stl.GCTime, van.GCTime)
	}
	// §5.2: affinity contributes more than optimized stealing.
	if aff.GCTime >= stl.GCTime {
		t.Logf("note: affinity GC %v vs steal GC %v (paper expects affinity stronger)", aff.GCTime, stl.GCTime)
	}
	if both.GCTime >= van.GCTime*8/10 {
		t.Errorf("together GC %v vs vanilla %v: want >= 20%% reduction", both.GCTime, van.GCTime)
	}
}

func TestScalableWorkloadSpeedsUpWithMutators(t *testing.T) {
	p := shrink(workload.Lusearch(), 8)
	one := mustRun(t, RunSpec{Config: Config{Profile: p, Mutators: 1, Seed: 4}, Seed: 4})
	sixteen := mustRun(t, RunSpec{Config: Config{Profile: p, Mutators: 16, Seed: 4}, Seed: 4})
	speedup := float64(one.TotalTime) / float64(sixteen.TotalTime)
	if speedup < 4 {
		t.Errorf("lusearch 16-mutator speedup = %.1fx, want >= 4x (scalable workload)", speedup)
	}
}

func TestNonScalableWorkloadStagnates(t *testing.T) {
	p := shrink(workload.H2(), 6)
	four := mustRun(t, RunSpec{Config: Config{Profile: p, Mutators: 4, Seed: 5}, Seed: 5})
	sixteen := mustRun(t, RunSpec{Config: Config{Profile: p, Mutators: 16, Seed: 5}, Seed: 5})
	speedup := float64(four.TotalTime) / float64(sixteen.TotalTime)
	if speedup > 2.0 {
		t.Errorf("h2 4->16 mutators speedup %.2fx; SerialFrac=0.55 should cap scaling well below 2x", speedup)
	}
}

func TestGCRatioGrowsWithMutators(t *testing.T) {
	// Fig. 3(a): with more mutators, mutator time shrinks and the GC share
	// of total time grows.
	p := shrink(workload.Lusearch(), 8)
	r2 := mustRun(t, RunSpec{Config: Config{Profile: p, Mutators: 2, Seed: 6}, Seed: 6})
	r16 := mustRun(t, RunSpec{Config: Config{Profile: p, Mutators: 16, Seed: 6}, Seed: 6})
	if r16.GCRatio() <= r2.GCRatio() {
		t.Errorf("GC ratio: 16 mutators %.2f <= 2 mutators %.2f; want growth", r16.GCRatio(), r2.GCRatio())
	}
}

func TestCassandraServerCompletesAndTailImproves(t *testing.T) {
	base := Config{
		Profile: workload.Cassandra(), Mutators: 16,
		Clients: 64, Requests: 3000, Seed: 7,
	}
	van := mustRun(t, RunSpec{Config: base, Seed: 7})
	opt := mustRun(t, RunSpec{Config: base.WithOptimizations(), Seed: 7})
	if van.Latency.N() != 3000 || opt.Latency.N() != 3000 {
		t.Fatalf("requests answered: vanilla %d, optimized %d, want 3000", van.Latency.N(), opt.Latency.N())
	}
	v99, o99 := van.Latency.Percentile(99), opt.Latency.Percentile(99)
	if o99 >= v99 {
		t.Errorf("p99 latency: optimized %.2fms vs vanilla %.2fms — want tail improvement", o99, v99)
	}
	if van.Latency.Percentile(99) <= van.Latency.Median() {
		t.Error("p99 <= median: GC pauses should create a tail")
	}
	if van.ThroughputOPS <= 0 {
		t.Error("no throughput recorded")
	}
}

func TestCassandraLatencyGrowsWithClients(t *testing.T) {
	// Fig. 3(d): closed-loop concurrency inflates mean latency.
	lat := func(clients int) float64 {
		r := mustRun(t, RunSpec{Config: Config{
			Profile: workload.Cassandra(), Mutators: 16,
			Clients: clients, Requests: 1500, Seed: 8,
		}, Seed: 8})
		return r.Latency.Mean()
	}
	l4, l128 := lat(4), lat(128)
	if l128 <= l4*2 {
		t.Errorf("mean latency at 128 clients (%.2fms) not much above 4 clients (%.2fms)", l128, l4)
	}
}

func TestPagerankHugeOOMs(t *testing.T) {
	r := mustRun(t, RunSpec{Config: Config{
		Profile: shrink(workload.Pagerank(workload.SizeHuge), 8), Mutators: 16, Seed: 9,
	}, Seed: 9})
	if !errors.Is(r.Err, ErrOutOfMemory) {
		t.Errorf("pagerank(huge) finished with err=%v, want OutOfMemoryError (§5.5)", r.Err)
	}
}

func TestKmeansRunsMajorGCs(t *testing.T) {
	r := mustRun(t, RunSpec{Config: Config{
		Profile: shrink(workload.Kmeans(workload.SizeLarge), 4), Mutators: 16, Seed: 10,
	}, Seed: 10})
	if r.Err != nil {
		t.Fatalf("kmeans failed: %v", r.Err)
	}
	if r.MajorGCs == 0 {
		t.Error("kmeans(large) ran no major GCs; RDD caching should pressure the old generation")
	}
	if r.MajorGCTime <= 0 {
		t.Error("no major GC time recorded")
	}
}

func TestInterferenceDynamicAffinityWins(t *testing.T) {
	// §5.7: with busy loops pinned on half the cores, dynamic binding must
	// beat static binding (which collides with the interference).
	p := shrink(workload.Lusearch(), 8)
	run := func(mode affinity.Mode) *Result {
		cfg := Config{Profile: p, Mutators: 16, Seed: 11, TaskAffinity: true,
			Steal: taskq.KindSemiRandom, FastTerminator: true}
		cfg.Affinity = mode
		return mustRun(t, RunSpec{Config: cfg, Seed: 11, BusyLoops: 10})
	}
	dyn := run(affinity.ModeDynamic)
	sta := run(affinity.ModeStatic)
	van := run(affinity.ModeNone)
	if dyn.TotalTime >= van.TotalTime {
		t.Errorf("dynamic affinity total %v not better than unbound %v under interference",
			dyn.TotalTime, van.TotalTime)
	}
	if dyn.GCTime > van.GCTime*12/10 {
		t.Errorf("dynamic affinity GC %v regressed past unbound %v under interference",
			dyn.GCTime, van.GCTime)
	}
	t.Logf("interference GC: dynamic=%v static=%v vanilla=%v", dyn.GCTime, sta.GCTime, van.GCTime)
	if dyn.Rebinds == 0 {
		t.Error("dynamic mode never rebound under interference")
	}
}

func TestMultiJVMCoRun(t *testing.T) {
	p := shrink(workload.Lusearch(), 8)
	cfgA := Config{Profile: p, Mutators: 16, Seed: 12}
	cfgB := Config{Profile: p, Mutators: 16, Seed: 13, SpawnCore: 10}
	results, err := RunJVMs(RunSpec{Seed: 12}, cfgA, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	solo := mustRun(t, RunSpec{Config: cfgA, Seed: 12})
	for i, r := range results {
		if r.MinorGCs == 0 || r.TotalTime <= 0 {
			t.Errorf("JVM %d: empty result %+v", i, r)
		}
		if r.TotalTime <= solo.TotalTime {
			t.Errorf("co-run JVM %d (%v) not slower than solo (%v)", i, r.TotalTime, solo.TotalTime)
		}
	}
}

func TestSmallerHeapMoreGCs(t *testing.T) {
	p := shrink(workload.Lusearch(), 8)
	small := mustRun(t, RunSpec{Config: Config{Profile: p, Mutators: 16, HeapMB: 30, Seed: 14}, Seed: 14})
	large := mustRun(t, RunSpec{Config: Config{Profile: p, Mutators: 16, HeapMB: 360, Seed: 14}, Seed: 14})
	if small.MinorGCs <= large.MinorGCs {
		t.Errorf("GCs: 30MB heap %d <= 360MB heap %d; smaller heap must collect more often",
			small.MinorGCs, large.MinorGCs)
	}
}

func TestGCThreadOverrideAndHeuristic(t *testing.T) {
	p := shrink(workload.Lusearch(), 10)
	r := mustRun(t, RunSpec{Config: Config{Profile: p, Mutators: 8, GCThreads: 4, Seed: 15}, Seed: 15})
	if r.GCThreads != 4 {
		t.Errorf("GCThreads = %d, want 4", r.GCThreads)
	}
	r = mustRun(t, RunSpec{Config: Config{Profile: p, Mutators: 8, Seed: 15}, Seed: 15})
	if r.GCThreads != 15 {
		t.Errorf("heuristic GCThreads = %d, want 15 on 20 cores", r.GCThreads)
	}
}

func TestSMTTopologyRuns(t *testing.T) {
	p := shrink(workload.Lusearch(), 10)
	r := mustRun(t, RunSpec{
		Config: Config{Profile: p, Mutators: 16, GCThreads: 15, Seed: 16},
		Topo:   ostopo.PaperTestbedSMT(),
		Seed:   16,
	})
	if r.MinorGCs == 0 {
		t.Fatal("no GCs on SMT topology")
	}
}

func TestDeterministicResults(t *testing.T) {
	p := shrink(workload.Xalan(), 10)
	run := func() (simkit.Time, simkit.Time, int64) {
		r := mustRun(t, RunSpec{Config: Config{Profile: p, Mutators: 16, Seed: 17}, Seed: 17})
		return r.TotalTime, r.GCTime, r.Steal.TotalAttempts()
	}
	t1, g1, a1 := run()
	t2, g2, a2 := run()
	if t1 != t2 || g1 != g2 || a1 != a2 {
		t.Errorf("non-deterministic: (%v,%v,%d) vs (%v,%v,%d)", t1, g1, a1, t2, g2, a2)
	}
}

func TestMutatorItemsAllExecuted(t *testing.T) {
	p := shrink(workload.Jython(), 10)
	r := mustRun(t, RunSpec{Config: Config{Profile: p, Mutators: 7, Seed: 18}, Seed: 18})
	if r.ItemsDone != int64(p.TotalItems) {
		t.Errorf("items done = %d, want %d", r.ItemsDone, p.TotalItems)
	}
}

func TestRunRejectsInvalidProfile(t *testing.T) {
	if _, err := Run(RunSpec{Config: Config{Profile: workload.Profile{}}}); err == nil {
		t.Error("Run accepted an empty profile")
	}
}

func TestHeapInvariantsAfterFullRun(t *testing.T) {
	p := shrink(workload.Lusearch(), 10)
	m := NewMachineScratch(19, ostopo.PaperTestbed(), nil, nil, nil)
	defer m.Close()
	j, err := m.AddJVM(Config{Profile: p, Mutators: 8, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1e12); err != nil {
		t.Fatal(err)
	}
	if err := j.H.CheckInvariants(); err != nil {
		t.Errorf("heap invariants violated after run: %v", err)
	}
}

func TestVerifyHeapAcrossBenchmarks(t *testing.T) {
	// -XX:+VerifyAfterGC analogue: heap invariants (accounting, space
	// lists, remembered-set completeness) must hold after every collection
	// of representative workloads, including ones with frequent major GCs.
	for _, p := range []workload.Profile{
		shrink(workload.Lusearch(), 8),
		shrink(workload.H2(), 8),
		shrink(workload.Kmeans(workload.SizeLarge), 8),
	} {
		cfg := Config{Profile: p, Mutators: 8, Seed: 33, VerifyHeap: true}
		if _, err := Run(RunSpec{Config: cfg, Seed: 33}); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		cfg = cfg.WithOptimizations()
		if _, err := Run(RunSpec{Config: cfg, Seed: 33}); err != nil {
			t.Errorf("%s optimized: %v", p.Name, err)
		}
	}
}

func TestSafepointStopsEveryMutator(t *testing.T) {
	// During every STW pause, no mutator may allocate: allocation counts
	// must be flat across each GC window. We approximate by checking that
	// heap invariants hold and every GC saw all live mutators' roots
	// (ThreadRootsTask count == active mutators).
	p := shrink(workload.Lusearch(), 10)
	m := NewMachineScratch(41, ostopo.PaperTestbed(), nil, nil, nil)
	defer m.Close()
	j, err := m.AddJVM(Config{Profile: p, Mutators: 5, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1e12); err != nil {
		t.Fatal(err)
	}
	for _, rep := range j.Eng.Reports {
		threadRoots := 0
		for _, row := range rep.TasksByThread {
			threadRoots += row[2] // TaskThreadRoots
		}
		if threadRoots > 5 {
			t.Errorf("GC %d saw %d ThreadRootsTasks for 5 mutators", rep.Seq, threadRoots)
		}
		if threadRoots == 0 {
			t.Errorf("GC %d saw no ThreadRootsTasks", rep.Seq)
		}
	}
}

func TestMutatorsFinishDuringPendingSafepoint(t *testing.T) {
	// A mutator hitting its last item while another requests a GC must not
	// deadlock the safepoint protocol: uneven item splits exercise this.
	p := shrink(workload.Lusearch(), 10)
	p.TotalItems = 501 // uneven across 7 mutators
	r := mustRun(t, RunSpec{Config: Config{Profile: p, Mutators: 7, Seed: 42}, Seed: 42})
	if r.ItemsDone != 501 {
		t.Errorf("items done = %d, want 501", r.ItemsDone)
	}
}

func TestServerIdleWorkersDoNotBlockSafepoints(t *testing.T) {
	// Few clients + many workers: most workers sit idle-parked; GCs must
	// still start and finish.
	r := mustRun(t, RunSpec{Config: Config{
		Profile: workload.Cassandra(), Mutators: 16,
		Clients: 2, Requests: 2500, Seed: 43,
	}, Seed: 43})
	if r.Latency.N() != 2500 {
		t.Fatalf("answered %d of 2500", r.Latency.N())
	}
	if r.MinorGCs == 0 {
		t.Error("no GCs despite allocation; safepoints blocked by idle workers?")
	}
}

func TestOptimizedGCReducesMutatorDeepWakes(t *testing.T) {
	// §5.4 observation 3: with load-balanced GC the cores stay active
	// during the pause, so resuming mutators pay fewer deep C-state exits.
	base := Config{Profile: shrink(workload.Lusearch(), 6), Mutators: 16, Seed: 44}
	van := mustRun(t, RunSpec{Config: base, Seed: 44})
	opt := mustRun(t, RunSpec{Config: base.WithOptimizations(), Seed: 44})
	if opt.MutatorDeepWakes >= van.MutatorDeepWakes {
		t.Errorf("mutator deep wakes: optimized %d >= vanilla %d; spread GC should keep cores warm",
			opt.MutatorDeepWakes, van.MutatorDeepWakes)
	}
}

func TestFuzzRandomProfiles(t *testing.T) {
	// Integration fuzz: random (valid) workload profiles across random
	// machine shapes must complete with heap invariants intact, for every
	// optimization level, and deterministically.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		p := workload.Profile{
			Name: fmt.Sprintf("fuzz-%d", trial), Suite: "fuzz",
			HeapMB: 32 + rng.Intn(256), ScalePerMB: 8192 + rng.Int63n(65536),
			Graph: objgraph.Params{
				MeanObjectSize: int32(32 + rng.Intn(512)),
				ClusterFanout:  rng.Intn(10),
				StackWindow:    1 + rng.Intn(24),
				RetainProb:     rng.Float64() * 0.4,
				RetainWindow:   rng.Intn(256),
				OldAttachProb:  rng.Float64() * 0.5,
				AnchorWindow:   8 + rng.Intn(64),
				CrossRefProb:   rng.Float64() * 0.5,
			},
			TotalItems:   400 + rng.Intn(1200),
			ItemCompute:  simkit.Time(20+rng.Intn(400)) * simkit.Microsecond,
			ItemClusters: 1 + rng.Intn(6),
			SerialFrac:   rng.Float64() * 0.7,
		}
		if rng.Intn(3) == 0 {
			p.Phases = 1 + rng.Intn(4)
			p.PhaseCacheFrac = rng.Float64() * 0.5
			p.PhaseDropFrac = rng.Float64()
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid profile: %v", trial, err)
		}
		cfg := Config{
			Profile: p, Mutators: 1 + rng.Intn(20),
			GCThreads: 1 + rng.Intn(16), Seed: int64(trial),
			VerifyHeap: true, AdaptiveSizing: rng.Intn(2) == 0,
		}
		switch trial % 4 {
		case 1:
			cfg = cfg.WithAffinityOnly()
		case 2:
			cfg = cfg.WithStealOnly()
		case 3:
			cfg = cfg.WithOptimizations()
		}
		r1, err := Run(RunSpec{Config: cfg, Seed: int64(trial)})
		if err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, cfg.Profile, err)
		}
		if r1.Err != nil && !errors.Is(r1.Err, ErrOutOfMemory) {
			t.Fatalf("trial %d: unexpected error %v", trial, r1.Err)
		}
		r2, err := Run(RunSpec{Config: cfg, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if r1.TotalTime != r2.TotalTime || r1.GCTime != r2.GCTime {
			t.Fatalf("trial %d: non-deterministic (%v/%v vs %v/%v)",
				trial, r1.TotalTime, r1.GCTime, r2.TotalTime, r2.GCTime)
		}
	}
}

// TestMutatorBurstsRunAsPlans asserts the steady-state mutator loop is
// serviced as a driver-side compute plan: the kernel must record burst
// elisions (slices started without a body resume) on both the plain
// allocation profile (whose plans chain one item's compute into the next
// without resuming the body) and the lock-heavy one (whose plans also fold
// the monitor's CAS/serial/unlock sequence).
func TestMutatorBurstsRunAsPlans(t *testing.T) {
	cases := []struct {
		name    string
		perItem int // minimum elisions per item completed
		cfg     Config
	}{
		// One elision per steady-state item boundary (next item's compute
		// slice starts driver-side); GC pauses interrupt a few chains.
		{"lusearch", 1, Config{Profile: shrink(workload.Lusearch(), 8), Mutators: 16, Seed: 51}},
		// SerialFrac > 0 adds serial/unlock/rest slices to every item.
		{"xalan-serial", 3, Config{Profile: shrink(workload.Xalan(), 8), Mutators: 16, Seed: 52}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := mustRun(t, RunSpec{Config: tc.cfg, Seed: tc.cfg.Seed})
			if r.Kernel.BurstElisions == 0 {
				t.Fatal("run recorded no burst elisions; mutator plans are not being serviced driver-side")
			}
			if want := int(r.ItemsDone) * tc.perItem / 2; r.Kernel.BurstElisions < want {
				t.Errorf("burst elisions = %d for %d items; want >= %d",
					r.Kernel.BurstElisions, r.ItemsDone, want)
			}
		})
	}

	// Server mode folds each request's allocation burst into the service
	// compute slice's completion, driver-side; with SerialFrac = 0 the plan
	// has a single slice, so the fold shows up as completed requests, not
	// elisions.
	t.Run("cassandra", func(t *testing.T) {
		cfg := Config{Profile: workload.Cassandra(), Mutators: 8, Clients: 16, Requests: 1200, Seed: 53}
		r := mustRun(t, RunSpec{Config: cfg, Seed: 53})
		if r.ItemsDone != 1200 {
			t.Errorf("server answered %d of 1200 requests", r.ItemsDone)
		}
	})
}
