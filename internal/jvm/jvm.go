package jvm

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/affinity"
	"repro/internal/cfs"
	"repro/internal/evtrace"
	"repro/internal/heap"
	"repro/internal/jmutex"
	"repro/internal/objgraph"
	"repro/internal/ostopo"
	"repro/internal/pscavenge"
	"repro/internal/simkit"
	"repro/internal/stats"
	"repro/internal/taskq"
	"repro/internal/workload"
)

// ErrOutOfMemory is reported when a major GC cannot free enough old-
// generation space (pagerank/huge reproduces it, §5.5).
var ErrOutOfMemory = errors.New("jvm: java.lang.OutOfMemoryError: old generation exhausted")

// Config describes one JVM instance.
type Config struct {
	Profile  workload.Profile
	Mutators int
	// GCThreads overrides HotSpot's heuristic (0 = heuristic).
	GCThreads int
	// HeapMB overrides the profile's Table-2 heap size (0 = profile).
	HeapMB int

	// The paper's optimizations (all off = vanilla HotSpot).
	Affinity       affinity.Mode
	TaskAffinity   bool
	Steal          taskq.PolicyKind
	FastTerminator bool
	MutexPolicy    jmutex.Policy
	AdaptiveSizing bool
	// VerifyHeap enables -XX:+VerifyAfterGC-style invariant checking.
	VerifyHeap bool
	// NUMARemoteFactor, when > 1, enables the NUMA memory-locality cost
	// model: objects are homed on the allocating thread's node
	// (first-touch) and remote accesses during GC cost this factor more.
	NUMARemoteFactor float64

	// SpawnCore is where the JVM process starts; its GC threads are
	// created there and stay stacked while blocked (§3.2).
	SpawnCore ostopo.CoreID

	// Server mode (Class == Server): Clients closed-loop clients issuing
	// Requests requests in total.
	Clients  int
	Requests int

	// Seed offsets this JVM's RNG streams on a shared machine.
	Seed int64
}

// WithOptimizations returns the configuration with the paper's combined
// optimizations enabled ("Together" in Fig. 10): dynamic GC thread
// affinity + task affinity, semi-random stealing + fast termination.
func (c Config) WithOptimizations() Config {
	c.Affinity = affinity.ModeDynamic
	c.TaskAffinity = true
	c.Steal = taskq.KindSemiRandom
	c.FastTerminator = true
	return c
}

// WithAffinityOnly enables only the GC-thread/task affinity optimization.
func (c Config) WithAffinityOnly() Config {
	c.Affinity = affinity.ModeDynamic
	c.TaskAffinity = true
	return c
}

// WithStealOnly enables only the stealing optimization.
func (c Config) WithStealOnly() Config {
	c.Steal = taskq.KindSemiRandom
	c.FastTerminator = true
	return c
}

// Result summarizes one JVM run.
type Result struct {
	Benchmark string
	Mutators  int
	GCThreads int

	TotalTime   simkit.Time
	GCTime      simkit.Time
	MutatorTime simkit.Time // TotalTime - GCTime (wall)

	MinorGCs    int
	MajorGCs    int
	MinorGCTime simkit.Time
	MajorGCTime simkit.Time

	Reports []*pscavenge.GCReport
	Steal   *taskq.Stats
	Monitor jmutex.Stats
	Kernel  cfs.KernelStats
	Heap    heap.Stats
	Rebinds int

	// Server metrics.
	Latency       *stats.Histogram // milliseconds
	ThroughputOPS float64

	// NumCPUs is the machine size (logical CPUs), e.g. the row count of
	// an internal/schedtrace timeline.
	NumCPUs int

	// MutatorDeepWakes counts mutator wake-ups that paid a deep C-state
	// exit. §5.4: optimized GC keeps cores active during the pause, so
	// resuming mutators start faster — this counter shows it.
	MutatorDeepWakes int

	// EventsFired is the total number of simulation events fired.
	EventsFired uint64
	// Deprecated: EventsInlined is always 0; every event is fired through
	// the event queue. It is kept because perfbench's resultStats reads
	// it.
	EventsInlined uint64

	ItemsDone int64
	Err       error
}

// GCRatio returns GC time / total time.
func (r *Result) GCRatio() float64 {
	if r.TotalTime == 0 {
		return 0
	}
	return float64(r.GCTime) / float64(r.TotalTime)
}

// Publish writes the run's counters into reg under the unified dotted
// names (jmutex.*, cfs.*, heap.*, gc.*, taskq.*, simkit.*). The stats
// structs name their counters in their json tags, so a counter added to
// one of them is published without an edit here. It reads the finished
// result, so every value is the one at the end of the run.
func (r *Result) Publish(reg *evtrace.Registry) {
	reg.SetFields("jmutex", r.Monitor)
	reg.SetFields("cfs", r.Kernel)
	reg.SetFields("heap", r.Heap)
	reg.SetFields("gc", pscavenge.Aggregate(r.Reports, -1))
	reg.Counter("taskq.steal_attempts").Set(r.Steal.TotalAttempts())
	reg.Counter("taskq.steal_failures").Set(r.Steal.TotalFailures())
	reg.Gauge("taskq.steal_failure_rate").Set(r.Steal.FailureRate())
	reg.Counter("simkit.events_fired").Set(int64(r.EventsFired))
	if n := len(r.Reports); n > 0 {
		last := r.Reports[n-1]
		reg.Gauge("gc.last_pause_ms").Set((last.End - last.Start).Millis())
	}
}

const (
	causeNone = iota
	causeMinor
	causeMajor
)

// JVM is one running JVM instance on a Machine.
type JVM struct {
	M   *Machine
	Cfg Config
	H   *heap.Heap
	Eng *pscavenge.Engine
	Bal *affinity.Balancer

	appMon *jmutex.Monitor
	rng    *rand.Rand

	muts []*mutatorState
	vm   *cfs.Thread

	// Safepoint protocol state.
	safepoint      bool
	gcCause        int
	activeMutators int

	// Big-data RDD cache.
	cache []heap.ObjID

	// Server state.
	pending          []*request
	issued, answered int

	// Results.
	startTime, endTime   simkit.Time
	gcTime               simkit.Time
	minorTime, majorTime simkit.Time
	minorGCs, majorGCs   int
	itemsDone            int64
	latency              *stats.Histogram
	oomErr               error
	done                 bool
}

type mutatorState struct {
	th          *cfs.Thread
	graph       *objgraph.Mutator
	atSafepoint bool
	idle        bool
	finished    bool

	// Burst-plan state. The mutator's steady-state item loop (compute,
	// lock/serial/unlock, allocation burst) is expressed as a compute plan
	// (planStep) the kernel services driver-side, so back-to-back slices
	// cost no coroutine switches. Anything that can block — safepoints,
	// contended locks, GC requests, phase transitions — is handed back to
	// the body through action.
	j          *JVM
	plan       cfs.PlanFn
	pc         planPC
	batch      bool // multi-item (batch) vs single-item (server) plan
	items      int  // batch: item target
	n          int  // batch: items completed
	phaseEvery int
	clusters   int // clusters per item
	cluster    int // clusters completed in the current item
	serial     simkit.Time
	rest       simkit.Time
	action     planAction
}

// planPC is the mutator plan's resume point.
type planPC uint8

const (
	pcIdle planPC = iota
	pcItemStart
	pcPhaseCheck
	pcItemCompute
	pcLockTry
	pcLockAcquired
	pcUnlockBegin
	pcUnlockFinish
	pcAllocStart
	pcClusters
	pcClusterAttempt
	pcItemEnd
)

// planAction is what the body must do when the plan hands control back.
type planAction uint8

const (
	actionNone planAction = iota
	actionFinished
	actionSafepoint
	actionPhase
	actionLockContended
	actionGC
	actionItemDone
)

// planStep is the mutator's compute plan (cfs.PlanFn). Each call either
// returns the next CPU slice or stops the plan with an action for the body.
// The control flow is the state-machine transcription of the old
// batchMutatorBody/runItem loops: every heap access, RNG draw and monitor
// operation happens at the same virtual instant and in the same order as
// the body-resident original, so simulation results are byte-identical.
func (ms *mutatorState) planStep() (simkit.Time, bool) {
	j := ms.j
	p := &j.Cfg.Profile
	for {
		switch ms.pc {
		case pcItemStart: // batch only: per-item loop header
			if ms.n >= ms.items || j.oomErr != nil {
				ms.pc = pcIdle
				ms.action = actionFinished
				return 0, false
			}
			ms.pc = pcPhaseCheck
			if j.safepoint {
				ms.action = actionSafepoint
				return 0, false
			}
		case pcPhaseCheck:
			ms.pc = pcItemCompute
			if ms.phaseEvery > 0 && ms.n%ms.phaseEvery == 0 {
				ms.action = actionPhase
				return 0, false
			}
		case pcItemCompute:
			// ±25% jitter decorrelates mutators.
			compute := p.ItemCompute
			if p.Class == workload.Server {
				compute = p.ServiceCompute
			}
			compute = compute*3/4 + simkit.Time(j.M.K.Sim.Rand().Int63n(int64(compute)/2+1))
			if p.SerialFrac > 0 {
				ms.serial = simkit.Time(float64(compute) * p.SerialFrac)
				ms.rest = compute - ms.serial
				ms.pc = pcLockTry
				return j.appMon.LockBegin(ms.th), true
			}
			ms.pc = pcAllocStart
			return compute, true
		case pcLockTry:
			if j.appMon.TryLockFast(ms.th) {
				ms.pc = pcUnlockBegin
				return ms.serial, true
			}
			ms.pc = pcLockAcquired
			ms.action = actionLockContended
			return 0, false
		case pcLockAcquired:
			ms.pc = pcUnlockBegin
			return ms.serial, true
		case pcUnlockBegin:
			ms.pc = pcUnlockFinish
			return j.appMon.UnlockBegin(ms.th), true
		case pcUnlockFinish:
			j.appMon.UnlockFinish(ms.th)
			ms.pc = pcAllocStart
			return ms.rest, true
		case pcAllocStart:
			// First-touch NUMA policy: new objects are homed on this
			// thread's node.
			j.H.SetAllocNode(j.M.K.Topo.Node(ms.th.Core()))
			ms.cluster = 0
			ms.pc = pcClusters
		case pcClusters: // per-cluster loop header
			if ms.cluster < ms.clusters && j.oomErr == nil {
				ms.pc = pcClusterAttempt
				continue
			}
			ms.pc = pcItemEnd
		case pcClusterAttempt:
			if j.safepoint {
				ms.action = actionSafepoint
				return 0, false
			}
			if _, ok := ms.graph.AllocCluster(); ok {
				ms.cluster++
				ms.pc = pcClusters
				continue
			}
			ms.action = actionGC
			return 0, false
		case pcItemEnd:
			if !ms.batch {
				ms.pc = pcIdle
				ms.action = actionItemDone
				return 0, false
			}
			ms.n++
			j.itemsDone++
			ms.pc = pcItemStart
		default:
			panic("jvm: mutator plan stepped while idle")
		}
	}
}

type request struct {
	issued simkit.Time
}

// AddJVM creates a JVM on the machine and spawns its threads. The run
// starts when Machine.Run is called.
func (m *Machine) AddJVM(cfg Config) (*JVM, error) {
	if err := cfg.Profile.Validate(); err != nil {
		return nil, err
	}
	if cfg.Mutators <= 0 {
		cfg.Mutators = 16
	}
	heapMB := cfg.HeapMB
	if heapMB <= 0 {
		heapMB = cfg.Profile.HeapMB
	}
	var isc *instanceScratch
	if m.scratch != nil {
		isc = m.scratch.inst(len(m.jvms))
	}
	var hsc *heap.Scratch
	if isc != nil {
		hsc = &isc.heap
	}
	h, err := heap.NewWith(cfg.Profile.HeapConfigMB(heapMB), hsc)
	if err != nil {
		return nil, err
	}
	j := &JVM{
		M: m, Cfg: cfg, H: h,
		rng:     rand.New(rand.NewSource(cfg.Seed + 7919)),
		latency: &stats.Histogram{},
	}
	// Later JVMs on a shared machine get suffixed lock names, so the event
	// bus never conflates two monitors' ownership streams (§5.7 runs).
	instance := len(m.jvms)
	appLock := "appLock"
	if instance > 0 {
		appLock = fmt.Sprintf("appLock#%d", instance)
	}
	j.appMon = jmutex.New(m.K, appLock, cfg.MutexPolicy)
	j.Bal = affinity.New(cfg.Affinity, m.K)
	if cfg.Affinity == affinity.ModeDynamic {
		// Algorithm 1 depends on the paper's kernel fix: load_avg that
		// counts sleeping threads (§4.1).
		m.K.P.LoadAvgCountsBlocked = true
	}

	gcThreads := cfg.GCThreads
	if gcThreads <= 0 {
		gcThreads = pscavenge.DefaultGCThreads(m.K.NumCPUs())
	}
	opt := pscavenge.Options{
		Threads:        gcThreads,
		Instance:       instance,
		SpawnCore:      cfg.SpawnCore,
		MutexPolicy:    cfg.MutexPolicy,
		StealKind:      cfg.Steal,
		FastTerminator: cfg.FastTerminator,
		TaskAffinity:   cfg.TaskAffinity,
		AdaptiveSizing: cfg.AdaptiveSizing,
		VerifyHeap:     cfg.VerifyHeap,
		OnWorkerStart:  j.Bal.WorkerStart,
		OnGCWake:       j.Bal.GCWake,
	}
	if cfg.NUMARemoteFactor > 1 {
		opt.NUMA = &pscavenge.NUMAModel{Topo: m.K.Topo, RemoteFactor: cfg.NUMARemoteFactor}
	}
	if cfg.Steal == taskq.KindNUMARestricted {
		opt.NodeOf = j.Bal.NodeOf(gcThreads)
	}
	j.Eng = pscavenge.New(m.K, h, opt)

	// Mutator threads. Unlike the GC threads (which block immediately and
	// stay stacked on the spawn core), mutators are runnable from the
	// start, so fork balancing spreads them; we model that by spawning
	// them round-robin.
	ncpu := m.K.NumCPUs()
	// The profile's RetainWindow is the application-wide medium-lived live
	// set; split it across mutators so the live set does not scale with
	// thread count (workload.Profile docs).
	gp := cfg.Profile.Graph
	gp.RetainWindow = gp.RetainWindow / cfg.Mutators
	if gp.RetainWindow < 2 {
		gp.RetainWindow = 2
	}
	var gsc *objgraph.Scratch
	if isc != nil {
		gsc = &isc.graph
	}
	for i := 0; i < cfg.Mutators; i++ {
		g, err := objgraph.NewMutatorWith(i, h, gp, j.rng, gsc)
		if err != nil {
			return nil, err
		}
		ms := &mutatorState{graph: g, j: j}
		ms.plan = ms.planStep
		j.muts = append(j.muts, ms)
		core := ostopo.CoreID((int(cfg.SpawnCore) + i) % ncpu)
		body := j.batchMutatorBody(i)
		if cfg.Profile.Class == workload.Server {
			body = j.serverWorkerBody(i)
		}
		ms.th = m.K.Spawn(fmt.Sprintf("mutator#%d", i), core, body)
	}
	j.activeMutators = len(j.muts)

	// VM thread on the spawn core (it mostly sleeps).
	j.vm = m.K.Spawn("VMThread", cfg.SpawnCore, j.vmBody)

	if cfg.Profile.Class == workload.Server {
		j.seedClients()
	}
	m.jvms = append(m.jvms, j)
	return j, nil
}

// Result collects the run's metrics. Valid after Machine.Run returns.
func (j *JVM) Result() *Result {
	r := &Result{
		Benchmark: j.Cfg.Profile.Name,
		Mutators:  len(j.muts),
		GCThreads: j.Eng.Threads(),

		TotalTime: j.endTime - j.startTime,
		GCTime:    j.gcTime,

		MinorGCs: j.minorGCs, MajorGCs: j.majorGCs,
		MinorGCTime: j.minorTime, MajorGCTime: j.majorTime,

		Reports: j.Eng.Reports,
		Steal:   j.Eng.Steal,
		Monitor: j.Eng.MonitorStats(),
		Kernel:  j.M.K.Stats,
		Heap:    j.H.Stats,
		Rebinds: j.Bal.Rebinds,
		NumCPUs: j.M.K.NumCPUs(),

		Latency:   j.latency,
		ItemsDone: j.itemsDone,
		Err:       j.oomErr,

		EventsFired: j.M.K.Sim.Fired(),
	}
	for _, ms := range j.muts {
		r.MutatorDeepWakes += ms.th.DeepWakes
	}
	r.MutatorTime = r.TotalTime - r.GCTime
	if r.TotalTime > 0 {
		if j.Cfg.Profile.Class == workload.Server {
			r.ThroughputOPS = float64(j.answered) / r.TotalTime.Seconds()
		} else {
			r.ThroughputOPS = float64(j.itemsDone) / r.TotalTime.Seconds()
		}
	}
	return r
}

// --- safepoint protocol -----------------------------------------------------

func (j *JVM) stoppedOrIdle() int {
	n := 0
	for _, ms := range j.muts {
		if !ms.finished && (ms.atSafepoint || ms.idle) {
			n++
		}
	}
	return n
}

// checkSafepoint parks the mutator while a stop-the-world pause is pending
// or in progress.
func (j *JVM) checkSafepoint(e *cfs.Env, i int) {
	ms := j.muts[i]
	for j.safepoint {
		ms.atSafepoint = true
		if j.stoppedOrIdle() >= j.activeMutators {
			j.M.K.Unpark(j.vm)
		}
		for j.safepoint {
			e.Park()
		}
		ms.atSafepoint = false
	}
}

// requestGC initiates a collection (allocation failure) and waits for it.
func (j *JVM) requestGC(e *cfs.Env, i int, cause int) {
	if !j.safepoint {
		j.safepoint = true
		j.gcCause = cause
		j.M.K.Unpark(j.vm)
	} else if cause > j.gcCause {
		j.gcCause = cause
	}
	j.checkSafepoint(e, i)
}

func (j *JVM) mutatorFinished(e *cfs.Env, i int) {
	j.muts[i].finished = true
	j.activeMutators--
	j.M.K.Unpark(j.vm)
}

// vmBody coordinates safepoints and runs collections.
func (j *JVM) vmBody(e *cfs.Env) {
	j.startTime = e.Now()
	for {
		for !j.safepoint && j.activeMutators > 0 {
			e.Park()
		}
		if j.activeMutators <= 0 {
			break
		}
		// Wait for every active mutator to reach the safepoint.
		for j.stoppedOrIdle() < j.activeMutators {
			e.Park()
		}
		t0 := e.Now()
		if j.gcCause != causeMajor {
			rep := j.Eng.RunMinorGC(e, j.gatherRoots(false))
			j.minorGCs++
			j.minorTime += rep.Pause()
		}
		if j.gcCause == causeMajor || j.H.OldOccupancy() > 0.88 {
			rep := j.Eng.RunMajorGC(e, j.gatherRoots(true))
			j.majorGCs++
			j.majorTime += rep.Pause()
			if j.H.OldOccupancy() > 0.98 {
				j.oomErr = ErrOutOfMemory
			}
		}
		j.gcTime += e.Now() - t0
		j.safepoint = false
		j.gcCause = causeNone
		for _, ms := range j.muts {
			if ms.atSafepoint {
				j.M.K.Unpark(ms.th)
			}
		}
	}
	j.Eng.Shutdown(e)
	j.endTime = e.Now()
	j.done = true
}

// gatherRoots builds the collection's root set from the live mutators.
// Static roots (anchors, cached partitions — the "universe" of classes and
// globals) feed the ScavengeRootsTasks; being old objects, a minor GC only
// scans them (their young referents arrive through the remembered set),
// while a major GC marks through them.
func (j *JVM) gatherRoots(major bool) pscavenge.RootSet {
	rs := pscavenge.RootSet{}
	for _, ms := range j.muts {
		if ms.finished {
			continue
		}
		rs.ThreadRoots = append(rs.ThreadRoots, ms.graph.Roots())
		rs.StaticRoots = append(rs.StaticRoots, ms.graph.Anchor())
	}
	if major {
		rs.StaticRoots = append(rs.StaticRoots, j.cache...)
	}
	return rs
}

// --- batch mutators ----------------------------------------------------------

func (j *JVM) batchMutatorBody(i int) func(*cfs.Env) {
	return func(e *cfs.Env) {
		ms := j.muts[i]
		p := j.Cfg.Profile
		items := p.TotalItems / len(j.muts)
		if i < p.TotalItems%len(j.muts) {
			items++
		}
		phaseEvery := 0
		if i == 0 && p.Phases > 0 {
			phaseEvery = items / p.Phases
			if phaseEvery == 0 {
				phaseEvery = 1
			}
		}
		ms.batch = true
		ms.items = items
		ms.n = 0
		ms.phaseEvery = phaseEvery
		ms.clusters = p.ItemClusters
		if p.Class == workload.Server {
			ms.clusters = p.ServiceClusters
		}
		ms.pc = pcItemStart
		for {
			e.ComputePlan(ms.plan)
			switch ms.action {
			case actionFinished:
				j.mutatorFinished(e, i)
				return
			case actionSafepoint:
				j.checkSafepoint(e, i)
			case actionPhase:
				j.phaseTransition(e, i)
			case actionLockContended:
				j.appMon.LockContended(e)
			case actionGC:
				j.requestGC(e, i, causeMinor)
			}
		}
	}
}

// runItem performs one work item: compute (partially under the application
// lock for non-scalable workloads) plus allocation. It drives the mutator's
// compute plan in single-item mode; only the blocking pieces run here in
// the body.
func (j *JVM) runItem(e *cfs.Env, i int) {
	ms := j.muts[i]
	p := j.Cfg.Profile
	ms.batch = false
	ms.clusters = p.ItemClusters
	if p.Class == workload.Server {
		ms.clusters = p.ServiceClusters
	}
	ms.pc = pcItemCompute
	for {
		e.ComputePlan(ms.plan)
		switch ms.action {
		case actionItemDone:
			return
		case actionSafepoint:
			j.checkSafepoint(e, i)
		case actionLockContended:
			j.appMon.LockContended(e)
		case actionGC:
			j.requestGC(e, i, causeMinor)
		}
	}
}

// phaseTransition models a Spark stage boundary: drop part of the cached
// RDD partitions, then cache new ones until the configured old-generation
// occupancy is reached (§5.5).
func (j *JVM) phaseTransition(e *cfs.Env, i int) {
	p := j.Cfg.Profile
	// Drop PhaseDropFrac of the cache.
	keep := j.cache[:0]
	for _, id := range j.cache {
		if j.rng.Float64() >= p.PhaseDropFrac {
			keep = append(keep, id)
		}
	}
	j.cache = keep
	// Cache new partitions (homed on the caching thread's node).
	j.H.SetAllocNode(j.M.K.Topo.Node(e.Core()))
	cfgOld := j.H.Config().OldBytes
	part := int32(cfgOld / 256)
	if part < 1024 {
		part = 1024
	}
	target := float64(cfgOld) * p.PhaseCacheFrac
	for j.oomErr == nil {
		_, _, old := j.H.Usage()
		if float64(old) >= target {
			break
		}
		id, ok := j.H.AllocOld(part)
		if !ok {
			// Old generation exhausted: full GC, then retry once.
			j.requestGC(e, i, causeMajor)
			if id2, ok2 := j.H.AllocOld(part); ok2 {
				j.cache = append(j.cache, id2)
				e.Compute(20 * simkit.Microsecond)
				continue
			}
			j.oomErr = ErrOutOfMemory
			return
		}
		j.cache = append(j.cache, id)
		e.Compute(20 * simkit.Microsecond) // I/O+deserialize per partition
	}
}
