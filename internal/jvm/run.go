package jvm

import (
	"repro/internal/cfs"
	"repro/internal/evtrace"
	"repro/internal/ostopo"
	"repro/internal/simkit"
)

// RunSpec is a one-shot run description: one machine, one JVM, optional
// interference.
type RunSpec struct {
	Config
	// Topo defaults to the paper's testbed (20 cores, SMT off).
	Topo *ostopo.Topology
	// Sched overrides scheduler parameters (nil = defaults).
	Sched *cfs.Params
	// Seed seeds the whole simulation.
	Seed int64
	// BusyLoops adds interfering CPU hogs pinned to the first cores.
	BusyLoops int
	// MaxSim bounds virtual time (0 = 20 minutes).
	MaxSim simkit.Time
	// EvTracer, when non-nil, receives structured events from every layer
	// (simkit, cfs, jmutex, taskq, pscavenge) for Perfetto export and lock
	// profiling. Tracing never perturbs the simulation.
	EvTracer *evtrace.Tracer
	// Metrics, when non-nil, is the unified counter registry, snapshotted
	// after each collection.
	Metrics *evtrace.Registry
	// Scratch, when non-nil, supplies pooled backing arrays for the
	// machine; Run harvests them back before returning. Reuse never
	// changes results (see Scratch).
	Scratch *Scratch
}

// Run executes a single-JVM simulation to completion and returns its
// result. An ErrOutOfMemory run still returns a Result (with Err set);
// other failures return an error.
func Run(spec RunSpec) (*Result, error) {
	rs, err := RunJVMs(spec, spec.Config)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// RunJVMs executes cfgs side by side on one machine (§5.7) and returns
// their results in order. spec describes the machine: topology, scheduler,
// seed, busy loops, time bound, event tracer, metrics and scratch; its Config
// field is not read. JVM i runs with its Seed offset by i·1000003, so
// co-running instances of one config draw distinct streams.
func RunJVMs(spec RunSpec, cfgs ...Config) ([]*Result, error) {
	topo := spec.Topo
	if topo == nil {
		topo = ostopo.PaperTestbed()
	}
	maxSim := spec.MaxSim
	if maxSim <= 0 {
		maxSim = 20 * 60 * simkit.Second
	}
	m := NewMachineScratch(spec.Seed, topo, spec.Sched, spec.EvTracer, spec.Scratch)
	defer m.Close()
	m.Metrics = spec.Metrics
	if spec.BusyLoops > 0 {
		m.AddBusyLoops(spec.BusyLoops)
	}
	jvms := make([]*JVM, 0, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Seed += int64(i * 1000003)
		j, err := m.AddJVM(cfg)
		if err != nil {
			return nil, err
		}
		jvms = append(jvms, j)
	}
	if err := m.Run(maxSim); err != nil {
		return nil, err
	}
	out := make([]*Result, len(jvms))
	for i, j := range jvms {
		out[i] = j.Result()
	}
	return out, nil
}

// RunMultiTraced runs cfgs side by side on one machine with tr attached
// from machine construction on (nil disables tracing).
//
// Deprecated: use RunJVMs, or check.Observers.Run for an observed run.
// It is kept for the benchmark harness, which still calls it.
func RunMultiTraced(seed int64, topo *ostopo.Topology, sched *cfs.Params, busyLoops int, maxSim simkit.Time, tr *evtrace.Tracer, cfgs ...Config) ([]*Result, error) {
	return RunJVMs(RunSpec{
		Topo: topo, Sched: sched, Seed: seed,
		BusyLoops: busyLoops, MaxSim: maxSim, EvTracer: tr,
	}, cfgs...)
}
