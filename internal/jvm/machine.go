// Package jvm assembles the full system: a simulated multicore machine
// running one or more JVMs, each with a generational heap, a Parallel
// Scavenge collector, mutator threads driven by a workload profile, a VM
// thread coordinating stop-the-world safepoints, and (optionally) the
// paper's optimizations — dynamic GC thread affinity and adaptive
// semi-random work stealing.
package jvm

import (
	"fmt"

	"repro/internal/cfs"
	"repro/internal/evtrace"
	"repro/internal/ostopo"
	"repro/internal/simkit"
)

// Machine is one simulated host: a simulator plus a kernel, able to run
// several JVMs and interfering busy-loop workloads side by side (§5.7).
type Machine struct {
	Sim *simkit.Sim
	K   *cfs.Kernel

	jvms    []*JVM
	busy    []*cfs.Thread
	scratch *Scratch // pooled backing arrays; harvested back by Close
}

// NewMachineScratch creates a machine with the event tracer tr (nil
// disables tracing) installed before the kernel is constructed, so even
// the kernel's own setup work (arming the periodic balance timers) lands
// on the bus: internal/check's simkit conservation law counts every
// schedule against later fires and cancels. It builds the simulator and
// kernel from pooled scratch storage sc (nil runs cold); the machine owns
// sc until Close, which harvests the backing arrays back into it; see
// Scratch for the reuse contract.
func NewMachineScratch(seed int64, topo *ostopo.Topology, params *cfs.Params, tr *evtrace.Tracer, sc *Scratch) *Machine {
	p := cfs.DefaultParams()
	if params != nil {
		p = *params
	}
	var sim *simkit.Sim
	var k *cfs.Kernel
	if sc != nil {
		sim = simkit.NewWith(seed, &sc.sim)
		sim.SetTracer(tr)
		k = cfs.NewKernelWith(sim, topo, p, &sc.k)
	} else {
		sim = simkit.New(seed)
		sim.SetTracer(tr)
		k = cfs.NewKernel(sim, topo, p)
	}
	m := &Machine{Sim: sim, K: k, scratch: sc}
	m.K.SetEvTracer(tr)
	return m
}

// AddBusyLoops spawns n CPU-bound interference threads pinned to cores
// 0..n-1 (the paper's "ten busy loops on ten cores").
func (m *Machine) AddBusyLoops(n int) {
	for i := 0; i < n; i++ {
		core := ostopo.CoreID(i % m.K.NumCPUs())
		th := m.K.Spawn(fmt.Sprintf("busyloop#%d", i), core, func(e *cfs.Env) {
			e.SetAffinity(core)
			// An endless compute plan: same 1 ms slices and preemption
			// points as `for { e.Compute(1ms) }`, but the kernel services
			// the slices without a coroutine switch per millisecond.
			e.ComputePlan(func() (simkit.Time, bool) { return simkit.Millisecond, true })
		})
		m.busy = append(m.busy, th)
	}
}

// Run steps the simulation until every JVM has finished (or maxTime is
// reached, which returns an error).
func (m *Machine) Run(maxTime simkit.Time) error {
	for m.Sim.Now() < maxTime {
		done := true
		for _, j := range m.jvms {
			if !j.done {
				done = false
				break
			}
		}
		if done {
			return nil
		}
		if !m.Sim.Step() {
			return fmt.Errorf("jvm: simulation deadlocked at %v", m.Sim.Now())
		}
	}
	return fmt.Errorf("jvm: simulation exceeded %v", maxTime)
}

// Close releases kernel timers and coroutine goroutines. If the machine
// was built from a Scratch, its backing arrays are harvested back into the
// scratch for the next cell.
func (m *Machine) Close() {
	m.K.Shutdown()
	m.Sim.Close()
	if sc := m.scratch; sc != nil {
		m.scratch = nil
		for i, j := range m.jvms {
			is := sc.inst(i)
			for _, ms := range j.muts {
				ms.graph.Reclaim(&is.graph)
			}
			j.H.Reclaim(&is.heap)
		}
		m.K.Reclaim(&sc.k)
		m.Sim.Reclaim(&sc.sim)
	}
}
