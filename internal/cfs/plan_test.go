package cfs

import (
	"reflect"
	"testing"

	"repro/internal/evtrace"
	"repro/internal/ostopo"
	"repro/internal/simkit"
)

// planScenario builds a one-node machine, spawns a worker whose compute
// work is issued by issue, optionally spawns a competitor on the same core
// to force preemption mid-plan, runs to completion, and returns the
// observables that must not depend on how the work was issued.
type planResult struct {
	events  []evtrace.Event
	fired   uint64
	end     simkit.Time
	cpu     simkit.Time
	vrun    simkit.Time
	stats   KernelStats
	compCPU simkit.Time
}

func planScenario(t *testing.T, competitor bool, issue func(e *Env)) planResult {
	t.Helper()
	sim := simkit.New(7)
	t.Cleanup(sim.Close)
	topo := &ostopo.Topology{PhysCores: 2, SMTWays: 1, Nodes: 1}
	tr := evtrace.New(1 << 18)
	sim.SetTracer(tr)
	k := NewKernel(sim, topo, DefaultParams())
	k.SetEvTracer(tr)

	var end simkit.Time
	worker := k.Spawn("worker", 0, func(e *Env) {
		e.SetAffinity(0)
		issue(e)
		end = e.Now()
	})
	threads := []*Thread{worker}
	var comp *Thread
	if competitor {
		comp = k.Spawn("rival", 0, func(e *Env) {
			e.SetAffinity(0)
			for i := 0; i < 40; i++ {
				e.Compute(3 * ms)
				e.Sleep(2 * ms)
			}
		})
		threads = append(threads, comp)
	}
	drain(t, sim, k, simkit.Time(60)*simkit.Second, threads...)
	k.Shutdown()

	res := planResult{
		events: append([]evtrace.Event(nil), tr.Events()...),
		fired:  sim.Fired(),
		end:    end,
		cpu:    worker.CPUTime,
		vrun:   worker.vruntime,
		stats:  k.Stats,
	}
	if comp != nil {
		res.compCPU = comp.CPUTime
	}
	return res
}

// TestComputePlanElidesResumes is the compute-plan contract: issuing N
// identical slices as one ComputePlan must leave every simulation
// observable — the fired-event stream, virtual end time, CPU accounting —
// byte-identical to N sequential Compute calls, while resuming the body
// far fewer times.
func TestComputePlanElidesResumes(t *testing.T) {
	const n = 200
	const slice = 1 * ms
	for _, tc := range []struct {
		name       string
		competitor bool
	}{
		{"uncontended", false},
		{"preempted-mid-plan", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loop := planScenario(t, tc.competitor, func(e *Env) {
				for i := 0; i < n; i++ {
					e.Compute(slice)
				}
			})
			plan := planScenario(t, tc.competitor, func(e *Env) {
				left := n
				e.ComputePlan(func() (simkit.Time, bool) {
					left--
					return slice, left >= 0
				})
			})

			if loop.end != plan.end {
				t.Errorf("end time diverged: loop %v, plan %v", loop.end, plan.end)
			}
			if loop.cpu != plan.cpu || loop.vrun != plan.vrun {
				t.Errorf("accounting diverged: loop cpu=%v vrun=%v, plan cpu=%v vrun=%v",
					loop.cpu, loop.vrun, plan.cpu, plan.vrun)
			}
			if loop.compCPU != plan.compCPU {
				t.Errorf("competitor CPU diverged: loop %v, plan %v", loop.compCPU, plan.compCPU)
			}
			if loop.fired != plan.fired {
				t.Errorf("fired-event count diverged: loop %d, plan %d", loop.fired, plan.fired)
			}
			if !reflect.DeepEqual(loop.events, plan.events) {
				i := 0
				for i < len(loop.events) && i < len(plan.events) &&
					loop.events[i] == plan.events[i] {
					i++
				}
				t.Fatalf("event streams diverged at index %d of %d/%d:\nloop: %+v\nplan: %+v",
					i, len(loop.events), len(plan.events),
					at(loop.events, i), at(plan.events, i))
			}

			if got := plan.stats.BurstElisions; got != n-1 {
				t.Errorf("BurstElisions = %d, want %d", got, n-1)
			}
			if loop.stats.BurstElisions != 0 {
				t.Errorf("loop run recorded %d BurstElisions, want 0", loop.stats.BurstElisions)
			}
			// The loop body resumes at least once per slice; the plan body
			// resumes a constant handful of times regardless of n.
			if loop.stats.BodyResumes < n {
				t.Errorf("loop BodyResumes = %d, want >= %d", loop.stats.BodyResumes, n)
			}
			if plan.stats.BodyResumes > loop.stats.BodyResumes-(n-1) {
				t.Errorf("plan BodyResumes = %d, want <= %d (loop %d minus %d elided)",
					plan.stats.BodyResumes, loop.stats.BodyResumes-(n-1), loop.stats.BodyResumes, n-1)
			}
		})
	}
}

func at(evs []evtrace.Event, i int) any {
	if i < len(evs) {
		return evs[i]
	}
	return "<end of stream>"
}

// TestEndlessComputePlanMatchesBusyLoop checks a plan that never reports
// done against the busy-loop idiom it replaces, using a finite thread sharing the core
// as the clock: when it finishes, both machines must agree on every
// observable, and the endless plan must not have resumed its body.
func TestEndlessComputePlanMatchesBusyLoop(t *testing.T) {
	// planScenario drains until all listed threads are done, but an endless
	// body never finishes — drive on the competitor instead.
	scenario := func(t *testing.T, busy func(e *Env)) (planResult, simkit.Time) {
		t.Helper()
		sim := simkit.New(11)
		t.Cleanup(sim.Close)
		topo := &ostopo.Topology{PhysCores: 1, SMTWays: 1, Nodes: 1}
		tr := evtrace.New(1 << 18)
		sim.SetTracer(tr)
		k := NewKernel(sim, topo, DefaultParams())
		k.SetEvTracer(tr)
		looper := k.Spawn("busy", 0, busy)
		rival := k.Spawn("rival", 0, func(e *Env) {
			for i := 0; i < 25; i++ {
				e.Compute(4 * ms)
				e.Sleep(1 * ms)
			}
		})
		drain(t, sim, k, simkit.Time(10)*simkit.Second, rival)
		k.Shutdown()
		return planResult{
			events: append([]evtrace.Event(nil), tr.Events()...),
			fired:  sim.Fired(),
			cpu:    looper.CPUTime,
			vrun:   looper.vruntime,
			stats:  k.Stats,
		}, sim.Now()
	}

	loop, loopNow := scenario(t, func(e *Env) {
		for {
			e.Compute(1 * ms)
		}
	})
	plan, planNow := scenario(t, func(e *Env) {
		e.ComputePlan(func() (simkit.Time, bool) { return 1 * ms, true })
	})

	if loopNow != planNow {
		t.Errorf("final time diverged: loop %v, plan %v", loopNow, planNow)
	}
	if loop.cpu != plan.cpu || loop.vrun != plan.vrun {
		t.Errorf("accounting diverged: loop cpu=%v vrun=%v, plan cpu=%v vrun=%v",
			loop.cpu, loop.vrun, plan.cpu, plan.vrun)
	}
	if loop.fired != plan.fired {
		t.Errorf("fired-event count diverged: loop %d, plan %d", loop.fired, plan.fired)
	}
	if !reflect.DeepEqual(loop.events, plan.events) {
		t.Errorf("event streams diverged (%d vs %d events)", len(loop.events), len(plan.events))
	}
	if plan.stats.BurstElisions == 0 {
		t.Error("endless plan recorded no elisions")
	}
	// One resume starts the endless body; it never needs another.
	if d := loop.stats.BodyResumes - plan.stats.BodyResumes; d < 100 {
		t.Errorf("expected the endless plan to elide most resumes; loop=%d plan=%d",
			loop.stats.BodyResumes, plan.stats.BodyResumes)
	}
}

// TestComputePlanCallbackMatchesLoop checks the callback-plan form against
// the equivalent Compute loop: varying slice durations, zero-length slices
// (skipped like Compute(0)), and driver-side work between slices must leave
// every observable identical while eliding the per-slice resumes.
func TestComputePlanCallbackMatchesLoop(t *testing.T) {
	const n = 120
	slices := func(i int) simkit.Time {
		switch i % 4 {
		case 0:
			return 50 * simkit.Nanosecond
		case 1:
			return 0 // must be skipped, like Compute(0)
		case 2:
			return 2 * ms
		default:
			return 700 * simkit.Microsecond
		}
	}
	for _, tc := range []struct {
		name       string
		competitor bool
	}{
		{"uncontended", false},
		{"preempted-mid-plan", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var loopSum, planSum int64
			loop := planScenario(t, tc.competitor, func(e *Env) {
				for i := 0; i < n; i++ {
					loopSum += int64(i) // between-slice work
					e.Compute(slices(i))
				}
			})
			plan := planScenario(t, tc.competitor, func(e *Env) {
				i := 0
				e.ComputePlan(func() (simkit.Time, bool) {
					if i >= n {
						return 0, false
					}
					planSum += int64(i)
					d := slices(i)
					i++
					return d, true
				})
			})

			if loopSum != planSum {
				t.Errorf("between-slice work diverged: loop %d, plan %d", loopSum, planSum)
			}
			if loop.end != plan.end {
				t.Errorf("end time diverged: loop %v, plan %v", loop.end, plan.end)
			}
			if loop.cpu != plan.cpu || loop.vrun != plan.vrun {
				t.Errorf("accounting diverged: loop cpu=%v vrun=%v, plan cpu=%v vrun=%v",
					loop.cpu, loop.vrun, plan.cpu, plan.vrun)
			}
			if loop.compCPU != plan.compCPU {
				t.Errorf("competitor CPU diverged: loop %v, plan %v", loop.compCPU, plan.compCPU)
			}
			if loop.fired != plan.fired {
				t.Errorf("fired-event count diverged: loop %d, plan %d", loop.fired, plan.fired)
			}
			if !reflect.DeepEqual(loop.events, plan.events) {
				i := 0
				for i < len(loop.events) && i < len(plan.events) &&
					loop.events[i] == plan.events[i] {
					i++
				}
				t.Fatalf("event streams diverged at index %d of %d/%d:\nloop: %+v\nplan: %+v",
					i, len(loop.events), len(plan.events),
					at(loop.events, i), at(plan.events, i))
			}
			// 90 positive slices; all but the first elide a resume.
			if got := plan.stats.BurstElisions; got != 89 {
				t.Errorf("BurstElisions = %d, want 89", got)
			}
			if loop.stats.BurstElisions != 0 {
				t.Errorf("loop run recorded %d BurstElisions, want 0", loop.stats.BurstElisions)
			}
		})
	}
}
