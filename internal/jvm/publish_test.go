package jvm_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/evtrace"
	"repro/internal/jvm"
)

// Every counter Publish writes equals the Result field it names: the
// registry renders the finished run, so no counter may stop at the last
// collection while the run goes on (the GC threads re-take the
// GCTaskManager monitor, and the kernel keeps switching, after it).
func TestPublishMatchesResult(t *testing.T) {
	for _, bench := range []string{"lusearch", "cassandra"} {
		spec, err := core.BuildRunSpec(core.Config{
			Benchmark: bench, Mutators: 16, Clients: 64, Requests: 10000, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := jvm.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		reg := evtrace.NewRegistry()
		res.Publish(reg)
		got := map[string]float64{}
		for _, m := range reg.Current() {
			got[m.Name] = m.Value
		}

		var copiedObjects, copiedBytes, promotedObjects, freedBytes int64
		for _, rep := range res.Reports {
			copiedObjects += rep.CopiedObjects
			copiedBytes += rep.CopiedBytes
			promotedObjects += rep.PromotedObjects
			freedBytes += rep.FreedBytes
		}
		last := res.Reports[len(res.Reports)-1]
		mon, ks := res.Monitor, res.Kernel
		want := map[string]float64{
			"jmutex.fast_acquires":          float64(mon.FastAcquires),
			"jmutex.slow_acquires":          float64(mon.SlowAcquires),
			"jmutex.owner_reacquires":       float64(mon.OwnerReacquires),
			"jmutex.bypasses":               float64(mon.Bypasses),
			"jmutex.handoffs":               float64(mon.Handoffs),
			"jmutex.park_events":            float64(mon.ParkEvents),
			"jmutex.max_concurrent_seekers": float64(mon.MaxConcurrentSeekers),
			"taskq.steal_attempts":          float64(res.Steal.TotalAttempts()),
			"taskq.steal_failures":          float64(res.Steal.TotalFailures()),
			"taskq.steal_failure_rate":      res.Steal.FailureRate(),
			"cfs.preemptions":               float64(ks.Preemptions),
			"cfs.wake_preemptions":          float64(ks.WakePreemptions),
			"cfs.newidle_pulls":             float64(ks.NewIdlePulls),
			"cfs.periodic_pulls":            float64(ks.PeriodicPulls),
			"cfs.context_switches":          float64(ks.ContextSwitches),
			"gc.collections":                float64(len(res.Reports)),
			"gc.copied_objects":             float64(copiedObjects),
			"gc.copied_bytes":               float64(copiedBytes),
			"gc.promoted_objects":           float64(promotedObjects),
			"gc.freed_bytes":                float64(freedBytes),
			"gc.last_pause_ms":              (last.End - last.Start).Millis(),
		}
		for name, w := range want {
			if g, ok := got[name]; !ok || g != w {
				t.Errorf("%s: published %s = %v (present %v), result says %v", bench, name, g, ok, w)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: published %s has no result field in this test", bench, name)
			}
		}
	}
}
