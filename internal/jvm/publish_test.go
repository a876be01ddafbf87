package jvm_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/evtrace"
	"repro/internal/jvm"
	"repro/internal/pscavenge"
)

// Every counter Publish writes equals the Result field it names: the
// registry renders the finished run, so no counter may stop at the last
// collection while the run goes on (the GC threads re-take the
// GCTaskManager monitor, and the kernel keeps switching, after it). Every
// integer field of the jmutex, cfs, heap and gc-totals stats structs is
// published under its json tag, and the names published before the stats
// structs carried tags keep their values.
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
		// The derived entries, and the names published before the counter
		// table, spelled out.
		explicit := map[string]float64{
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
			"cfs.body_resumes":              float64(ks.BodyResumes),
			"cfs.burst_elisions":            float64(ks.BurstElisions),
			"gc.collections":                float64(len(res.Reports)),
			"gc.copied_objects":             float64(copiedObjects),
			"gc.copied_bytes":               float64(copiedBytes),
			"gc.promoted_objects":           float64(promotedObjects),
			"gc.freed_bytes":                float64(freedBytes),
			"gc.last_pause_ms":              (last.End - last.Start).Millis(),
			"simkit.events_fired":           float64(res.EventsFired),
		}
		want := map[string]float64{}
		for name, w := range explicit {
			want[name] = w
		}
		for prefix, v := range map[string]any{
			"jmutex": res.Monitor, "cfs": res.Kernel, "heap": res.Heap,
			"gc": pscavenge.Aggregate(res.Reports, -1),
		} {
			for name, w := range intFields(t, prefix, v) {
				if e, ok := explicit[name]; ok && e != w {
					t.Errorf("%s: %s field value %v, spelled-out value %v", bench, name, w, e)
				}
				want[name] = w
			}
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

// intFields maps prefix.<json tag> to the value of every integer field of
// the struct v, skipping fields tagged "-".
func intFields(t *testing.T, prefix string, v any) map[string]float64 {
	out := map[string]float64{}
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Type().Field(i)
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		fv := rv.Field(i)
		if tag == "-" || !fv.CanInt() {
			continue
		}
		if tag == "" {
			t.Errorf("%s.%s has no json tag", rv.Type(), f.Name)
		}
		out[prefix+"."+tag] = float64(fv.Int())
	}
	return out
}
