package evtrace_test

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/evtrace"
	"repro/internal/jmutex"
	"repro/internal/jvm"
	"repro/internal/ostopo"
	"repro/internal/simkit"
	"repro/internal/workload"
)

// TestLockProfilesMultiJVM runs two JVMs on one shared machine and checks
// the per-monitor profiles: each instance's "GCTaskManager#N" monitor
// gets its own profile, every acquisition is attributed to exactly one of
// them, and the merged (lock == "") profile agrees with their sum — the
// multi-JVM contract of the per-monitor ownership cursor.
func TestLockProfilesMultiJVM(t *testing.T) {
	p := workload.Lusearch()
	p.TotalItems = 1500
	cfg := jvm.Config{Profile: p, Mutators: 4, GCThreads: 4}
	tr := evtrace.NewBus()
	var lp evtrace.LockProfiler
	lp.Attach(tr)
	_, err := jvm.RunMultiTraced(42, ostopo.PaperTestbed(), nil, 0,
		5*60*simkit.Second, tr, cfg, cfg)
	if err != nil {
		t.Fatal(err)
	}

	profiles := lp.Profiles()
	if len(profiles) < 2 {
		t.Fatalf("got %d monitor profiles, want >= 2 (one per JVM)", len(profiles))
	}
	var totalAcquires int
	names := map[string]bool{}
	for _, lp := range profiles {
		if names[lp.Lock] {
			t.Errorf("duplicate profile for monitor %q", lp.Lock)
		}
		names[lp.Lock] = true
		if lp.Acquires == 0 {
			t.Errorf("monitor %q recorded no acquisitions", lp.Lock)
		}
		totalAcquires += lp.Acquires
	}
	merged := lp.Profile("")
	if merged.Acquires != totalAcquires {
		t.Errorf("merged profile has %d acquisitions, per-monitor sum is %d",
			merged.Acquires, totalAcquires)
	}
}

// TestLockProfileFixture: `gcsim -bench lusearch -mutators 8 -gcthreads 4
// -lockprofile` renders byte-identically to the committed fixture, which
// was captured from the ring re-scan the fold replaced, on a run whose
// jmutex ring dropped nothing.
func TestLockProfileFixture(t *testing.T) {
	want, err := os.ReadFile("testdata/gcsim_lockprofile_lusearch.txt")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := core.BuildRunSpec(core.Config{
		Benchmark: "lusearch", Mutators: 8, GCThreads: 4,
		Clients: 64, Requests: 10000, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec.EvTracer = evtrace.NewBus()
	var lp evtrace.LockProfiler
	lp.Attach(spec.EvTracer)
	if _, err := jvm.Run(spec); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	lp.Profile("GCTaskManager").Render(&got)
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("lock profile differs from the fixture:\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}

// TestAcquisitionLogCountsEveryLock: on both monitor disciplines the
// acquisition log holds one entry per Lock acquisition of the
// GCTaskManager — the monitor's fast plus slow acquisitions, less the
// Wait re-acquisitions (KLockHandoff with Arg2 == 1), which are not Lock
// calls. FairFIFO hands every queued acquisition off directly, so a log
// that only saw the competitive slow path would miss most of them there.
func TestAcquisitionLogCountsEveryLock(t *testing.T) {
	for _, pol := range []jmutex.Policy{jmutex.PolicyHotSpot, jmutex.PolicyFairFIFO} {
		t.Run(pol.String(), func(t *testing.T) {
			p := workload.Lusearch()
			p.TotalItems /= 4
			cfg := jvm.Config{Profile: p, Mutators: 16, MutexPolicy: pol}
			tr := evtrace.New(1)
			acqs := &evtrace.AcquisitionLog{Lock: "GCTaskManager"}
			acqs.Attach(tr)
			waits, handoffs := 0, 0
			tr.Subscribe(func(e evtrace.Event) {
				if e.Kind == evtrace.KLockHandoff && e.Name == acqs.Lock {
					handoffs++
					if e.Arg2 == 1 {
						waits++
					}
				}
			})
			r, err := jvm.Run(jvm.RunSpec{Config: cfg, Seed: 42, EvTracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			m := r.Monitor
			if want := m.FastAcquires + m.SlowAcquires - waits; len(acqs.Entries) != want {
				t.Errorf("log has %d entries, want fast %d + slow %d - wait re-acquisitions %d = %d",
					len(acqs.Entries), m.FastAcquires, m.SlowAcquires, waits, want)
			}
			slow := 0
			for _, a := range acqs.Entries {
				if !a.Fast {
					slow++
				}
				if a.Thread == "" {
					t.Fatalf("entry %+v has no thread name", a)
				}
			}
			if slow != handoffs-waits || pol == jmutex.PolicyFairFIFO && slow == 0 {
				t.Errorf("log has %d queued acquisitions, bus has %d Lock handoffs", slow, handoffs-waits)
			}
		})
	}
}
