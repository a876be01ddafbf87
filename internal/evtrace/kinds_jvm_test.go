package evtrace_test

import (
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/evtrace"
	"repro/internal/jvm"
	"repro/internal/postmortem"
	"repro/internal/schedtrace"
	"repro/internal/workload"
)

// TestKindSubscriptionsMatchCatchAll: each bus consumer that declares the
// kinds it reads — the postmortem analyzer, the scheduling Recorder and
// the AcquisitionLog — gives identical output when it is instead
// subscribed to every kind, on a Fig10 cell and on a multi-JVM sweep cell.
func TestKindSubscriptionsMatchCatchAll(t *testing.T) {
	p := workload.Lusearch()
	p.TotalItems /= 8
	// Each run calls attach with its bus before it starts.
	fig10 := func(attach func(*evtrace.Tracer)) error {
		cfg := jvm.Config{Profile: p, Mutators: 16}
		tr := evtrace.NewBus()
		attach(tr)
		_, err := jvm.Run(jvm.RunSpec{Config: cfg, Seed: 10000, EvTracer: tr})
		return err
	}
	busy := func(attach func(*evtrace.Tracer)) error {
		cfg := jvm.Config{Profile: p, Mutators: 8}
		tr := evtrace.NewBus()
		attach(tr)
		_, err := jvm.Run(jvm.RunSpec{Config: cfg, Seed: 42, BusyLoops: 4, EvTracer: tr})
		return err
	}
	multi := check.CellAt(42, 4)
	if !multi.MultiJVM {
		t.Fatalf("%s is not a multi-JVM cell", multi)
	}
	sweep := func(attach func(*evtrace.Tracer)) error {
		_, err := check.Simulate(multi, 0, check.Observers{Attach: attach}, nil)
		return err
	}

	type consumer struct {
		name   string
		attach func(tr *evtrace.Tracer) (output func() any)
	}
	consumers := []consumer{
		{"postmortem.Analyzer", func(tr *evtrace.Tracer) func() any {
			an := postmortem.New()
			an.Attach(tr)
			return func() any { an.Finish(); return an.Export() }
		}},
		{"schedtrace.Recorder", func(tr *evtrace.Tracer) func() any {
			var r schedtrace.Recorder
			r.Attach(tr)
			return func() any { return r.Segments() }
		}},
		{"evtrace.AcquisitionLog", func(tr *evtrace.Tracer) func() any {
			l := &evtrace.AcquisitionLog{Lock: "GCTaskManager"}
			l.Attach(tr)
			return func() any { return l.Entries }
		}},
	}
	for _, run := range []struct {
		name string
		sim  func(attach func(*evtrace.Tracer)) error
	}{{"fig10", fig10}, {"multi-jvm", sweep}, {"busy-loops", busy}} {
		for _, c := range consumers {
			t.Run(run.name+"/"+c.name, func(t *testing.T) {
				outputs := make([]any, 2)
				for i, widen := range []bool{false, true} {
					var out func() any
					kinds := 0
					err := run.sim(func(tr *evtrace.Tracer) {
						out = c.attach(tr)
						kinds = evtrace.SubscribedKinds(tr)
						if widen {
							evtrace.WidenToAllKinds(tr)
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					if kinds == 0 || !widen && kinds >= evtrace.NumKinds {
						t.Fatalf("%s subscribes to %d kinds", c.name, kinds)
					}
					outputs[i] = out()
				}
				if reflect.ValueOf(outputs[0]).IsZero() {
					t.Fatalf("%s produced no output", c.name)
				}
				if !reflect.DeepEqual(outputs[0], outputs[1]) {
					t.Errorf("%s: output through its kind set differs from the catch-all subscription", c.name)
				}
			})
		}
	}
}
