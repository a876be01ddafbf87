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
	fig10 := func(tr *evtrace.Tracer) error {
		cfg := jvm.Config{Profile: p, Mutators: 16}
		_, err := jvm.Run(jvm.RunSpec{Config: cfg, Seed: 10000, EvTracer: tr})
		return err
	}
	busy := func(tr *evtrace.Tracer) error {
		cfg := jvm.Config{Profile: p, Mutators: 8}
		_, err := jvm.Run(jvm.RunSpec{Config: cfg, Seed: 42, BusyLoops: 4, EvTracer: tr})
		return err
	}
	multi := check.CellAt(42, 4)
	if !multi.MultiJVM {
		t.Fatalf("%s is not a multi-JVM cell", multi)
	}
	sweep := func(tr *evtrace.Tracer) error {
		_, err := check.Simulate(multi, 0, tr)
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
		sim  func(*evtrace.Tracer) error
	}{{"fig10", fig10}, {"multi-jvm", sweep}, {"busy-loops", busy}} {
		for _, c := range consumers {
			t.Run(run.name+"/"+c.name, func(t *testing.T) {
				outputs := make([]any, 2)
				for i, widen := range []bool{false, true} {
					tr := evtrace.NewBus()
					out := c.attach(tr)
					if n := evtrace.SubscribedKinds(tr); n == 0 || !widen && n >= evtrace.NumKinds {
						t.Fatalf("%s subscribes to %d kinds", c.name, n)
					}
					if widen {
						evtrace.WidenToAllKinds(tr)
					}
					if err := run.sim(tr); err != nil {
						t.Fatal(err)
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
