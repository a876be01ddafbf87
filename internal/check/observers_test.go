package check

import (
	"testing"

	"repro/internal/evtrace"
)

// TestObserversMatchBare: a single-JVM and a multi-JVM cell run through
// the observer set with every observer on and rings kept reproduce the
// bare run's digest, the checker stays silent, and every observer comes
// back attached to the one tracer and finished.
func TestObserversMatchBare(t *testing.T) {
	all := Observers{
		Check: true, Postmortem: true, LockProfile: true, Timeline: true,
		AcquisitionLog: "GCTaskManager", Rings: evtrace.DefaultSinkCap,
	}
	for _, i := range []int{0, 4} { // cell 4 of the seed-42 space is multi-JVM
		cell := CellAt(42, i)
		if cell.MultiJVM != (i == 4) {
			t.Fatalf("%s: MultiJVM = %v", cell, cell.MultiJVM)
		}
		bare, err := Simulate(cell, 0, Observers{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if bare.Tracer != nil {
			t.Errorf("%s: a run with no observer got a tracer", cell)
		}
		var attached *evtrace.Tracer
		obs := all
		obs.Attach = func(tr *evtrace.Tracer) { attached = tr }
		ob, err := Simulate(cell, 0, obs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := digestResults(ob.Results), digestResults(bare.Results); got != want {
			t.Errorf("%s: observed digest %s != bare digest %s", cell, short(got), short(want))
		}
		jvms := 1
		if cell.MultiJVM {
			jvms = 2
		}
		if len(ob.Results) != jvms || len(bare.Results) != jvms {
			t.Errorf("%s: %d observed and %d bare results", cell, len(ob.Results), len(bare.Results))
		}
		if ob.Tracer == nil || attached != ob.Tracer || ob.Tracer.Len() == 0 || len(ob.Tracer.Drops()) != 0 {
			t.Fatalf("%s: the caller's subscriber and the rings do not share one complete tracer", cell)
		}
		// Finish order: the checker's end-of-run checks, then the
		// analyzer, both before Run returns.
		if !ob.Checker.finished || ob.Checker.Total() != 0 || ob.Checker.EventsSeen() != uint64(ob.Tracer.Len()) {
			t.Errorf("%s: checker finished=%v, %d violations, saw %d of %d events\n%s", cell,
				ob.Checker.finished, ob.Checker.Total(), ob.Checker.EventsSeen(), ob.Tracer.Len(), ob.Checker.Report())
		}
		if ex := ob.Analyzer.Export(); ex.Collections == 0 || len(ex.Verify()) != 0 {
			t.Errorf("%s: postmortem holds %d pauses, sum violations %v", cell, ex.Collections, ex.Verify())
		}
		if len(ob.Profiler.Profiles()) == 0 || len(ob.Timeline.Segments()) == 0 {
			t.Errorf("%s: lock profiler or timeline recorded nothing", cell)
		}
		if !cell.MultiJVM && len(ob.Acquisitions.Entries) == 0 {
			t.Errorf("%s: acquisition log recorded nothing", cell)
		}
	}
}
