package check

import (
	"repro/internal/evtrace"
	"repro/internal/jvm"
	"repro/internal/postmortem"
	"repro/internal/schedtrace"
)

// Observers selects what watches a run; Run is the one path every
// observed run takes (gcsim, experiment cells, checked sweep cells and
// their triage replays, gcsimd). Every observer is a bus subscriber and
// never perturbs the run. The zero value runs with no tracer at all.
type Observers struct {
	Check          bool   // the cross-layer invariant checker
	Postmortem     bool   // the pause-postmortem analyzer
	LockProfile    bool   // the per-monitor lock-contention profiler
	Timeline       bool   // the scheduling timeline recorder (§3.3)
	AcquisitionLog string // the monitor whose Lock acquisitions to log (§3.2)
	// Rings > 0 keeps the last Rings records of each layer, for a Perfetto
	// export or a triage window. The subscribers read the stream as it
	// passes, so without Rings the run gets a bus that keeps no records.
	Rings int
	// Attach, when set, subscribes a consumer of the caller's own to the
	// run's tracer, after the observers above.
	Attach func(*evtrace.Tracer)
}

// Observed is one run's results and the observers that watched it (nil
// where unset). Tracer is nil when nothing observed the run, and holds
// records only when Rings > 0.
type Observed struct {
	Results      []*jvm.Result
	Tracer       *evtrace.Tracer
	Checker      *Checker
	Analyzer     *postmortem.Analyzer
	Profiler     *evtrace.LockProfiler
	Timeline     *schedtrace.Recorder
	Acquisitions *evtrace.AcquisitionLog
}

// Run runs cfgs side by side on spec's machine (jvm.RunJVMs; no cfgs runs
// spec.Config alone), replacing spec.EvTracer with the tracer o calls
// for. It attaches the observers in field order and, once the run is
// done, finishes them in a fixed order, checker then analyzer, so exports
// made from the returned set read finished observers. On error they are
// left unfinished, and Tracer holds what the rings kept.
func (o Observers) Run(spec jvm.RunSpec, cfgs ...jvm.Config) (*Observed, error) {
	ob := o.attach()
	return ob, ob.run(spec, cfgs)
}

func (o Observers) attach() *Observed {
	ob := &Observed{}
	switch {
	case o.Rings > 0:
		ob.Tracer = evtrace.New(o.Rings)
	case o.Check || o.Postmortem || o.LockProfile || o.Timeline || o.AcquisitionLog != "" || o.Attach != nil:
		ob.Tracer = evtrace.NewBus()
	default:
		return ob
	}
	if o.Check {
		ob.Checker = New()
		ob.Checker.Attach(ob.Tracer)
	}
	if o.Postmortem {
		ob.Analyzer = postmortem.New()
		ob.Analyzer.Attach(ob.Tracer)
	}
	if o.LockProfile {
		ob.Profiler = new(evtrace.LockProfiler)
		ob.Profiler.Attach(ob.Tracer)
	}
	if o.Timeline {
		ob.Timeline = new(schedtrace.Recorder)
		ob.Timeline.Attach(ob.Tracer)
	}
	if o.AcquisitionLog != "" {
		ob.Acquisitions = &evtrace.AcquisitionLog{Lock: o.AcquisitionLog}
		ob.Acquisitions.Attach(ob.Tracer)
	}
	if o.Attach != nil {
		o.Attach(ob.Tracer)
	}
	return ob
}

func (ob *Observed) run(spec jvm.RunSpec, cfgs []jvm.Config) (err error) {
	if len(cfgs) == 0 {
		cfgs = []jvm.Config{spec.Config}
	}
	spec.EvTracer = ob.Tracer
	if ob.Results, err = jvm.RunJVMs(spec, cfgs...); err != nil {
		return err
	}
	if ob.Checker != nil {
		ob.Checker.Finish()
	}
	if ob.Analyzer != nil {
		ob.Analyzer.Finish()
	}
	return nil
}
