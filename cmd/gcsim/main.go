// Command gcsim runs one benchmark on the simulated testbed and prints a
// GC-log-style summary, optionally comparing the vanilla JVM with the
// paper's optimizations.
//
// Usage:
//
//	gcsim -bench lusearch -mutators 16 -opt all
//	gcsim -bench cassandra -clients 256 -requests 20000 -compare
//	gcsim -list
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/check"
	"repro/internal/cmdutil"
	"repro/internal/core"
	"repro/internal/evtrace"
	"repro/internal/gclog"
	"repro/internal/jvm"
	"repro/internal/postmortem"
	"repro/internal/schedtrace"
	"repro/internal/stats"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(argv []string) int {
	fs := flag.NewFlagSet("gcsim", flag.ContinueOnError)
	var (
		bench    = fs.String("bench", "lusearch", "benchmark name (see -list)")
		list     = fs.Bool("list", false, "list available benchmarks and exit")
		mutators = fs.Int("mutators", 16, "number of mutator threads")
		gcth     = fs.Int("gcthreads", 0, "GC threads (0 = HotSpot heuristic)")
		heapMB   = fs.Int("heap", 0, "heap size in MB (0 = Table-2 default)")
		opt      = fs.String("opt", "none", "optimizations: none|affinity|steal|all")
		compare  = fs.Bool("compare", false, "run vanilla and optimized, print both")
		clients  = fs.Int("clients", 64, "closed-loop clients (server benchmarks)")
		requests = fs.Int("requests", 10000, "total requests (server benchmarks)")
		busy     = fs.Int("busyloops", 0, "interfering busy-loop threads")
		smt      = fs.Bool("smt", false, "enable SMT (40 logical CPUs)")
		seed     = fs.Int64("seed", 42, "simulation seed")
		gclogF   = fs.Bool("gclog", false, "print a HotSpot-style GC log")
		gcjson   = fs.String("gcjson", "", "write the run (GC log + monitor/steal/metrics counters) as JSON to a file")
		timeline = fs.Bool("timeline", false, "render a scheduling timeline around a mid-run GC")
		runs     = fs.Int("runs", 1, "average over this many seeds (the paper averages 10 runs)")

		evtraceOut = fs.String("evtrace", "", "write a Perfetto trace-event JSON file (load in ui.perfetto.dev)")
		evtraceCap = fs.Int("evtrace-cap", evtrace.DefaultSinkCap, "event-ring capacity per layer (oldest events are dropped beyond this)")
		lockprof   = fs.Bool("lockprofile", false, "print the GCTaskManager lock-contention profile (ownership transitions, reacquisition runs)")
		metricsF   = fs.Bool("metrics", false, "print the unified metrics registry after the run")
		checkF     = fs.Bool("check", false, "run the cross-layer invariant checker online (exit 1 on violation)")

		postmortemF    = fs.Bool("postmortem", false, "attribute every pause to blame buckets and print the run postmortem")
		postmortemJSON = fs.String("postmortem-json", "", "write the pause postmortem as JSON to a file (compare with cmd/gcreport)")
		postmortemWin  = fs.String("postmortem-trace", "", "write a Perfetto trace window around the worst pause to a file")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	// Every file output registers here, and every exit path funnels
	// through exit/fail, so buffered artifacts are flushed and closed no
	// matter which branch ends the run — the old direct os.Exit calls
	// skipped the deferred closes.
	var outs []*cmdutil.Output
	newOut := func(path string) (*cmdutil.Output, error) {
		o, err := cmdutil.NewOutput(path)
		if err == nil {
			outs = append(outs, o)
		}
		return o, err
	}
	exit := func(code int) int { return cmdutil.Exit(code, outs...) }
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "gcsim:", err)
		return exit(1)
	}

	if *list {
		tab := stats.NewTable("benchmarks", "name", "suite", "heap(MB)", "class")
		for _, b := range core.Benchmarks() {
			class := "batch"
			if b.ServiceCompute > 0 {
				class = "server"
			}
			tab.AddRow(b.Name, b.Suite, b.HeapMB, class)
		}
		tab.Render(os.Stdout)
		return 0
	}

	levels := map[string]core.Optimizations{
		"none": core.OptNone, "affinity": core.OptAffinity,
		"steal": core.OptSteal, "all": core.OptAll,
	}
	level, ok := levels[*opt]
	if !ok {
		fmt.Fprintf(os.Stderr, "gcsim: unknown -opt %q (none|affinity|steal|all)\n", *opt)
		return 2
	}

	cfg := core.Config{
		Benchmark: *bench, Mutators: *mutators, GCThreads: *gcth,
		HeapMB: *heapMB, Optimizations: level,
		Clients: *clients, Requests: *requests,
		BusyLoops: *busy, SMT: *smt, Seed: *seed,
	}

	if *timeline {
		if err := renderTimeline(cfg); err != nil {
			return fail(err)
		}
		return 0
	}

	if *compare {
		if *runs > 1 {
			if err := compareRuns(cfg, *runs); err != nil {
				return fail(err)
			}
			return 0
		}
		van, optres, err := core.Compare(cfg)
		if err != nil {
			return fail(err)
		}
		report("vanilla", van, *gclogF)
		report("optimized", optres, *gclogF)
		fmt.Printf("improvement: total %.1f%%, GC %.1f%%\n",
			100*stats.Improvement(float64(van.TotalTime), float64(optres.TotalTime)),
			100*stats.Improvement(float64(van.GCTime), float64(optres.GCTime)))
		return 0
	}

	spec, err := core.BuildRunSpec(cfg)
	if err != nil {
		return fail(err)
	}
	// Observability hooks: the event bus feeds the Perfetto export, the
	// lock profiler, the checker and the postmortem analyzer; the registry
	// feeds -metrics and -gcjson. Only the two trace exports read the
	// rings, so without them the bus keeps no records.
	wantPostmortem := *postmortemF || *postmortemJSON != "" || *postmortemWin != ""
	var tracer *evtrace.Tracer
	switch {
	case *evtraceOut != "" || *postmortemWin != "":
		tracer = evtrace.New(*evtraceCap)
	case *lockprof || *checkF || wantPostmortem:
		tracer = evtrace.NewBus()
	}
	spec.EvTracer = tracer
	var profiler *evtrace.LockProfiler
	if *lockprof {
		profiler = new(evtrace.LockProfiler)
		profiler.Attach(tracer)
	}
	var checker *check.Checker
	if *checkF {
		checker = check.New()
		checker.Attach(tracer)
	}
	var analyzer *postmortem.Analyzer
	if wantPostmortem {
		analyzer = postmortem.New()
		analyzer.Attach(tracer)
	}
	var reg *evtrace.Registry
	if *metricsF || *gcjson != "" {
		reg = evtrace.NewRegistry()
		spec.Metrics = reg
	}
	res, err := jvm.Run(spec)
	if err != nil {
		return fail(err)
	}
	report(*opt, res, *gclogF)
	if checker != nil {
		checker.Finish()
		fmt.Print(checker.Report())
	}
	if analyzer != nil {
		analyzer.Finish()
	}
	if *postmortemF {
		analyzer.Postmortem().Render(os.Stdout)
	}
	if *postmortemJSON != "" {
		f, err := newOut(*postmortemJSON)
		if err != nil {
			return fail(err)
		}
		if err := gclog.WritePostmortemJSON(f, analyzer); err != nil {
			return fail(err)
		}
	}
	if *postmortemWin != "" {
		reports := analyzer.Postmortem().Worst
		if len(reports) == 0 {
			return fail(fmt.Errorf("-postmortem-trace: no collections observed"))
		}
		worst := reports[0]
		f, err := newOut(*postmortemWin)
		if err != nil {
			return fail(err)
		}
		if err := evtrace.WritePerfettoWindow(f, tracer, worst.SeqLo, worst.SeqHi); err != nil {
			return fail(err)
		}
		fmt.Printf("wrote worst-pause window (gc=%d pause=%.3fms events=[%d..%d]) to %s\n",
			worst.Seq, float64(worst.PauseNs())/1e6, worst.SeqLo, worst.SeqHi, *postmortemWin)
	}
	if *evtraceOut != "" {
		f, err := newOut(*evtraceOut)
		if err != nil {
			return fail(err)
		}
		if err := evtrace.WritePerfetto(f, tracer); err != nil {
			return fail(err)
		}
		fmt.Printf("wrote %d trace events to %s (open in https://ui.perfetto.dev)\n", tracer.Len(), *evtraceOut)
		drops := tracer.Drops()
		for _, l := range evtrace.Layers() {
			if d := drops[l]; d > 0 {
				fmt.Printf("  warning: %s ring dropped %d events (raise -evtrace-cap for a complete export)\n", l, d)
			}
		}
	}
	if profiler != nil {
		profiler.Profile("GCTaskManager").Render(os.Stdout)
	}
	if *metricsF {
		fmt.Println("metrics:")
		reg.Render(os.Stdout)
	}
	if *gcjson != "" {
		f, err := newOut(*gcjson)
		if err != nil {
			return fail(err)
		}
		if err := gclog.WriteRunJSON(f, res.Reports, res.Monitor, res.Steal, reg.Current()); err != nil {
			return fail(err)
		}
	}
	if checker != nil && checker.Total() > 0 {
		// The -gcjson artifact of a violating run is still flushed whole:
		// a checker failure must not truncate the evidence.
		return exit(1)
	}
	return exit(0)
}

func report(label string, r *core.Result, printLog bool) {
	fmt.Printf("[%s] %s: mutators=%d gcthreads=%d\n", label, r.Benchmark, r.Mutators, r.GCThreads)
	fmt.Printf("  total=%v mutator=%v gc=%v (%.1f%%)\n",
		r.TotalTime, r.MutatorTime, r.GCTime, 100*r.GCRatio())
	fmt.Printf("  collections: %d minor (%v), %d major (%v)\n",
		r.MinorGCs, r.MinorGCTime, r.MajorGCs, r.MajorGCTime)
	fmt.Printf("  steals: %d attempts, %.1f%% failed; monitor: %d fast, %d slow, %d owner-reacquires; rebinds: %d; mutator deep-wakes: %d\n",
		r.Steal.TotalAttempts(), 100*r.Steal.FailureRate(),
		r.Monitor.FastAcquires, r.Monitor.SlowAcquires, r.Monitor.OwnerReacquires, r.Rebinds, r.MutatorDeepWakes)
	if r.Latency.N() > 0 {
		fmt.Printf("  latency(ms): median=%.2f mean=%.2f p95=%.2f p99=%.2f p99.9=%.2f (%.0f ops/s)\n",
			r.Latency.Median(), r.Latency.Mean(), r.Latency.Percentile(95),
			r.Latency.Percentile(99), r.Latency.Percentile(99.9), r.ThroughputOPS)
	}
	if r.Err != nil {
		fmt.Printf("  ERROR: %v\n", r.Err)
	}
	if printLog {
		gclog.Write(os.Stdout, r.Reports)
	}
}

// renderTimeline runs the configuration with a schedtrace recorder on the
// event bus and draws the timeline around a representative mid-run GC.
func renderTimeline(cfg core.Config) error {
	spec, err := core.BuildRunSpec(cfg)
	if err != nil {
		return err
	}
	// The recorder subscribes to the events it reads, so the bus keeps no
	// records.
	spec.EvTracer = evtrace.NewBus()
	var rec schedtrace.Recorder
	rec.Attach(spec.EvTracer)
	r, err := jvm.Run(spec)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("%s (%s)", r.Benchmark, cfg.Optimizations)
	return schedtrace.RenderMidGC(os.Stdout, &rec, r.NumCPUs, r.Reports, title)
}

// compareRuns averages vanilla and optimized over several seeds — the
// paper's methodology ("each result was the average of 10 runs").
func compareRuns(cfg core.Config, runs int) error {
	var vanTot, vanGC, optTot, optGC stats.Histogram
	for i := 0; i < runs; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		van, opt, err := core.Compare(c)
		if err != nil {
			return err
		}
		vanTot.Add(van.TotalTime.Millis())
		vanGC.Add(van.GCTime.Millis())
		optTot.Add(opt.TotalTime.Millis())
		optGC.Add(opt.GCTime.Millis())
	}
	tab := stats.NewTable(fmt.Sprintf("%s, mean of %d runs (min..max)", cfg.Benchmark, runs),
		"config", "total(ms)", "total-range", "gc(ms)", "gc-range")
	row := func(name string, tot, gc *stats.Histogram) {
		tab.AddRow(name, tot.Mean(),
			fmt.Sprintf("%.0f..%.0f", tot.Percentile(0), tot.Percentile(100)),
			gc.Mean(),
			fmt.Sprintf("%.0f..%.0f", gc.Percentile(0), gc.Percentile(100)))
	}
	row("vanilla", &vanTot, &vanGC)
	row("optimized", &optTot, &optGC)
	tab.Render(os.Stdout)
	fmt.Printf("mean improvement: total %.1f%%, GC %.1f%%\n",
		100*stats.Improvement(vanTot.Mean(), optTot.Mean()),
		100*stats.Improvement(vanGC.Mean(), optGC.Mean()))
	return nil
}
