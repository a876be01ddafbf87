package experiments

// This file regenerates the evaluation-section artifacts: Figs. 8-16 and
// the two ablations (§4.1's rejected mutex fixes, §6.1's SmartStealing).

import (
	"repro/internal/affinity"
	"repro/internal/check"
	"repro/internal/jmutex"
	"repro/internal/jvm"
	"repro/internal/ostopo"
	"repro/internal/runner"
	"repro/internal/simkit"
	"repro/internal/stats"
	"repro/internal/taskq"
	"repro/internal/workload"
)

// Fig8 reproduces Figure 8: thread and task balance of a lusearch minor GC
// with the affinity optimizations enabled.
func Fig8(opt Options) *Result {
	opt = opt.norm()
	p := opt.scaled(workload.Lusearch())
	r := runCells(opt, []cell{{jvm.Config{Profile: p, Mutators: 16}.WithAffinityOnly(), 8000, 0}})[0]
	res := &Result{ID: "fig8", Title: "Optimized lusearch: improved thread and task balance"}
	res.Tables = distributionTables(r, "optimized")
	res.Notes = append(res.Notes,
		"shape check vs fig4: GC threads spread across cores and all of them fetch root tasks")
	return res
}

// Fig9 reproduces Figure 9: steal attempts (relative to the default) and
// failure rates for the default and optimized stealing algorithms.
func Fig9(opt Options) *Result {
	opt = opt.norm()
	res := &Result{ID: "fig9", Title: "Optimized stealing: attempts and failure rate"}
	attempts := stats.NewTable("steal attempts relative to default (lower is better)",
		"benchmark", "default", "optimized", "ratio")
	failures := stats.NewTable("steal failure rate (lower is better)",
		"benchmark", "default", "optimized", "failed-attempts-reduction")
	benches := workload.Table1Benchmarks()
	var cells []cell
	for bi := range benches {
		benches[bi] = opt.scaled(benches[bi])
		base := jvm.Config{Profile: benches[bi], Mutators: 16}
		cells = append(cells,
			cell{base, int64(9000 + bi), 0},
			cell{base.WithStealOnly(), int64(9100 + bi), 0})
	}
	rs := runCells(opt, cells)
	for bi, p := range benches {
		d, o := rs[2*bi], rs[2*bi+1]
		attempts.AddRow(p.Name, d.Steal.TotalAttempts(), o.Steal.TotalAttempts(),
			stats.Ratio(float64(o.Steal.TotalAttempts()), float64(d.Steal.TotalAttempts())))
		failures.AddRow(p.Name, d.Steal.FailureRate(), o.Steal.FailureRate(),
			stats.Improvement(float64(d.Steal.TotalFailures()), float64(o.Steal.TotalFailures())))
	}
	res.Tables = append(res.Tables, attempts, failures)
	res.Notes = append(res.Notes, "paper: failed attempts drop by 18.3%-56.8% across benchmarks")
	return res
}

// Fig10 reproduces Figure 10: DaCapo execution time and SPECjvm2008
// throughput under vanilla / affinity-only / steal-only / together, plus
// the GC-time improvement of the combined optimizations.
func Fig10(opt Options) *Result {
	opt = opt.norm()
	res := &Result{ID: "fig10", Title: "Overall and GC performance improvement"}

	dacapoB, specB, gctB := workload.DaCapo(), workload.SPECjvm(), workload.Table1Benchmarks()
	var cells []cell
	for bi := range dacapoB {
		dacapoB[bi] = opt.scaled(dacapoB[bi])
		for ci, c := range fourConfigs(jvm.Config{Profile: dacapoB[bi], Mutators: 16}) {
			cells = append(cells, cell{c.Cfg, int64(10000 + bi*10 + ci), 0})
		}
	}
	specStart := len(cells)
	for bi := range specB {
		specB[bi] = opt.scaled(specB[bi])
		for ci, c := range fourConfigs(jvm.Config{Profile: specB[bi], Mutators: 16}) {
			cells = append(cells, cell{c.Cfg, int64(10500 + bi*10 + ci), 0})
		}
	}
	gctStart := len(cells)
	for bi := range gctB {
		gctB[bi] = opt.scaled(gctB[bi])
		base := jvm.Config{Profile: gctB[bi], Mutators: 16}
		cells = append(cells,
			cell{base, int64(11000 + bi), 0},
			cell{base.WithOptimizations(), int64(11100 + bi), 0})
	}
	rs := runCells(opt, cells)

	dacapo := stats.NewTable("(a) DaCapo execution time relative to vanilla (lower is better)",
		"benchmark", "vanilla", "w/ GC-affinity", "w/ steal", "together")
	for bi, p := range dacapoB {
		var vals []float64
		for ci := 0; ci < 4; ci++ {
			vals = append(vals, ms(rs[bi*4+ci].TotalTime))
		}
		dacapo.AddRow(p.Name, 1.0, stats.Ratio(vals[1], vals[0]),
			stats.Ratio(vals[2], vals[0]), stats.Ratio(vals[3], vals[0]))
	}

	spec := stats.NewTable("(b) SPECjvm2008 throughput relative to vanilla (higher is better)",
		"benchmark", "vanilla", "w/ GC-affinity", "w/ steal", "together")
	for bi, p := range specB {
		var vals []float64
		for ci := 0; ci < 4; ci++ {
			vals = append(vals, rs[specStart+bi*4+ci].ThroughputOPS)
		}
		spec.AddRow(p.Name, 1.0, stats.Ratio(vals[1], vals[0]),
			stats.Ratio(vals[2], vals[0]), stats.Ratio(vals[3], vals[0]))
	}

	gct := stats.NewTable("(c) GC time relative to vanilla (lower is better)",
		"benchmark", "vanilla(ms)", "optimized(ms)", "ratio", "improvement")
	for bi, p := range gctB {
		v, o := rs[gctStart+2*bi], rs[gctStart+2*bi+1]
		gct.AddRow(p.Name, ms(v.GCTime), ms(o.GCTime),
			stats.Ratio(ms(o.GCTime), ms(v.GCTime)),
			stats.Improvement(ms(v.GCTime), ms(o.GCTime)))
	}

	res.Tables = append(res.Tables, dacapo, spec, gct)
	res.Notes = append(res.Notes,
		"paper: GC-time improvement ranges from 20% (compiler.compiler) to 87.1% (sunflow); benchmarks with low Table-1 failure rates improve least")
	return res
}

// Fig11 reproduces Figure 11: the paper's optimizations vs the ported
// NUMA-aware baselines of Gidra et al. (node affinity; NUMA-restricted
// stealing).
func Fig11(opt Options) *Result {
	opt = opt.norm()
	res := &Result{ID: "fig11", Title: "Comparison with NUMA node affinity and NUMA-aware stealing"}

	benches := workload.Table1Benchmarks()
	var cells []cell
	for bi := range benches {
		benches[bi] = opt.scaled(benches[bi])
		base := jvm.Config{Profile: benches[bi], Mutators: 16}
		node := base
		node.Affinity = affinity.ModeNUMANode
		cells = append(cells,
			cell{base, int64(12000 + bi), 0},
			cell{node, int64(12100 + bi), 0},
			cell{base.WithAffinityOnly(), int64(12200 + bi), 0})
	}
	stlStart := len(cells)
	for bi := range benches {
		base := jvm.Config{Profile: benches[bi], Mutators: 16}
		numa := base
		numa.Steal = taskq.KindNUMARestricted
		numa.Affinity = affinity.ModeNUMANode // stealing within the node requires node binding
		cells = append(cells,
			cell{base, int64(12300 + bi), 0},
			cell{numa, int64(12400 + bi), 0},
			cell{base.WithStealOnly(), int64(12500 + bi), 0})
	}
	rs := runCells(opt, cells)

	aff := stats.NewTable("(a) affinity schemes: total time relative to vanilla (lower is better)",
		"benchmark", "vanilla", "node-affinity", "optimized-affinity")
	for bi, p := range benches {
		v, n, o := rs[3*bi], rs[3*bi+1], rs[3*bi+2]
		aff.AddRow(p.Name, 1.0,
			stats.Ratio(ms(n.TotalTime), ms(v.TotalTime)),
			stats.Ratio(ms(o.TotalTime), ms(v.TotalTime)))
	}

	stl := stats.NewTable("(b) stealing schemes: total time relative to vanilla (lower is better)",
		"benchmark", "vanilla", "numa-aware-stealing", "optimized-stealing")
	for bi, p := range benches {
		v, n, o := rs[stlStart+3*bi], rs[stlStart+3*bi+1], rs[stlStart+3*bi+2]
		stl.AddRow(p.Name, 1.0,
			stats.Ratio(ms(n.TotalTime), ms(v.TotalTime)),
			stats.Ratio(ms(o.TotalTime), ms(v.TotalTime)))
	}

	res.Tables = append(res.Tables, aff, stl)
	res.Notes = append(res.Notes,
		"paper: node affinity helps but stacking persists within a node, so per-core dynamic affinity wins; NUMA-restricted stealing is matched or beaten by semi-random stealing")
	return res
}

// Fig12 reproduces Figure 12: total and GC time for the five DaCapo
// benchmarks over 1-16 mutators, vanilla vs optimized.
func Fig12(opt Options) *Result {
	opt = opt.norm()
	res := &Result{ID: "fig12", Title: "DaCapo overall and GC scalability (vanilla vs optimized)"}
	benches := workload.DaCapo()
	var cells []cell
	for bi := range benches {
		benches[bi] = opt.scaled(benches[bi])
		for mi, m := range mutatorSweep {
			base := jvm.Config{Profile: benches[bi], Mutators: m}
			cells = append(cells,
				cell{base, int64(13000 + bi*100 + mi), 0},
				cell{base.WithOptimizations(), int64(13050 + bi*100 + mi), 0})
		}
	}
	rs := runCells(opt, cells)
	for bi, p := range benches {
		tab := stats.NewTable(p.Name,
			"mutators", "vanilla-total(ms)", "opt-total(ms)", "vanilla-gc(ms)", "opt-gc(ms)")
		for mi, m := range mutatorSweep {
			k := 2 * (bi*len(mutatorSweep) + mi)
			v, o := rs[k], rs[k+1]
			tab.AddRow(m, ms(v.TotalTime), ms(o.TotalTime), ms(v.GCTime), ms(o.GCTime))
		}
		res.Tables = append(res.Tables, tab)
	}
	res.Notes = append(res.Notes,
		"shape checks: h2/jython stagnate with more mutators; lusearch/sunflow/xalan scale; optimized GC time stays low and insensitive to mutator count")
	return res
}

// Fig13 reproduces Figure 13: Spark job times (small/large/huge), Cassandra
// read and write latency percentiles, and application GC time.
func Fig13(opt Options) *Result {
	opt = opt.norm()
	res := &Result{ID: "fig13", Title: "Application results: HiBench on Spark and Cassandra"}

	spark := stats.NewTable("(a) Spark total time, optimized relative to vanilla (lower is better)",
		"job", "vanilla(ms)", "optimized(ms)", "ratio", "status")
	gct := stats.NewTable("(d) application GC time, optimized relative to vanilla",
		"job", "vanilla-gc(ms)", "optimized-gc(ms)", "ratio", "major-share(vanilla)")
	jobs := []workload.Profile{
		workload.Wordcount(workload.SizeSmall), workload.Wordcount(workload.SizeLarge), workload.Wordcount(workload.SizeHuge),
		workload.Kmeans(workload.SizeSmall), workload.Kmeans(workload.SizeLarge), workload.Kmeans(workload.SizeHuge),
		workload.Pagerank(workload.SizeSmall), workload.Pagerank(workload.SizeLarge), workload.Pagerank(workload.SizeHuge),
	}
	var cells []cell
	for bi := range jobs {
		jobs[bi] = opt.scaled(jobs[bi])
		base := jvm.Config{Profile: jobs[bi], Mutators: 16}
		cells = append(cells,
			cell{base, int64(14000 + bi), 0},
			cell{base.WithOptimizations(), int64(14100 + bi), 0})
	}
	cassStart := len(cells)
	kinds := []string{"write", "read"}
	for i, kind := range kinds {
		p := workload.Cassandra()
		if kind == "write" {
			// Writes carry commit-log work: heavier service and allocation.
			p.ServiceCompute = p.ServiceCompute * 13 / 10
			p.ServiceClusters++
		}
		base := jvm.Config{Profile: p, Mutators: 16, Clients: 256, Requests: opt.requests(20000)}
		cells = append(cells,
			cell{base, int64(14500 + i*10), 0},
			cell{base.WithOptimizations(), int64(14500 + i*10 + 1), 0})
	}
	rs := runCells(opt, cells)

	for bi, p := range jobs {
		v, o := rs[2*bi], rs[2*bi+1]
		status := "ok"
		if v.Err != nil || o.Err != nil {
			status = "OOM (as in the paper)"
		}
		spark.AddRow(p.Name, ms(v.TotalTime), ms(o.TotalTime),
			stats.Ratio(ms(o.TotalTime), ms(v.TotalTime)), status)
		majorShare := 0.0
		if v.GCTime > 0 {
			majorShare = float64(v.MajorGCTime) / float64(v.GCTime)
		}
		gct.AddRow(p.Name, ms(v.GCTime), ms(o.GCTime),
			stats.Ratio(ms(o.GCTime), ms(v.GCTime)), majorShare)
	}

	res.Tables = append(res.Tables, spark)
	for i, kind := range kinds {
		tab := stats.NewTable("(b/c) Cassandra "+kind+" latency (ms)",
			"config", "median", "mean", "p95", "p99")
		for vi, name := range []string{"vanilla", "optimized"} {
			r := rs[cassStart+2*i+vi]
			tab.AddRow(name, r.Latency.Median(), r.Latency.Mean(),
				r.Latency.Percentile(95), r.Latency.Percentile(99))
		}
		res.Tables = append(res.Tables, tab)
	}
	res.Tables = append(res.Tables, gct)
	res.Notes = append(res.Notes,
		"paper: biggest Spark gain 15.3% (kmeans/huge); optimizations mostly reduce minor GC, so full-GC-bound jobs improve less; Cassandra p99 read latency improves up to 43%")
	return res
}

// Fig14 reproduces Figure 14: total and GC time across heap sizes for
// lusearch (30-900 MB) and kmeans (8-32 GB).
func Fig14(opt Options) *Result {
	opt = opt.norm()
	res := &Result{ID: "fig14", Title: "Heap-size sweeps (vanilla vs optimized)"}

	heapsMB := []int{30, 90, 180, 360, 600, 900}
	heapsGB := []int{8, 16, 32}
	p := opt.scaled(workload.Lusearch())
	kp := opt.scaled(workload.Kmeans(workload.SizeLarge))
	var cells []cell
	for hi, mb := range heapsMB {
		base := jvm.Config{Profile: p, Mutators: 16, HeapMB: mb}
		cells = append(cells,
			cell{base, int64(15000 + hi), 0},
			cell{base.WithOptimizations(), int64(15050 + hi), 0})
	}
	for hi, gb := range heapsGB {
		base := jvm.Config{Profile: kp, Mutators: 16, HeapMB: gb * 1024}
		cells = append(cells,
			cell{base, int64(15100 + hi), 0},
			cell{base.WithOptimizations(), int64(15150 + hi), 0})
	}
	rs := runCells(opt, cells)

	lusearch := stats.NewTable("lusearch", "heap(MB)", "vanilla-total(ms)", "opt-total(ms)", "vanilla-gc(ms)", "opt-gc(ms)")
	for hi, mb := range heapsMB {
		v, o := rs[2*hi], rs[2*hi+1]
		lusearch.AddRow(mb, ms(v.TotalTime), ms(o.TotalTime), ms(v.GCTime), ms(o.GCTime))
	}

	kmeans := stats.NewTable("kmeans", "heap(GB)", "vanilla-total(ms)", "opt-total(ms)", "vanilla-gc(ms)", "opt-gc(ms)")
	for hi, gb := range heapsGB {
		k := 2 * (len(heapsMB) + hi)
		v, o := rs[k], rs[k+1]
		kmeans.AddRow(gb, ms(v.TotalTime), ms(o.TotalTime), ms(v.GCTime), ms(o.GCTime))
	}
	res.Tables = append(res.Tables, lusearch, kmeans)
	res.Notes = append(res.Notes,
		"shape checks: larger lusearch heaps mean fewer GCs and less total GC time; the optimized JVM matches vanilla-at-much-larger-heap; kmeans' gain shrinks as GC stops dominating")
	return res
}

// Fig15 reproduces Figure 15: mixed-application environments — lusearch
// with ten busy loops, two lusearch instances, and two sunflow instances.
func Fig15(opt Options) *Result {
	opt = opt.norm()
	res := &Result{ID: "fig15", Title: "Multi-application environments (vanilla vs optimized)"}
	total := stats.NewTable("(a) total time (ms)", "scenario", "vanilla", "optimized", "ratio")
	gc := stats.NewTable("(b) GC time (ms)", "scenario", "vanilla", "optimized", "ratio")

	lus := opt.scaled(workload.Lusearch())
	sun := opt.scaled(workload.Sunflow())

	// Each scenario half (vanilla or optimized) is an independent cell,
	// so the six halves fan out as one batch: two single-JVM runs with
	// busy loops and four co-running pairs, numbered here, on the
	// submitting goroutine.
	type tg struct{ total, gc simkit.Time }
	busyLoop := func(cfg jvm.Config, off int64) func(int) tg {
		return func(idx int) tg {
			r := runSpec(opt, idx, check.Observers{}, cellSpec(opt, cfg, off, 10)).Results[0]
			return tg{r.TotalTime, r.GCTime}
		}
	}
	coRun := func(p workload.Profile, seedOff int64, optimized bool) func(int) tg {
		return func(idx int) tg {
			cfgA := jvm.Config{Profile: p, Mutators: 16}
			cfgB := jvm.Config{Profile: p, Mutators: 16, SpawnCore: 10}
			if optimized {
				cfgA = cfgA.WithOptimizations()
				cfgB = cfgB.WithOptimizations()
			}
			rs := runSpec(opt, idx, check.Observers{}, jvm.RunSpec{Seed: opt.Seed + seedOff}, cfgA, cfgB).Results
			var slowest, gcSum simkit.Time
			for _, r := range rs {
				if r.TotalTime > slowest {
					slowest = r.TotalTime
				}
				gcSum += r.GCTime
			}
			return tg{slowest, gcSum / simkit.Time(len(rs))}
		}
	}
	tasks := []func(int) tg{
		busyLoop(jvm.Config{Profile: lus, Mutators: 16}, 16000),
		busyLoop(jvm.Config{Profile: lus, Mutators: 16}.WithOptimizations(), 16001),
		coRun(lus, 16100, false), coRun(lus, 16100, true),
		coRun(sun, 16200, false), coRun(sun, 16200, true),
	}
	base := opt.nextCells(len(tasks))
	rs := runner.Map(opt.Pool, len(tasks), func(i int) tg { return tasks[i](base + i) })
	addRows := func(name string, v, o tg) {
		total.AddRow(name, ms(v.total), ms(o.total), stats.Ratio(ms(o.total), ms(v.total)))
		gc.AddRow(name, ms(v.gc), ms(o.gc), stats.Ratio(ms(o.gc), ms(v.gc)))
	}
	addRows("lusearch w/ loop", rs[0], rs[1])
	addRows("2*lusearch", rs[2], rs[3])
	addRows("2*sunflow", rs[4], rs[5])

	res.Tables = append(res.Tables, total, gc)
	res.Notes = append(res.Notes,
		"paper: dynamic GC thread balancing cuts lusearch-with-loop total/GC time by 49.6%/77.2%; co-running JVMs still benefit under constrained resources")
	return res
}

// Fig16 reproduces Figure 16: the effect of SMT (15 GC threads fixed to
// match the SMT-off heuristic).
func Fig16(opt Options) *Result {
	opt = opt.norm()
	res := &Result{ID: "fig16", Title: "Vanilla and optimized JVM with and without SMT"}
	tab := stats.NewTable("total time relative to vanilla SMT-off (lower is better)",
		"benchmark", "vanilla", "optimized", "vanilla w/ SMT", "optimized w/ SMT")
	benches := workload.DaCapo()
	var specs []jvm.RunSpec
	for bi := range benches {
		benches[bi] = opt.scaled(benches[bi])
		for ci, c := range []struct {
			smt bool
			cfg jvm.Config
		}{
			{false, jvm.Config{Profile: benches[bi], Mutators: 16, GCThreads: 15}},
			{false, jvm.Config{Profile: benches[bi], Mutators: 16, GCThreads: 15}.WithOptimizations()},
			{true, jvm.Config{Profile: benches[bi], Mutators: 16, GCThreads: 15}},
			{true, jvm.Config{Profile: benches[bi], Mutators: 16, GCThreads: 15}.WithOptimizations()},
		} {
			topo := ostopo.PaperTestbed()
			if c.smt {
				topo = ostopo.PaperTestbedSMT()
			}
			specs = append(specs, jvm.RunSpec{
				Config: withSeed(c.cfg, opt.Seed+int64(17000+bi*10+ci)),
				Topo:   topo, Seed: opt.Seed + int64(17000+bi*10+ci),
			})
		}
	}
	rs := runSpecCells(opt, specs)
	for bi, p := range benches {
		var vals []float64
		for ci := 0; ci < 4; ci++ {
			vals = append(vals, ms(rs[bi*4+ci].TotalTime))
		}
		tab.AddRow(p.Name, 1.0, stats.Ratio(vals[1], vals[0]),
			stats.Ratio(vals[2], vals[0]), stats.Ratio(vals[3], vals[0]))
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes,
		"paper: SMT mitigates (but does not eliminate) thread stacking via cheaper, more frequent sibling balancing; the optimizations still help on top")
	return res
}

func withSeed(c jvm.Config, seed int64) jvm.Config {
	c.Seed = seed
	return c
}

// AblationMutex evaluates the mutex-side fixes the paper tried and
// rejected in §4.1 against dynamic thread affinity.
func AblationMutex(opt Options) *Result {
	opt = opt.norm()
	res := &Result{ID: "abl1", Title: "Rejected mutex fixes vs GC thread affinity (§4.1)"}
	tab := stats.NewTable("lusearch, 16 mutators",
		"configuration", "total(ms)", "gc(ms)", "gc-ratio", "owner-reacquires")
	p := opt.scaled(workload.Lusearch())
	base := jvm.Config{Profile: p, Mutators: 16}
	cases := []struct {
		name string
		cfg  jvm.Config
	}{
		{"vanilla (unfair mutex)", base},
		{"fair FIFO mutex", withMutex(base, jmutex.PolicyFairFIFO)},
		{"no fast path", withMutex(base, jmutex.PolicyNoFastPath)},
		{"wake all contenders", withMutex(base, jmutex.PolicyWakeAll)},
		{"dynamic GC thread affinity", base.WithAffinityOnly()},
	}
	var cells []cell
	for ci, c := range cases {
		cells = append(cells, cell{c.cfg, int64(18000 + ci), 0})
	}
	rs := runCells(opt, cells)
	for ci, c := range cases {
		r := rs[ci]
		tab.AddRow(c.name, ms(r.TotalTime), ms(r.GCTime), r.GCRatio(), r.Monitor.OwnerReacquires)
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes,
		"paper: without OS help the locking-side fixes 'either had no effect or led to degraded performance'; affinity is the fix that works")
	return res
}

func withMutex(c jvm.Config, pol jmutex.Policy) jvm.Config {
	c.MutexPolicy = pol
	return c
}

// AblationSteal compares stealing policies, including Qian et al.'s
// SmartStealing baseline (§6.1).
func AblationSteal(opt Options) *Result {
	opt = opt.norm()
	res := &Result{ID: "abl2", Title: "Stealing policy ablation incl. SmartStealing (§6.1)"}
	tab := stats.NewTable("DaCapo, 16 mutators, affinity enabled",
		"benchmark", "policy", "gc(ms)", "attempts", "failure-rate")
	kinds := []taskq.PolicyKind{taskq.KindBestOf2, taskq.KindSmartStealing, taskq.KindSemiRandom}
	benches := workload.DaCapo()
	var cells []cell
	for bi := range benches {
		benches[bi] = opt.scaled(benches[bi])
		for pi, kind := range kinds {
			cfg := jvm.Config{Profile: benches[bi], Mutators: 16}.WithAffinityOnly()
			cfg.Steal = kind
			if kind == taskq.KindSemiRandom {
				cfg.FastTerminator = true
			}
			cells = append(cells, cell{cfg, int64(19000 + bi*10 + pi), 0})
		}
	}
	rs := runCells(opt, cells)
	for bi, p := range benches {
		for pi, kind := range kinds {
			r := rs[bi*len(kinds)+pi]
			tab.AddRow(p.Name, kind.String(), ms(r.GCTime), r.Steal.TotalAttempts(), r.Steal.FailureRate())
		}
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes,
		"paper §6.1: SmartStealing reduces failed attempts but 'undermines concurrency during work stealing'; the semi-random policy keeps concurrency while cutting futile attempts")
	return res
}

// AblationNUMA evaluates the affinity/stealing schemes under the NUMA
// memory-locality cost model (remote accesses cost 1.6x, objects rehome on
// copy) — the dimension Gidra et al.'s designs optimize for. It extends
// Fig. 11 beyond the paper: node-restricted schemes regain ground when
// memory locality is priced, but dynamic per-core affinity remains ahead.
func AblationNUMA(opt Options) *Result {
	opt = opt.norm()
	res := &Result{ID: "abl3", Title: "NUMA memory-locality ablation (extension)"}
	tab := stats.NewTable("lusearch & sunflow, 16 mutators, remote factor 1.6",
		"benchmark", "configuration", "total(ms)", "gc(ms)", "remote-access-ratio")
	caseNames := []string{"vanilla", "node-affinity + NUMA-steal (Gidra)", "dynamic affinity + semi-random (paper)"}
	benches := []workload.Profile{workload.Lusearch(), workload.Sunflow()}
	var cells []cell
	for bi := range benches {
		benches[bi] = opt.scaled(benches[bi])
		base := jvm.Config{Profile: benches[bi], Mutators: 16, NUMARemoteFactor: 1.6}
		node := base
		node.Affinity = affinity.ModeNUMANode
		node.Steal = taskq.KindNUMARestricted
		for ci, cfg := range []jvm.Config{base, node, base.WithOptimizations()} {
			cells = append(cells, cell{cfg, int64(20000 + bi*10 + ci), 0})
		}
	}
	rs := runCells(opt, cells)
	for bi, p := range benches {
		for ci, name := range caseNames {
			r := rs[bi*len(caseNames)+ci]
			var local, remote int64
			for _, rep := range r.Reports {
				local += rep.LocalAccesses
				remote += rep.RemoteAccesses
			}
			ratio := 0.0
			if local+remote > 0 {
				ratio = float64(remote) / float64(local+remote)
			}
			tab.AddRow(p.Name, name, ms(r.TotalTime), ms(r.GCTime), ratio)
		}
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes,
		"the ported baseline binds threads and restricts stealing but does not partition tracing by node (NumaGiC's full design), so its remote ratio is no lower than the optimized scheme's; even with remote accesses priced, dynamic per-core affinity keeps the lower GC time")
	return res
}
