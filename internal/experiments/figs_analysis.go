package experiments

// This file regenerates the analysis-section artifacts: Fig. 3 (impact of
// GC on application performance and scalability), Fig. 4 (load imbalance),
// Fig. 6 (minor GC time decomposition), and Table 1 (steal attempts).

import (
	"fmt"
	"strings"

	"repro/internal/evtrace"
	"repro/internal/jvm"
	"repro/internal/pscavenge"
	"repro/internal/simkit"
	"repro/internal/stats"
	"repro/internal/workload"
)

var mutatorSweep = []int{1, 2, 4, 8, 16}

// Fig3a reproduces Figure 3(a): lusearch and xalan execution-time breakdown
// (mutator vs GC) with 1-16 mutator threads, normalized to the 1-mutator
// total.
func Fig3a(opt Options) *Result {
	opt = opt.norm()
	res := &Result{ID: "fig3a", Title: "DaCapo mutator/GC time vs mutator threads (vanilla JVM)"}
	profiles := []workload.Profile{workload.Lusearch(), workload.Xalan()}
	var cells []cell
	for bi := range profiles {
		profiles[bi] = opt.scaled(profiles[bi])
		for mi, m := range mutatorSweep {
			cells = append(cells, cell{jvm.Config{Profile: profiles[bi], Mutators: m}, int64(bi*100 + mi), 0})
		}
	}
	rs := runCells(opt, cells)
	for bi, p := range profiles {
		tab := stats.NewTable(p.Name, "mutators", "total(ms)", "mutator(ms)", "gc(ms)", "gc-ratio", "norm-total")
		var base float64
		for mi, m := range mutatorSweep {
			r := rs[bi*len(mutatorSweep)+mi]
			if base == 0 {
				base = ms(r.TotalTime)
			}
			tab.AddRow(m, ms(r.TotalTime), ms(r.MutatorTime), ms(r.GCTime),
				r.GCRatio(), stats.Ratio(ms(r.TotalTime), base))
		}
		res.Tables = append(res.Tables, tab)
	}
	res.Notes = append(res.Notes,
		"shape check: mutator time drops with more mutators while GC time holds, so the GC share of total time grows (43.2% for lusearch@16 in the paper)")
	return res
}

// Fig3b reproduces Figure 3(b): kmeans with small and large datasets.
func Fig3b(opt Options) *Result {
	opt = opt.norm()
	res := &Result{ID: "fig3b", Title: "HiBench kmeans time breakdown vs mutator threads (vanilla JVM)"}
	sizes := []workload.DataSize{workload.SizeSmall, workload.SizeLarge}
	profiles := make([]workload.Profile, len(sizes))
	var cells []cell
	for si, size := range sizes {
		profiles[si] = opt.scaled(workload.Kmeans(size))
		for mi, m := range mutatorSweep {
			cells = append(cells, cell{jvm.Config{Profile: profiles[si], Mutators: m}, int64(1000 + si*100 + mi), 0})
		}
	}
	rs := runCells(opt, cells)
	for si, p := range profiles {
		tab := stats.NewTable(p.Name, "mutators", "total(ms)", "mutator(ms)", "gc(ms)", "gc-ratio")
		for mi, m := range mutatorSweep {
			r := rs[si*len(mutatorSweep)+mi]
			tab.AddRow(m, ms(r.TotalTime), ms(r.MutatorTime), ms(r.GCTime), r.GCRatio())
		}
		res.Tables = append(res.Tables, tab)
	}
	res.Notes = append(res.Notes, "the large dataset incurs a higher GC ratio than the small one at every mutator count")
	return res
}

// Fig3c reproduces Figure 3(c): GC scalability — 16 mutators, 1-16 GC
// threads; in the vanilla JVM GC time fails to fall (and can rise) as GC
// threads are added.
func Fig3c(opt Options) *Result {
	opt = opt.norm()
	res := &Result{ID: "fig3c", Title: "GC scalability: 16 mutators, varying GC threads (vanilla JVM)"}
	profiles := []workload.Profile{workload.Lusearch(), workload.Xalan()}
	var cells []cell
	for bi := range profiles {
		profiles[bi] = opt.scaled(profiles[bi])
		for gi, g := range mutatorSweep {
			cells = append(cells, cell{jvm.Config{Profile: profiles[bi], Mutators: 16, GCThreads: g}, int64(2000 + bi*100 + gi), 0})
		}
	}
	rs := runCells(opt, cells)
	for bi, p := range profiles {
		tab := stats.NewTable(p.Name, "gc-threads", "total(ms)", "mutator(ms)", "gc(ms)")
		for gi, g := range mutatorSweep {
			r := rs[bi*len(mutatorSweep)+gi]
			tab.AddRow(g, ms(r.TotalTime), ms(r.MutatorTime), ms(r.GCTime))
		}
		res.Tables = append(res.Tables, tab)
	}
	res.Notes = append(res.Notes, "shape check: with stacking, extra GC threads add steal/termination overhead without adding concurrency")
	return res
}

// Fig3d reproduces Figure 3(d): Cassandra read latency percentiles and the
// GC share of execution as client concurrency grows.
func Fig3d(opt Options) *Result {
	opt = opt.norm()
	res := &Result{ID: "fig3d", Title: "Cassandra read latency vs client threads (vanilla JVM)"}
	tab := stats.NewTable("cassandra read", "clients", "mean(ms)", "p95(ms)", "p99(ms)", "p99.9(ms)", "gc-ratio")
	clientSweep := []int{1, 4, 16, 64, 256}
	var cells []cell
	for ci, clients := range clientSweep {
		cells = append(cells, cell{jvm.Config{
			Profile: workload.Cassandra(), Mutators: 16,
			Clients: clients, Requests: opt.requests(20000),
		}, int64(3000 + ci), 0})
	}
	rs := runCells(opt, cells)
	for ci, clients := range clientSweep {
		r := rs[ci]
		tab.AddRow(clients, r.Latency.Mean(), r.Latency.Percentile(95),
			r.Latency.Percentile(99), r.Latency.Percentile(99.9), r.GCRatio())
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes, "latency climbs steeply with concurrency; STW pauses dominate the tail")
	return res
}

// distributionTables renders the Fig. 4/8 content for one run: the GC-task
// distribution across GC threads by type, and the thread-to-core get_task
// matrix, both for a representative (median-pause) minor GC.
func distributionTables(r *jvm.Result, label string) []*stats.Table {
	var reps []*pscavenge.GCReport
	for _, rep := range r.Reports {
		if rep.Kind == pscavenge.Minor {
			reps = append(reps, rep)
		}
	}
	if len(reps) == 0 {
		return nil
	}
	rep := reps[len(reps)/2]

	tasks := stats.NewTable(label+": GC task distribution (GC #"+fmt.Sprint(rep.Seq)+")",
		"gc-thread", "OldToYoungRoots", "ScavengeRoots", "ThreadRoots", "Steal")
	for w, row := range rep.TasksByThread {
		tasks.AddRow(w, row[pscavenge.TaskOldToYoungRoots], row[pscavenge.TaskScavengeRoots],
			row[pscavenge.TaskThreadRoots], row[pscavenge.TaskSteal])
	}

	cores := stats.NewTable(label+": get_task calls by core (GC #"+fmt.Sprint(rep.Seq)+")",
		"gc-thread", "core(s) used", "get_task calls")
	for w, row := range rep.GetTaskByCore {
		var used []string
		total := 0
		for c, n := range row {
			if n > 0 {
				used = append(used, fmt.Sprintf("cpu%d:%d", c, n))
				total += n
			}
		}
		if len(used) == 0 {
			used = []string{"-"}
		}
		cores.AddRow(w, joinMax(used, 6), total)
	}

	summary := stats.NewTable(label+": balance summary (all minor GCs)",
		"metric", "mean", "min", "max")
	addSpread := func(name string, f func(*pscavenge.GCReport) int) {
		sum, min, max := 0, 1<<30, 0
		for _, rp := range reps {
			v := f(rp)
			sum += v
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		summary.AddRow(name, float64(sum)/float64(len(reps)), min, max)
	}
	addSpread("cores running GC threads", (*pscavenge.GCReport).CoresUsed)
	addSpread("threads with root tasks", (*pscavenge.GCReport).RootTaskSpread)
	return []*stats.Table{tasks, cores, summary}
}

func joinMax(ss []string, n int) string {
	if len(ss) > n {
		ss = append(ss[:n:n], "...")
	}
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += " "
		}
		out += s
	}
	return out
}

// Fig4 reproduces Figure 4: task and thread imbalance during a vanilla
// lusearch minor GC (16 mutators, 15 GC threads).
func Fig4(opt Options) *Result {
	opt = opt.norm()
	p := opt.scaled(workload.Lusearch())
	r := run(opt, jvm.Config{Profile: p, Mutators: 16}, 4000, 0)
	res := &Result{ID: "fig4", Title: "Vanilla lusearch: task and thread load imbalance"}
	res.Tables = distributionTables(r, "vanilla")
	res.Notes = append(res.Notes,
		"shape check: one or two GC threads execute all root tasks; most GC threads only run their StealTask; GC activity concentrates on a few cores")
	return res
}

// Fig6 reproduces Figure 6: the decomposition of minor GC time into
// initialization, steal (stealing), steal (termination), all other tasks,
// and final synchronization, as fractions of aggregate minor GC time.
func Fig6(opt Options) *Result {
	opt = opt.norm()
	res := &Result{ID: "fig6", Title: "Decomposition of minor GC time (vanilla JVM)"}
	tab := stats.NewTable("minor GC phase shares",
		"benchmark", "init", "steal(steal)", "steal(term)", "other-tasks", "final-sync")
	benches := workload.Table1Benchmarks()
	var cells []cell
	for bi := range benches {
		benches[bi] = opt.scaled(benches[bi])
		cells = append(cells, cell{jvm.Config{Profile: benches[bi], Mutators: 16}, int64(6000 + bi), 0})
	}
	rs := runCells(opt, cells)
	for bi, p := range benches {
		r := rs[bi]
		t := pscavenge.Aggregate(r.Reports, pscavenge.Minor)
		total := float64(t.InitTime + t.StealWorkTime + t.TerminationTime + t.RootTaskTime + t.FinalSyncTime)
		if total == 0 {
			total = 1
		}
		tab.AddRow(p.Name,
			float64(t.InitTime)/total, float64(t.StealWorkTime)/total,
			float64(t.TerminationTime)/total, float64(t.RootTaskTime)/total,
			float64(t.FinalSyncTime)/total)
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes,
		"shares are aggregated across GC threads (as in the paper, they do not reflect the GC timeline); StealTask time dominates")
	return res
}

// Table1 reproduces Table 1: total and failed steal attempts under the
// default steal_best_of_2 policy.
func Table1(opt Options) *Result {
	opt = opt.norm()
	res := &Result{ID: "tab1", Title: "Steal attempts in steal_best_of_2 (vanilla JVM)"}
	tab := stats.NewTable("steal attempts", "benchmark", "total", "failure", "failure-rate")
	benches := workload.Table1Benchmarks()
	var cells []cell
	for bi := range benches {
		benches[bi] = opt.scaled(benches[bi])
		cells = append(cells, cell{jvm.Config{Profile: benches[bi], Mutators: 16}, int64(7000 + bi), 0})
	}
	rs := runCells(opt, cells)
	for bi, p := range benches {
		r := rs[bi]
		tab.AddRow(p.Name, r.Steal.TotalAttempts(), r.Steal.TotalFailures(), r.Steal.FailureRate())
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes, "paper failure rates range from 28.9% (xml.validation) to 93.6% (crypto.signverify); balanced-live-set benchmarks fail least")
	return res
}

// Fig5 reproduces the dynamics of Figure 5 / the §3.2 root-cause trace: the
// GCTaskManager lock acquisition log during a stacked minor GC shows the
// previous owner re-acquiring through the fast path over and over while the
// queued waiters starve, and at most two threads ever actively competing.
func Fig5(opt Options) *Result {
	opt = opt.norm()
	p := opt.scaled(workload.Lusearch())
	const seedOff = 5000
	cfg := jvm.Config{Profile: p, Mutators: 16, Seed: opt.Seed + seedOff}
	tr := evtrace.New(evtrace.DefaultSinkCap)
	acqs := &evtrace.AcquisitionLog{Lock: "GCTaskManager"}
	acqs.Attach(tr)
	r := runSpec(opt, opt.nextCells(1), jvm.RunSpec{Config: cfg, Seed: cfg.Seed, EvTracer: tr})
	res := &Result{ID: "fig5", Title: "GCTaskManager lock acquisitions during a stacked GC (§3.2)"}

	// Pick a representative mid-run minor GC window.
	var rep *pscavenge.GCReport
	for _, gc := range r.Reports {
		if gc.Kind == pscavenge.Minor {
			rep = gc
		}
		if rep != nil && gc.Seq > len(r.Reports)/2 {
			break
		}
	}
	if rep == nil {
		res.Notes = append(res.Notes, "no minor GC recorded")
		return res
	}
	tab := stats.NewTable(fmt.Sprintf("acquisition log, GC #%d (first 24 events)", rep.Seq),
		"t-into-GC", "thread", "path", "owner-reacquire", "queued-waiters")
	shown, reacq, total := 0, 0, 0
	for _, ev := range acqs.Entries {
		at := simkit.Time(ev.At)
		if at < rep.Start || at > rep.End {
			continue
		}
		total++
		if ev.Reacquire {
			reacq++
		}
		if shown < 24 {
			path := "slow"
			if ev.Fast {
				path = "fast"
			}
			tab.AddRow((at - rep.Start).String(), ev.Thread, path, ev.Reacquire, ev.Queued)
			shown++
		}
	}
	res.Tables = append(res.Tables, tab)
	// Distinct GC threads acquiring during the root-task phase (the first
	// half of the pause): the paper's "at most two GC threads actively
	// competing". The later steal phase necessarily involves every thread
	// (each must fetch its StealTask through the wake chain).
	half := rep.Start + rep.Pause()/2
	distinct := map[string]bool{}
	for _, ev := range acqs.Entries {
		if at := simkit.Time(ev.At); at >= rep.Start && at <= half && strings.HasPrefix(ev.Thread, "GCTaskThread") {
			distinct[ev.Thread] = true
		}
	}
	sum := stats.NewTable("summary",
		"acquisitions-in-GC", "distinct-acquirers-root-phase", "owner-reacquire-fraction", "max-simultaneous-attempts")
	frac := 0.0
	if total > 0 {
		frac = float64(reacq) / float64(total)
	}
	sum.AddRow(total, len(distinct), frac, r.Monitor.MaxConcurrentSeekers)
	res.Tables = append(res.Tables, sum)
	res.Notes = append(res.Notes,
		"§3.2: 'at any point in time, there were at most two GC threads actively competing for the mutex lock and the previous owner thread (almost) always won'")
	return res
}
