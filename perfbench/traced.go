package main

import (
	_ "embed"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/postmortem"
)

//go:embed refs.json
var refsJSON []byte

// tracedRun is the -trace 1 run: untraced and traced passes alternate
// until the time is up, the traced ones with spans and a CPU profile; then
// (outside the profile) the list is replayed with an evtrace counter and a
// postmortem analyzer attached. It returns the per-layer metrics.
func tracedRun(b bench, o options, v *verdict) (map[string]metric, *summary, error) {
	sp := newSpans()
	var untraced, traced []*passResult
	var samples []sample
	var rt runtimeCounters
	var raw [][]byte
	cells := 0
	t0 := time.Now()
	for len(traced) == 0 || cells < minCells || time.Since(t0).Seconds() < o.seconds {
		pr, err := b.pass(nil)
		if err != nil {
			return nil, nil, err
		}
		untraced = append(untraced, pr)
		cells += len(pr.cellMs)
		prof, err := startProfile()
		if err != nil {
			return nil, nil, err
		}
		pr, err = b.pass(sp)
		data, d := prof.stop()
		if err != nil {
			return nil, nil, err
		}
		traced = append(traced, pr)
		s, err := parseProfile(data)
		if err != nil {
			return nil, nil, err
		}
		samples = append(samples, s...)
		raw = append(raw, data)
		rt.add(d)
	}
	s := summarize(append(append([]*passResult(nil), untraced...), traced...), v)

	if err := replayCheck(b, s, v); err != nil {
		return nil, nil, err
	}

	sh := shares(samples)
	if sum := selfShareSum(sh); math.Abs(sum-1) > 0.02 {
		v.fail("self shares sum to %.4f, not 1", sum)
	}
	base := filepath.Join(o.state, fmt.Sprintf("%s-%d", o.workload, o.seed))
	for i, data := range raw {
		if err := os.WriteFile(fmt.Sprintf("%s.%d.cpu.pprof", base, i+1), data, 0o644); err != nil {
			return nil, nil, err
		}
	}
	if err := sp.write(base + ".spans.json"); err != nil {
		return nil, nil, err
	}
	printSpans(sp)
	if err := predictionCheck(o, sh, v); err != nil {
		return nil, nil, err
	}

	var wallU, wallT, busyT, cellNsU, cellsT float64
	for _, pr := range untraced {
		wallU += pr.wall.Seconds()
		for _, ms := range pr.cellMs {
			cellNsU += ms * 1e6
		}
	}
	for _, pr := range traced {
		wallT += pr.wall.Seconds()
		busyT += pr.busy * pr.wall.Seconds()
		cellsT += float64(len(pr.cellMs))
	}
	events := s.stats["simkit.events"] * float64(len(untraced))
	return perLayer(s.stats, sh, map[string]float64{
		"simkit.host_ns_per_event": ratio(cellNsU, events),
		"runner.busy_frac":         ratio(busyT, wallT),
		"go.gc_cpu_frac":           ratio(rt.gcCPU, rt.totalCPU),
		"go.alloc_mb_per_cell":     ratio(rt.allocs/(1<<20), cellsT),
		"trace.overhead_frac":      ratio(wallT, wallU) - 1,
	}), s, nil
}

func printSpans(sp *spans) {
	tot := sp.totals()
	for _, name := range sortedKeys(tot) {
		t := tot[name]
		fmt.Printf("  span %-22s n=%-6d total=%.3fs self=%.3fs\n", name, t.n, t.total.Seconds(), t.self.Seconds())
	}
}

// gcShare is the self share of the collector's layers; traceShare that of
// the tracing and blame layers.
func gcShare(sh map[string]float64) float64 {
	return sh["pscavenge.self_share"] + sh["taskq.self_share"]
}

func traceShare(sh map[string]float64) float64 {
	return sh["evtrace.self_share"] + sh["postmortem.self_share"]
}

// predictionCheck tests that the workloads separate the layers they claim
// to: the collector's share on gc-heavy is at least 3x its share on
// mutator-heavy (the other of the two is profiled for one pass here), and
// the tracing layers cost nothing where the tracer is nil but do cost on
// whatif-mix.
func predictionCheck(o options, own map[string]float64, v *verdict) error {
	switch o.workload {
	case "gc-heavy", "mutator-heavy":
		if ts := traceShare(own); ts != 0 {
			v.fail("evtrace+postmortem share is %.4f on %s, where the tracer is nil", ts, o.workload)
		}
		other := "mutator-heavy"
		if o.workload == other {
			other = "gc-heavy"
		}
		osh, err := profileOnePass(other, o.seed)
		if err != nil {
			return err
		}
		gc, mut := own, osh
		if o.workload == "mutator-heavy" {
			gc, mut = osh, own
		}
		fmt.Printf("  prediction pscavenge+taskq share: gc-heavy %.4f, mutator-heavy %.4f (ratio %.2f, want >= 3)\n",
			gcShare(gc), gcShare(mut), ratio(gcShare(gc), gcShare(mut)))
		if gcShare(gc) < 3*gcShare(mut) {
			v.fail("pscavenge+taskq share on gc-heavy (%.4f) is under 3x that on mutator-heavy (%.4f)", gcShare(gc), gcShare(mut))
		}
	case "whatif-mix":
		fmt.Printf("  prediction evtrace+postmortem share on whatif-mix: %.4f (want > 0)\n", traceShare(own))
		if traceShare(own) == 0 {
			v.fail("evtrace+postmortem share is 0 on whatif-mix, where every cold request traces")
		}
	}
	return nil
}

// profileOnePass sets up another workload and profiles one untraced pass.
func profileOnePass(name string, seed int64) (map[string]float64, error) {
	b, err := newBench(name, seed)
	if err != nil {
		return nil, err
	}
	defer b.close()
	if err := b.warm(); err != nil {
		return nil, err
	}
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	_, err = b.pass(nil)
	raw, _ := prof.stop()
	if err != nil {
		return nil, err
	}
	samples, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	return shares(samples), nil
}

// selfShareBuckets are the buckets the profile's CPU time is divided
// into; their shares sum to 1.
var selfShareBuckets = append(append([]string(nil), shareLayers...), "other", "bench")

// perLayer assembles the per-layer metrics from the simulated statistics
// of one pass, the profile shares and the host-side figures in host.
func perLayer(st simStats, sh map[string]float64, host map[string]float64) map[string]metric {
	m := make(map[string]metric)
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	for _, k := range []string{
		"simkit.events", "cfs.body_resumes", "cfs.context_switches", "cfs.pulls",
		"jmutex.slow_acquires", "jmutex.handoffs", "jmutex.parks", "taskq.steal_attempts",
		"heap.objects_allocated", "heap.ref_compactions", "pscavenge.collections",
		"evtrace.bus_events", "evtrace.drops", "check.violations",
		"service.coalesced", "service.rejected",
	} {
		put(k, "count", st[k])
	}
	put("heap.bytes_promoted", "bytes", st["heap.bytes_promoted"])
	put("simkit.inline_ratio", "ratio", ratio(st["simkit.inlined"], st["simkit.events"]))
	put("cfs.elided_ratio", "ratio", ratio(st["cfs.elisions"], st["cfs.elisions"]+st["cfs.body_resumes"]))
	put("jmutex.fast_ratio", "ratio", ratio(st["jmutex.fast_acquires"], st["jmutex.fast_acquires"]+st["jmutex.slow_acquires"]))
	put("taskq.steal_fail_ratio", "ratio", ratio(st["taskq.steal_failures"], st["taskq.steal_attempts"]))
	put("pscavenge.sim_pause_ms_p50", "ms", st["pscavenge.sim_pause_ms_p50"])
	put("pscavenge.sim_pause_ms_p99", "ms", st["pscavenge.sim_pause_ms_p99"])
	for _, b := range postmortem.BucketNames() {
		put("blame."+b+"_ms", "ms", st["blame."+b+"_ms"])
	}
	put("service.hit_ratio", "ratio", ratio(st["service.cache_hits"], st["service.cache_hits"]+st["service.runs"]+st["service.coalesced"]))
	for _, b := range selfShareBuckets {
		put(b+".self_share", "ratio", sh[b+".self_share"])
	}
	put("go.runtime_share", "ratio", sh["go.runtime.self_share"])
	put("heap.alloc_share", "ratio", sh["heap.alloc_share"])
	put("heap.collect_share", "ratio", sh["heap.collect_share"])
	units := map[string]string{
		"simkit.host_ns_per_event": "ns", "runner.busy_frac": "ratio", "go.gc_cpu_frac": "ratio",
		"go.alloc_mb_per_cell": "MB", "trace.overhead_frac": "ratio",
	}
	for k, v := range host {
		put(k, units[k], v)
	}
	return m
}
