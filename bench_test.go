// Package repro_test holds the benchmark harness: one testing.B benchmark
// per table and figure of the paper's evaluation, plus the two ablations.
// Each benchmark regenerates its artifact through the experiment runner
// (internal/experiments) and reports domain metrics (simulated GC time,
// pauses, steal failure rates) alongside the usual ns/op.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The benchmarks use a reduced workload scale so the whole suite finishes
// in minutes; `go run ./cmd/experiments -scale 1` regenerates the artifacts
// at the full evaluation configuration (see EXPERIMENTS.md).
package repro_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/jvm"
	"repro/internal/runner"
	"repro/internal/workload"
)

// benchScale divides workload sizes for the benchmark harness.
const benchScale = 10

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var tables int
	// A fixed seed makes every iteration (and every -count run) do the same
	// work, so ns/op samples are comparable.
	for i := 0; i < b.N; i++ {
		res := e.Run(experiments.Options{Seed: 42, Scale: benchScale})
		tables = len(res.Tables)
	}
	b.ReportMetric(float64(tables), "tables")
}

// --- analysis artifacts (§3) ------------------------------------------------

// BenchmarkFig3a regenerates Fig. 3(a): DaCapo time breakdown vs mutators.
func BenchmarkFig3a(b *testing.B) { benchExperiment(b, "fig3a") }

// BenchmarkFig3b regenerates Fig. 3(b): kmeans small/large vs mutators.
func BenchmarkFig3b(b *testing.B) { benchExperiment(b, "fig3b") }

// BenchmarkFig3c regenerates Fig. 3(c): GC scalability vs GC threads.
func BenchmarkFig3c(b *testing.B) { benchExperiment(b, "fig3c") }

// BenchmarkFig3d regenerates Fig. 3(d): Cassandra latency vs clients.
func BenchmarkFig3d(b *testing.B) { benchExperiment(b, "fig3d") }

// BenchmarkFig4 regenerates Fig. 4: vanilla task/thread imbalance.
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig6 regenerates Fig. 6: minor GC time decomposition.
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkTable1 regenerates Table 1: steal attempts and failures.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "tab1") }

// --- evaluation artifacts (§5) ----------------------------------------------

// BenchmarkFig8 regenerates Fig. 8: optimized task/thread balance.
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Fig. 9: default vs optimized stealing.
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Fig. 10: overall and GC improvement.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Fig. 11: NUMA baselines comparison.
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12 regenerates Fig. 12: overall and GC scalability.
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13 regenerates Fig. 13: Spark and Cassandra results.
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14 regenerates Fig. 14: heap-size sweeps.
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkFig15 regenerates Fig. 15: multi-application environments.
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }

// BenchmarkFig16 regenerates Fig. 16: the effect of SMT.
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16") }

// BenchmarkAblationMutex regenerates the §4.1 rejected-mutex-fixes ablation.
func BenchmarkAblationMutex(b *testing.B) { benchExperiment(b, "abl1") }

// BenchmarkAblationSmartSteal regenerates the §6.1 stealing-policy ablation.
func BenchmarkAblationSmartSteal(b *testing.B) { benchExperiment(b, "abl2") }

// --- headline micro-comparisons ----------------------------------------------

// benchRun measures a single JVM configuration end to end and reports the
// simulated GC metrics.
func benchRun(b *testing.B, cfg jvm.Config) {
	b.Helper()
	var gcMS, pauses float64
	var minor int
	cfg.Seed = 1 // fixed, like benchExperiment's, so iterations are comparable
	for i := 0; i < b.N; i++ {
		r, err := jvm.Run(jvm.RunSpec{Config: cfg, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		gcMS = r.GCTime.Millis()
		minor = r.MinorGCs
		if r.MinorGCs > 0 {
			pauses = r.MinorGCTime.Millis() / float64(r.MinorGCs)
		}
	}
	b.ReportMetric(gcMS, "simGC-ms")
	b.ReportMetric(pauses, "simPause-ms")
	b.ReportMetric(float64(minor), "minorGCs")
}

func benchProfile() workload.Profile {
	p := workload.Lusearch()
	p.TotalItems /= benchScale
	return p
}

// BenchmarkVanillaJVM runs lusearch on the vanilla JVM (the paper's
// baseline: stacked GC threads, unfair monitor, best-of-2 stealing).
func BenchmarkVanillaJVM(b *testing.B) {
	benchRun(b, jvm.Config{Profile: benchProfile(), Mutators: 16})
}

// BenchmarkOptimizedJVM runs lusearch with both of the paper's
// optimizations (dynamic affinity + semi-random stealing).
func BenchmarkOptimizedJVM(b *testing.B) {
	benchRun(b, jvm.Config{Profile: benchProfile(), Mutators: 16}.WithOptimizations())
}

// BenchmarkAblationNUMA regenerates the NUMA memory-locality ablation
// (an extension beyond the paper; see EXPERIMENTS.md).
func BenchmarkAblationNUMA(b *testing.B) { benchExperiment(b, "abl3") }

// --- parallel experiment runner -----------------------------------------------

// benchRunnerJobs regenerates Fig. 10 (60 simulation cells) at -scale 4
// with the given worker-pool bound; comparing the Serial and Parallel
// variants shows the runner's wall-clock speedup. On a machine with >= 4
// cores the parallel variant is expected to finish >= 2x faster; output is
// byte-identical either way (TestParallelRenderIdentical asserts this).
func benchRunnerJobs(b *testing.B, jobs int) {
	b.Helper()
	e, err := experiments.ByID("fig10")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		e.Run(experiments.Options{Seed: 42, Scale: 4, Jobs: jobs})
	}
	b.ReportMetric(float64(runner.New(jobs).Workers()), "jobs")
}

// BenchmarkExperimentRunnerSerial runs the Fig. 10 cells one at a time.
func BenchmarkExperimentRunnerSerial(b *testing.B) { benchRunnerJobs(b, 1) }

// BenchmarkExperimentRunnerParallel fans the Fig. 10 cells out across
// GOMAXPROCS workers.
func BenchmarkExperimentRunnerParallel(b *testing.B) { benchRunnerJobs(b, 0) }

// BenchmarkFig5 regenerates the §3.2 lock-acquisition trace.
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }
