// Package service is the what-if GC tuning daemon behind cmd/gcsimd: an
// HTTP/JSON front end over the deterministic simulator. Clients POST a
// scenario (benchmark, thread counts, heap size, optimization level,
// interference, seed) and get back GC/pause/throughput predictions.
//
// Determinism is the superpower: one scenario always simulates to the
// same result, so responses are cached in an LRU keyed by the canonical
// config digest (core.Config.Digest), identical concurrent requests are
// coalesced onto one simulation (singleflight), and queued scenarios are
// pulled by long-lived workers that share one runner.Pool, whose
// per-worker scratch reuse keeps marginal cost low. Admission control
// bounds the queue — a full queue rejects rather than collapses (429) —
// and every request carries a timeout.
package service

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/jvm"
	"repro/internal/postmortem"
	"repro/internal/workload"
)

// Scenario is the wire form of one what-if query. The zero value of every
// field means "the default" except Seed, which is a real seed (seed 0 and
// seed 42 are different simulations; there is no implicit default).
type Scenario struct {
	// Benchmark names a built-in workload ("lusearch", "cassandra", ...).
	Benchmark string `json:"benchmark"`
	// Items overrides the benchmark's total work items (quick what-ifs
	// simulate a scaled-down run of the same workload shape).
	Items int `json:"items,omitempty"`

	Mutators  int `json:"mutators,omitempty"`
	GCThreads int `json:"gc_threads,omitempty"`
	HeapMB    int `json:"heap_mb,omitempty"`

	// Optimizations is one of "", "none", "affinity", "steal", "all".
	Optimizations string `json:"optimizations,omitempty"`

	Clients  int `json:"clients,omitempty"`
	Requests int `json:"requests,omitempty"`

	BusyLoops int  `json:"busy_loops,omitempty"`
	SMT       bool `json:"smt,omitempty"`

	Seed int64 `json:"seed,omitempty"`
}

// optLevels maps the wire names onto core's optimization ladder.
var optLevels = map[string]core.Optimizations{
	"":         core.OptNone,
	"none":     core.OptNone,
	"affinity": core.OptAffinity,
	"steal":    core.OptSteal,
	"all":      core.OptAll,
}

// Config resolves the scenario into the core configuration it simulates.
// The error covers everything a client can get wrong: unknown benchmark,
// unknown optimization level, nonsensical counts.
func (s Scenario) Config() (core.Config, error) {
	level, ok := optLevels[s.Optimizations]
	if !ok {
		return core.Config{}, fmt.Errorf("unknown optimizations %q (none|affinity|steal|all)", s.Optimizations)
	}
	if s.Benchmark == "" {
		return core.Config{}, fmt.Errorf("benchmark is required")
	}
	if s.Mutators < 0 || s.GCThreads < 0 || s.HeapMB < 0 || s.Items < 0 ||
		s.Clients < 0 || s.Requests < 0 || s.BusyLoops < 0 {
		return core.Config{}, fmt.Errorf("negative counts are not a thing the testbed simulates")
	}
	cfg := core.Config{
		Mutators:      s.Mutators,
		GCThreads:     s.GCThreads,
		HeapMB:        s.HeapMB,
		Optimizations: level,
		Clients:       s.Clients,
		Requests:      s.Requests,
		BusyLoops:     s.BusyLoops,
		SMT:           s.SMT,
		Seed:          s.Seed,
	}
	if s.Items > 0 {
		p, err := workload.ByName(s.Benchmark)
		if err != nil {
			return core.Config{}, err
		}
		p.TotalItems = s.Items
		cfg.Profile = p
	} else {
		if _, err := workload.ByName(s.Benchmark); err != nil {
			return core.Config{}, err
		}
		cfg.Benchmark = s.Benchmark
	}
	return cfg, nil
}

// Prediction is the response body for one scenario: the predicted GC,
// pause, and throughput behaviour of the configuration. Its JSON encoding
// is deterministic (struct field order, no maps), which is what lets the
// cache serve byte-identical bodies.
type Prediction struct {
	// Digest is the canonical config digest the response is cached under.
	Digest string `json:"digest"`

	// Benchmark/Mutators/GCThreads echo the resolved run parameters —
	// GCThreads in particular reports the HotSpot heuristic's choice when
	// the scenario left it 0.
	Benchmark string `json:"benchmark"`
	Mutators  int    `json:"mutators"`
	GCThreads int    `json:"gc_threads"`

	TotalMs   float64 `json:"total_ms"`
	GCMs      float64 `json:"gc_ms"`
	MutatorMs float64 `json:"mutator_ms"`
	GCRatio   float64 `json:"gc_ratio"`

	MinorGCs   int     `json:"minor_gcs"`
	MajorGCs   int     `json:"major_gcs"`
	PauseAvgMs float64 `json:"pause_avg_ms"`
	PauseMaxMs float64 `json:"pause_max_ms"`

	// Server benchmarks only.
	ThroughputOPS float64 `json:"throughput_ops,omitempty"`
	LatencyP50Ms  float64 `json:"latency_p50_ms,omitempty"`
	LatencyP99Ms  float64 `json:"latency_p99_ms,omitempty"`

	// RunError reports a simulation-level outcome (e.g. OutOfMemoryError)
	// — itself deterministic, hence cacheable.
	RunError string `json:"run_error,omitempty"`

	// Blame is the pause-postmortem summary: where the collections' wall
	// time went (blame buckets) and the dominant §3 pathology family.
	// Deterministic per digest like every other field, so cached bodies
	// carry it byte-identically.
	Blame *BlameSummary `json:"blame,omitempty"`
}

// BlameSummary condenses a run's pause postmortem for the wire: total
// milliseconds and share of pause per blame bucket, the dominant bucket,
// and the classified pathology family.
type BlameSummary struct {
	Pathology string       `json:"pathology"`
	Dominant  string       `json:"dominant"`
	Buckets   []BlameShare `json:"buckets"`
}

// BlameShare is one bucket's slice of the run's total pause.
type BlameShare struct {
	Name  string  `json:"name"`
	Ms    float64 `json:"ms"`
	Share float64 `json:"share"`
}

// blameOf folds the analyzer's roll-up into the wire summary (nil when no
// collection completed — e.g. a run that OOMed before its first GC).
func blameOf(an *postmortem.Analyzer) *BlameSummary {
	pm := an.Postmortem()
	if pm.Collections == 0 {
		return nil
	}
	dominant := postmortem.Bucket(0)
	for b := postmortem.Bucket(1); b < postmortem.NumBuckets; b++ {
		if pm.Totals[b] > pm.Totals[dominant] {
			dominant = b
		}
	}
	bs := &BlameSummary{
		Pathology: pm.Pathology,
		Dominant:  dominant.String(),
		Buckets:   make([]BlameShare, postmortem.NumBuckets),
	}
	for b := postmortem.Bucket(0); b < postmortem.NumBuckets; b++ {
		share := 0.0
		if pm.TotalPauseNs > 0 {
			share = float64(pm.Totals[b]) / float64(pm.TotalPauseNs)
		}
		bs.Buckets[b] = BlameShare{
			Name:  b.String(),
			Ms:    float64(pm.Totals[b]) / 1e6,
			Share: share,
		}
	}
	return bs
}

// predict folds a finished run into its response shape.
func predict(digest string, res *jvm.Result) Prediction {
	p := Prediction{
		Digest:    digest,
		Benchmark: res.Benchmark,
		Mutators:  res.Mutators,
		GCThreads: res.GCThreads,
		TotalMs:   res.TotalTime.Millis(),
		GCMs:      res.GCTime.Millis(),
		MutatorMs: res.MutatorTime.Millis(),
		GCRatio:   res.GCRatio(),
		MinorGCs:  res.MinorGCs,
		MajorGCs:  res.MajorGCs,
	}
	var worst, sum float64
	for _, rep := range res.Reports {
		ms := rep.Pause().Millis()
		sum += ms
		if ms > worst {
			worst = ms
		}
	}
	if n := len(res.Reports); n > 0 {
		p.PauseAvgMs = sum / float64(n)
		p.PauseMaxMs = worst
	}
	if res.Latency != nil && res.Latency.N() > 0 {
		p.ThroughputOPS = res.ThroughputOPS
		p.LatencyP50Ms = res.Latency.Median()
		p.LatencyP99Ms = res.Latency.Percentile(99)
	}
	if res.Err != nil {
		p.RunError = res.Err.Error()
	}
	return p
}
