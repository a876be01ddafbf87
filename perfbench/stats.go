package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"repro/internal/gclog"
	"repro/internal/jvm"
	"repro/internal/postmortem"
)

// simStats holds deterministic simulated statistics by name: work counters
// of each modelled layer and the postmortem blame buckets. Two runs of one
// seed must agree on every value; a change that only speeds up the
// simulator must leave all of them unchanged.
type simStats map[string]float64

func (s simStats) add(o simStats) {
	for k, v := range o {
		s[k] += v
	}
}

// equalOn reports the first key both maps hold with different values.
func (s simStats) equalOn(o simStats) (string, bool) {
	for _, k := range sortedKeys(s) {
		if v, ok := o[k]; ok && v != s[k] {
			return k, false
		}
	}
	return "", true
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// resultStats folds one simulated JVM's counters into st and appends its
// collection pauses (simulated ms) to pauses.
func resultStats(r *jvm.Result, st simStats, pauses *[]float64) {
	st["simkit.events"] += float64(r.EventsFired)
	st["simkit.inlined"] += float64(r.EventsInlined)
	k := r.Kernel
	st["cfs.body_resumes"] += float64(k.BodyResumes)
	st["cfs.elisions"] += float64(k.PlanElisions + k.BurstElisions)
	st["cfs.context_switches"] += float64(k.ContextSwitches)
	st["cfs.pulls"] += float64(k.NewIdlePulls + k.PeriodicPulls)
	m := r.Monitor
	st["jmutex.fast_acquires"] += float64(m.FastAcquires)
	st["jmutex.slow_acquires"] += float64(m.SlowAcquires)
	st["jmutex.handoffs"] += float64(m.Handoffs)
	st["jmutex.parks"] += float64(m.ParkEvents)
	if r.Steal != nil {
		st["taskq.steal_attempts"] += float64(r.Steal.TotalAttempts())
		st["taskq.steal_failures"] += float64(r.Steal.TotalFailures())
	}
	st["heap.objects_allocated"] += float64(r.Heap.AllocatedObjects)
	st["heap.bytes_promoted"] += float64(r.Heap.PromotedBytes)
	st["heap.ref_compactions"] += float64(r.Heap.RefCompactions)
	st["pscavenge.collections"] += float64(r.MinorGCs + r.MajorGCs)
	st["sim.total_ms"] += r.TotalTime.Millis()
	for _, rep := range r.Reports {
		*pauses = append(*pauses, rep.Pause().Millis())
	}
}

// blameStats adds the analyzer's blame buckets (simulated ms) to st.
func blameStats(an *postmortem.Analyzer, st simStats) {
	an.Finish()
	pm := an.Postmortem()
	for b := postmortem.Bucket(0); b < postmortem.NumBuckets; b++ {
		st["blame."+b.String()+"_ms"] += float64(pm.Totals[b]) / 1e6
	}
}

// pauseStats records the simulated pause distribution's percentiles.
func pauseStats(pauses []float64, st simStats) {
	sort.Float64s(pauses)
	st["pscavenge.sim_pause_ms_p50"] = quantile(pauses, 0.50)
	st["pscavenge.sim_pause_ms_p99"] = quantile(pauses, 0.99)
}

// resultDigest is a cell's output digest: each simulated JVM's totals plus
// its gclog run JSON (collections, monitor and steal counters). It is the
// digest check sweeps record per cell, so a replayed sweep cell compares
// directly against its fleet record.
func resultDigest(results ...*jvm.Result) string {
	h := sha256.New()
	for _, r := range results {
		fmt.Fprintf(h, "total=%d gc=%d mutator=%d minor=%d major=%d ops=%.6f\n",
			r.TotalTime, r.GCTime, r.MutatorTime, r.MinorGCs, r.MajorGCs, r.ThroughputOPS)
		if err := gclog.WriteRunJSON(h, r.Reports, r.Monitor, r.Steal, nil); err != nil {
			fmt.Fprintf(h, "gclog error: %v\n", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// listDigest hashes per-item digests in input-list order.
func listDigest(items []string) string {
	h := sha256.New()
	for _, d := range items {
		fmt.Fprintln(h, d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// sortedCopy returns xs sorted, leaving xs as it was.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of an unsorted slice (the slice is sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
