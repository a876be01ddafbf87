// Package gclog formats collection reports in the style of HotSpot's
// -XX:+PrintGCDetails output, plus a machine-readable JSON export. The
// familiar format makes the simulated collector's behaviour directly
// comparable with real JVM logs:
//
//	0.254: [GC (Allocation Failure) [PSYoungGen: 1720K->240K(2150K)]
//	        4841K->3361K(7372K), 0.0009138 secs] [cores: 15, threads w/ roots: 12]
//	1.103: [Full GC (Ergonomics) [PSYoungGen: 210K->0K(2150K)]
//	        [ParOldGen: 4821K->2011K(5222K)] 5031K->2011K(7372K), 0.0041210 secs]
package gclog

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/evtrace"
	"repro/internal/jmutex"
	"repro/internal/pscavenge"
	"repro/internal/taskq"
)

// kb renders model bytes as HotSpot-style K figures.
func kb(b int64) string { return fmt.Sprintf("%dK", b/1024) }

// Format renders one collection report as a HotSpot-style log line.
func Format(rep *pscavenge.GCReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%.3f: ", rep.Start.Seconds())
	secs := rep.Pause().Seconds()
	youngCap := rep.Before.EdenCap + rep.Before.SurvivorCap
	switch rep.Kind {
	case pscavenge.Minor:
		fmt.Fprintf(&b, "[GC (Allocation Failure) [PSYoungGen: %s->%s(%s)] %s->%s(%s), %.7f secs]",
			kb(rep.Before.Young()), kb(rep.After.Young()), kb(youngCap),
			kb(rep.Before.Total()), kb(rep.After.Total()), kb(rep.Before.TotalCap()),
			secs)
	case pscavenge.Major:
		fmt.Fprintf(&b, "[Full GC (Ergonomics) [PSYoungGen: %s->%s(%s)] [ParOldGen: %s->%s(%s)] %s->%s(%s), %.7f secs]",
			kb(rep.Before.Young()), kb(rep.After.Young()), kb(youngCap),
			kb(rep.Before.OldUsed), kb(rep.After.OldUsed), kb(rep.Before.OldCap),
			kb(rep.Before.Total()), kb(rep.After.Total()), kb(rep.Before.TotalCap()),
			secs)
	}
	fmt.Fprintf(&b, " [cores: %d, threads w/ roots: %d]", rep.CoresUsed(), rep.RootTaskSpread())
	return b.String()
}

// Write renders a whole run's collections, one line each, followed by a
// HotSpot-style heap summary derived from the last report.
func Write(w io.Writer, reports []*pscavenge.GCReport) {
	for _, rep := range reports {
		fmt.Fprintln(w, Format(rep))
	}
	if n := len(reports); n > 0 {
		last := reports[n-1]
		fmt.Fprintf(w, "Heap after GC invocations=%d:\n", n)
		fmt.Fprintf(w, " PSYoungGen  total %s, used %s\n",
			kb(last.After.EdenCap+last.After.SurvivorCap), kb(last.After.Young()))
		fmt.Fprintf(w, " ParOldGen   total %s, used %s\n",
			kb(last.After.OldCap), kb(last.After.OldUsed))
	}
}

// Entry is the JSON export shape of one collection.
type Entry struct {
	Seq             int     `json:"seq"`
	Kind            string  `json:"kind"`
	StartSec        float64 `json:"start_sec"`
	PauseSec        float64 `json:"pause_sec"`
	YoungBeforeK    int64   `json:"young_before_k"`
	YoungAfterK     int64   `json:"young_after_k"`
	OldBeforeK      int64   `json:"old_before_k"`
	OldAfterK       int64   `json:"old_after_k"`
	CopiedObjects   int64   `json:"copied_objects"`
	PromotedObjects int64   `json:"promoted_objects"`
	FreedK          int64   `json:"freed_k"`
	CoresUsed       int     `json:"cores_used"`
	RootTaskSpread  int     `json:"root_task_spread"`
	StealAttempts   int64   `json:"steal_attempts"`
	StealFailures   int64   `json:"steal_failures"`
	InitSec         float64 `json:"init_sec"`
	RootTaskSec     float64 `json:"root_task_sec"`
	StealWorkSec    float64 `json:"steal_work_sec"`
	TerminationSec  float64 `json:"termination_sec"`
	FinalSyncSec    float64 `json:"final_sync_sec"`
}

// ToEntry converts a report to its JSON export shape.
func ToEntry(rep *pscavenge.GCReport) Entry {
	return Entry{
		Seq:             rep.Seq,
		Kind:            rep.Kind.String(),
		StartSec:        rep.Start.Seconds(),
		PauseSec:        rep.Pause().Seconds(),
		YoungBeforeK:    rep.Before.Young() / 1024,
		YoungAfterK:     rep.After.Young() / 1024,
		OldBeforeK:      rep.Before.OldUsed / 1024,
		OldAfterK:       rep.After.OldUsed / 1024,
		CopiedObjects:   rep.CopiedObjects,
		PromotedObjects: rep.PromotedObjects,
		FreedK:          rep.FreedBytes / 1024,
		CoresUsed:       rep.CoresUsed(),
		RootTaskSpread:  rep.RootTaskSpread(),
		StealAttempts:   rep.StealAttempts,
		StealFailures:   rep.StealFailures,
		InitSec:         rep.InitTime.Seconds(),
		RootTaskSec:     rep.RootTaskTime.Seconds(),
		StealWorkSec:    rep.StealWorkTime.Seconds(),
		TerminationSec:  rep.TerminationTime.Seconds(),
		FinalSyncSec:    rep.FinalSyncTime.Seconds(),
	}
}

// WriteJSON exports all reports as a JSON array (for external plotting).
func WriteJSON(w io.Writer, reports []*pscavenge.GCReport) error {
	entries := make([]Entry, len(reports))
	for i, rep := range reports {
		entries[i] = ToEntry(rep)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(entries)
}

// StealExport is the JSON shape of the run's work-stealing counters.
type StealExport struct {
	Attempts    int64   `json:"attempts"`
	Failures    int64   `json:"failures"`
	FailureRate float64 `json:"failure_rate"`
	PerThief    []int64 `json:"attempts_per_thief,omitempty"`
}

// RunExport is the full-run JSON document: the per-collection log plus the
// cross-layer counters (monitor, stealing, unified metrics).
type RunExport struct {
	Collections []Entry          `json:"collections"`
	Monitor     jmutex.Stats     `json:"monitor"` // the GCTaskManager monitor counters
	Steal       StealExport      `json:"steal"`
	Metrics     []evtrace.Metric `json:"metrics,omitempty"`
}

// WriteRunJSON exports the whole run — collections, monitor and steal
// statistics, and the unified metrics rendered from the same run (nil
// omits them).
func WriteRunJSON(w io.Writer, reports []*pscavenge.GCReport, mon jmutex.Stats, steal *taskq.Stats, metrics []evtrace.Metric) error {
	out := RunExport{
		Collections: make([]Entry, len(reports)),
		Monitor:     mon,
		Metrics:     metrics,
	}
	for i, rep := range reports {
		out.Collections[i] = ToEntry(rep)
	}
	if steal != nil {
		out.Steal = StealExport{
			Attempts:    steal.TotalAttempts(),
			Failures:    steal.TotalFailures(),
			FailureRate: steal.FailureRate(),
			PerThief:    steal.Attempts,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
