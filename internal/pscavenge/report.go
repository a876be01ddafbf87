package pscavenge

import "repro/internal/simkit"

// GCKind distinguishes minor (scavenge) from major (full) collections.
type GCKind int

const (
	// Minor is a young-generation scavenge.
	Minor GCKind = iota
	// Major is a full collection (mark + sweep + compact).
	Major
)

func (k GCKind) String() string {
	if k == Major {
		return "major"
	}
	return "minor"
}

// GCReport captures one collection's behaviour: the Fig. 6 phase
// decomposition, the Fig. 4/8 distribution matrices, and Table 1 steal
// counters.
type GCReport struct {
	Kind  GCKind
	Seq   int
	Start simkit.Time
	End   simkit.Time

	// Phase decomposition (aggregated over GC threads for the parallel
	// shares, VM-thread time for init/final — Fig. 6).
	InitTime        simkit.Time // phase 1: initialization
	RootTaskTime    simkit.Time // phase 2: all non-steal tasks
	StealWorkTime   simkit.Time // phase 2: StealTask, stealing + stolen work
	TerminationTime simkit.Time // phase 2: StealTask, termination protocol
	FinalSyncTime   simkit.Time // phase 3: final synchronization

	// Distribution matrices.
	TasksByThread   [][]int // [thread][TaskKind] executed counts (Fig. 4a/8b)
	GetTaskByCore   [][]int // [thread][core] successful get_task calls (Fig. 4b/8a)
	ThreadsWithWork int     // threads that executed at least one non-steal task

	// Steal accounting for this GC.
	StealAttempts int64
	StealFailures int64
	StolenTasks   int64

	// Collection results.
	CopiedObjects   int64
	CopiedBytes     int64
	PromotedObjects int64
	FreedBytes      int64

	// NUMA locality (when the NUMA cost model is enabled).
	LocalAccesses  int64
	RemoteAccesses int64

	// Heap occupancy around the collection (model bytes).
	Before HeapSnapshot
	After  HeapSnapshot
}

// RemoteAccessRatio returns remote/(local+remote) object accesses.
func (r *GCReport) RemoteAccessRatio() float64 {
	total := r.LocalAccesses + r.RemoteAccesses
	if total == 0 {
		return 0
	}
	return float64(r.RemoteAccesses) / float64(total)
}

// HeapSnapshot captures space occupancy and capacity at one instant.
type HeapSnapshot struct {
	EdenUsed, FromUsed, OldUsed  int64
	EdenCap, SurvivorCap, OldCap int64
}

// Young returns the young-generation occupancy (eden + from survivor).
func (s HeapSnapshot) Young() int64 { return s.EdenUsed + s.FromUsed }

// Total returns the whole-heap occupancy.
func (s HeapSnapshot) Total() int64 { return s.EdenUsed + s.FromUsed + s.OldUsed }

// TotalCap returns the whole-heap capacity.
func (s HeapSnapshot) TotalCap() int64 { return s.EdenCap + 2*s.SurvivorCap + s.OldCap }

func newGCReport(kind GCKind, seq, threads, cores int, start simkit.Time) *GCReport {
	r := &GCReport{Kind: kind, Seq: seq, Start: start}
	r.TasksByThread = make([][]int, threads)
	r.GetTaskByCore = make([][]int, threads)
	for i := 0; i < threads; i++ {
		r.TasksByThread[i] = make([]int, numTaskKinds)
		r.GetTaskByCore[i] = make([]int, cores)
	}
	return r
}

// newReport pops a recycled report (see RecycleReports) and rewinds it, or
// allocates a fresh one. The engine's geometry (threads, cores) is fixed at
// New, so pooled matrices always fit; the check guards against a pool
// polluted by a foreign report.
func (g *Engine) newReport(kind GCKind, seq int, start simkit.Time) *GCReport {
	threads, cores := len(g.queues), g.K.NumCPUs()
	for n := len(g.repFree); n > 0; n = len(g.repFree) {
		r := g.repFree[n-1]
		g.repFree[n-1] = nil
		g.repFree = g.repFree[:n-1]
		if len(r.TasksByThread) != threads ||
			(threads > 0 && len(r.GetTaskByCore[0]) != cores) {
			continue
		}
		tbt, gtc := r.TasksByThread, r.GetTaskByCore
		for i := range tbt {
			for j := range tbt[i] {
				tbt[i][j] = 0
			}
			for j := range gtc[i] {
				gtc[i][j] = 0
			}
		}
		*r = GCReport{Kind: kind, Seq: seq, Start: start,
			TasksByThread: tbt, GetTaskByCore: gtc}
		return r
	}
	return newGCReport(kind, seq, threads, cores, start)
}

// RecycleReports returns every accumulated report — including its
// distribution matrices — to the engine's pool and truncates Reports.
// Callers that consume reports as they go (benchmark loops, long-lived
// services that aggregate and discard) use this to make steady-state
// collections allocation-free; the recycled reports must no longer be
// referenced. Reports first sit on the pending list: a termination
// straggler may still be adding its clamped termination share to the last
// report, so reuse waits for worker quiescence (Engine.reclaim).
func (g *Engine) RecycleReports() {
	for i, r := range g.Reports {
		g.pendReps = append(g.pendReps, r)
		g.Reports[i] = nil
	}
	g.Reports = g.Reports[:0]
}

func (r *GCReport) recordDispatch(worker, core int, kind TaskKind) {
	r.TasksByThread[worker][kind]++
	if core >= 0 && core < len(r.GetTaskByCore[worker]) {
		r.GetTaskByCore[worker][core]++
	}
}

// Pause is the stop-the-world duration of this collection.
func (r *GCReport) Pause() simkit.Time { return r.End - r.Start }

// CoresUsed counts distinct cores on which get_task succeeded — the
// concurrency the collection actually achieved.
func (r *GCReport) CoresUsed() int {
	if len(r.GetTaskByCore) == 0 {
		return 0
	}
	used := make([]bool, len(r.GetTaskByCore[0]))
	n := 0
	for _, row := range r.GetTaskByCore {
		for c, v := range row {
			if v > 0 && !used[c] {
				used[c] = true
				n++
			}
		}
	}
	return n
}

// RootTaskSpread counts GC threads that executed at least one root (non-
// steal) task — the task-balance measure behind Fig. 4(a)/8(b).
func (r *GCReport) RootTaskSpread() int {
	n := 0
	for _, row := range r.TasksByThread {
		if row[TaskOldToYoungRoots]+row[TaskScavengeRoots]+row[TaskThreadRoots]+row[TaskMarkRoots] > 0 {
			n++
		}
	}
	return n
}

// Totals aggregates a slice of reports. Each json tag names its counter
// (gc.<tag>) in the metrics registry.
type Totals struct {
	Count           int         `json:"collections"`
	TotalPause      simkit.Time `json:"pause_ns"`
	InitTime        simkit.Time `json:"init_ns"`
	RootTaskTime    simkit.Time `json:"root_task_ns"`
	StealWorkTime   simkit.Time `json:"steal_work_ns"`
	TerminationTime simkit.Time `json:"termination_ns"`
	FinalSyncTime   simkit.Time `json:"final_sync_ns"`
	StealAttempts   int64       `json:"steal_attempts"`
	StealFailures   int64       `json:"steal_failures"`
	CopiedObjects   int64       `json:"copied_objects"`
	CopiedBytes     int64       `json:"copied_bytes"`
	PromotedObjects int64       `json:"promoted_objects"`
	FreedBytes      int64       `json:"freed_bytes"`
}

// Aggregate sums reports (optionally filtered by kind; pass -1 for all).
func Aggregate(reports []*GCReport, kind GCKind) Totals {
	var t Totals
	for _, r := range reports {
		if kind >= 0 && r.Kind != kind {
			continue
		}
		t.Count++
		t.TotalPause += r.Pause()
		t.InitTime += r.InitTime
		t.RootTaskTime += r.RootTaskTime
		t.StealWorkTime += r.StealWorkTime
		t.TerminationTime += r.TerminationTime
		t.FinalSyncTime += r.FinalSyncTime
		t.StealAttempts += r.StealAttempts
		t.StealFailures += r.StealFailures
		t.CopiedObjects += r.CopiedObjects
		t.CopiedBytes += r.CopiedBytes
		t.PromotedObjects += r.PromotedObjects
		t.FreedBytes += r.FreedBytes
	}
	return t
}
