package jvm

// This file implements per-cell scratch pooling. A figure's sweep runs 60+
// independent cells, and each cell used to rebuild the simulator's event
// arena, the scheduler's thread table and runqueues, the JVM heap's object
// table, and every mutator's working buffers from nothing — the dominant
// steady-state allocation cost of an experiment run. A Scratch carries all
// of those backing arrays from a finished cell to the next one on the same
// pool worker (runner.Pool's GetScratch/PutScratch free-list, or the
// package pool internal/check runs checked sweep cells from).

import (
	"repro/internal/cfs"
	"repro/internal/heap"
	"repro/internal/objgraph"
	"repro/internal/simkit"
)

// Scratch aggregates one worker's pooled backing arrays across every layer
// a cell rebuilds: the simulation kernel, the scheduler, and (per JVM
// instance on the machine) the heap and mutator graphs. One Scratch serves
// one in-flight machine at a time; Machine.Close harvests the storage back
// automatically. The zero value is ready to use.
//
// Reuse is observationally invisible: every sub-scratch only changes slice
// capacities, never values (stale records are fully reinitialized on
// resurrection and pooled pointer slots are cleared), so a cell's output
// is byte-identical whether its machine started cold or from scratch
// storage. The golden-fixture suite pins this down.
type Scratch struct {
	sim simkit.Scratch
	k   cfs.Scratch
	per []instanceScratch // indexed by JVM instance on the machine
}

// instanceScratch is the per-JVM-instance slice of a Scratch: heap object
// table plus mutator buffers, keyed by the instance's position on the
// machine so multi-JVM cells (§5.7) pool each instance separately.
type instanceScratch struct {
	heap  heap.Scratch
	graph objgraph.Scratch
}

// inst returns the instance-i sub-scratch, growing the table as needed.
func (sc *Scratch) inst(i int) *instanceScratch {
	for len(sc.per) <= i {
		sc.per = append(sc.per, instanceScratch{})
	}
	return &sc.per[i]
}
