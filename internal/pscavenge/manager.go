package pscavenge

import (
	"fmt"

	"repro/internal/cfs"
	"repro/internal/evtrace"
	"repro/internal/jmutex"
)

// manager is the GCTaskManager of §2.2: a HotSpot monitor protecting the
// global GCTaskQueue. GC threads fetch one task at a time (dynamic task
// assignment); when the queue is empty they sleep on the monitor's WaitSet
// until the next GC's NotifyAll.
type manager struct {
	g            *Engine
	mon          *jmutex.Monitor
	queue        []*GCTask
	closed       bool
	taskAffinity bool
}

func newManager(g *Engine, policy jmutex.Policy, taskAffinity bool) *manager {
	// On a multi-JVM machine (Options.Instance > 0) each engine's monitor
	// gets a distinct name, so lock events on the shared bus never mix two
	// monitors' ownership streams. A single JVM keeps the bare HotSpot name
	// (what gcsim -lockprofile and the §3.2 traces look up).
	name := "GCTaskManager"
	if g.Opt.Instance > 0 {
		name = fmt.Sprintf("GCTaskManager#%d", g.Opt.Instance)
	}
	return &manager{
		g:            g,
		mon:          jmutex.New(g.K, name, policy),
		taskAffinity: taskAffinity,
	}
}

// dequeue removes the task at the remove end, preferring (when task
// affinity is enabled, §4.1) a task whose affinity matches the requesting
// worker.
func (m *manager) dequeue(w int) *GCTask {
	idx := 0
	if m.taskAffinity {
		for i, t := range m.queue {
			if t.Affinity == w {
				idx = i
				break
			}
		}
	}
	task := m.queue[idx]
	m.queue = append(m.queue[:idx], m.queue[idx+1:]...)
	return task
}

// enqueueAll adds a GC cycle's tasks and wakes the GC threads (NotifyAll
// transfers them from the WaitSet to cxq asleep; the unlock chain then
// wakes them one OnDeck at a time — §2.4).
func (m *manager) enqueueAll(e *cfs.Env, tasks []*GCTask) {
	m.mon.Lock(e)
	m.queue = append(m.queue, tasks...)
	if m.g.etr != nil {
		// One enqueue event per task: the dispatch side of the
		// every-task-dispatched-exactly-once conservation law.
		for _, t := range tasks {
			m.g.etr.Emit(evtrace.Event{Kind: evtrace.KTaskEnqueue, At: int64(e.Now()),
				Core: int32(e.Core()), TID: -1, Name: t.Kind.String(),
				Arg1: t.id, Arg2: int64(t.Kind)})
		}
	}
	m.mon.NotifyAll(e)
	m.mon.Unlock(e)
}

// close shuts the manager down, releasing all sleeping GC threads.
func (m *manager) close(e *cfs.Env) {
	m.mon.Lock(e)
	m.closed = true
	m.mon.NotifyAll(e)
	m.mon.Unlock(e)
}
