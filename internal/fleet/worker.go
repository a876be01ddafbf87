package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// RunFunc executes one cell. index names the cell in the sweep's
// prefix-stable space, which derives everything else about it. payload is
// always nil: no cell space carries per-cell data on the wire. The
// returned record's Index must equal index. An error is folded into a
// Failed record, so one broken cell never takes its shard's worker down.
type RunFunc func(index int, payload json.RawMessage) (CellRecord, error)

// WorkerOptions carry the fault-injection knobs of the recovery harness.
// Zero values inject nothing.
type WorkerOptions struct {
	// KillAfter > 0 crashes the process (os.Exit, no goodbye, mid-shard)
	// after that many cells have completed — the coordinator must detect
	// the EOF and re-dispatch the rest of the shard.
	KillAfter int
	// HangAfter > 0 stops executing cells after that many have completed
	// while keeping the process alive and answering pings — the
	// coordinator's progress deadline, not its liveness check, must
	// catch it.
	HangAfter int
}

// workerState is the shared state between the worker's control-message
// reader and its cell-executing main loop.
type workerState struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*workerShard // FIFO of assigned shards; queue[0] is current
	drain  bool           // finish the current cell, then exit
	closed bool           // coordinator went away (EOF on stdin)

	wmu sync.Mutex // serializes frames onto stdout
	out io.Writer
}

// workerShard is one assigned shard as the worker sees it: next is the
// first cell not yet started, hi shrinks when the coordinator steals the
// tail.
type workerShard struct {
	id       int
	next, hi int
}

func (ws *workerState) send(env *Envelope) error {
	ws.wmu.Lock()
	defer ws.wmu.Unlock()
	return WriteMsg(ws.out, env)
}

// ServeWorker runs the worker side of the protocol: read shard
// assignments and control messages from in, execute cells with run, and
// stream records to out. It returns when the coordinator drains it, when
// in reaches EOF (the coordinator died — workers never outlive their
// coordinator), or on a protocol error.
func ServeWorker(in io.Reader, out io.Writer, run RunFunc, opts WorkerOptions) error {
	ws := &workerState{out: out}
	ws.cond = sync.NewCond(&ws.mu)

	if err := ws.send(&Envelope{Type: MsgHello, Seq: ProtoVersion}); err != nil {
		return err
	}

	// The reader goroutine keeps consuming control traffic while the main
	// loop simulates: pings are answered immediately (liveness stays
	// observable even mid-cell, which is how the coordinator tells a hung
	// worker from a dead one), and steal requests are answered against
	// the live shard state, so a straggler yields its unstarted tail
	// without waiting for its current cell.
	readErr := make(chan error, 1)
	go func() {
		readErr <- ws.readLoop(in)
	}()

	err := ws.mainLoop(run, opts)
	// Unblock the reader's pipe read by exiting; the coordinator closes
	// our stdin once it sees the bye.
	if err != nil {
		return err
	}
	select {
	case err := <-readErr:
		if err != nil && err != io.EOF {
			return err
		}
	default:
	}
	return nil
}

// readLoop consumes coordinator frames until EOF or error.
func (ws *workerState) readLoop(in io.Reader) error {
	for {
		var env Envelope
		if err := ReadMsg(in, &env); err != nil {
			ws.mu.Lock()
			ws.closed = true
			ws.cond.Broadcast()
			ws.mu.Unlock()
			if err == io.EOF {
				return io.EOF
			}
			return err
		}
		switch env.Type {
		case MsgPing:
			ws.send(&Envelope{Type: MsgPong, Seq: env.Seq})
		case MsgShard:
			ws.mu.Lock()
			ws.queue = append(ws.queue, &workerShard{id: env.Shard, next: env.Lo, hi: env.Hi})
			ws.cond.Broadcast()
			ws.mu.Unlock()
		case MsgSteal:
			ws.steal(env.Shard, env.Cut)
		case MsgDrain:
			ws.mu.Lock()
			ws.drain = true
			ws.cond.Broadcast()
			ws.mu.Unlock()
		default:
			// Unknown control frames are ignored for forward compatibility.
		}
	}
}

// steal answers a coordinator steal request for shard id: cut the shard's
// unstarted tail no earlier than keep (the coordinator's proposed split
// point) and hand it back. The reply's Cut is authoritative — the worker
// will run exactly [original lo, Cut), the coordinator re-owns [Cut, hi).
func (ws *workerState) steal(id, keep int) {
	ws.mu.Lock()
	cut := -1
	hi := -1
	for _, sh := range ws.queue {
		if sh.id != id {
			continue
		}
		cut = keep
		if cut < sh.next {
			cut = sh.next // never un-run a started cell
		}
		if cut > sh.hi {
			cut = sh.hi // nothing left to give
		}
		hi = sh.hi
		sh.hi = cut
		break
	}
	ws.mu.Unlock()
	if cut < 0 {
		// Shard already finished (or never ours): nothing to yield. Hi==Cut
		// tells the coordinator the steal came up empty.
		ws.send(&Envelope{Type: MsgStolen, Shard: id, Cut: 0, Hi: 0})
		return
	}
	ws.send(&Envelope{Type: MsgStolen, Shard: id, Cut: cut, Hi: hi})
}

// mainLoop claims cells from the assigned shards in order and executes
// them. One cell at a time: the worker's in-process concurrency is the
// coordinator's to control by how many shards it keeps in flight, not
// something the worker multiplies on its own.
func (ws *workerState) mainLoop(run RunFunc, opts WorkerOptions) error {
	ran := 0
	for {
		ws.mu.Lock()
		for {
			// Drop exhausted shards, announcing each completion.
			for len(ws.queue) > 0 && ws.queue[0].next >= ws.queue[0].hi {
				done := ws.queue[0]
				ws.queue = ws.queue[1:]
				ws.mu.Unlock()
				if err := ws.send(&Envelope{Type: MsgShardDone, Shard: done.id}); err != nil {
					return err
				}
				ws.mu.Lock()
			}
			if ws.drain || ws.closed || len(ws.queue) > 0 {
				break
			}
			ws.cond.Wait()
		}
		if ws.drain || ws.closed {
			drained := ws.drain
			ws.mu.Unlock()
			if drained {
				return ws.send(&Envelope{Type: MsgBye})
			}
			return nil // coordinator vanished; exit quietly
		}
		sh := ws.queue[0]
		idx := sh.next
		sh.next++
		ws.mu.Unlock()

		if opts.HangAfter > 0 && ran >= opts.HangAfter {
			// Injected hang: the cell was claimed but never runs and never
			// reports. Pings keep flowing from the reader goroutine, so only
			// the coordinator's progress deadline can rescue the shard.
			// (Sleeping, not select{}: once the coordinator closes stdin the
			// reader exits, and a bare select would trip the runtime's
			// deadlock detector while we wait to be killed.)
			for {
				time.Sleep(time.Hour)
			}
		}

		rec := runOne(run, idx)
		ran++
		if err := ws.send(&Envelope{Type: MsgCell, Shard: sh.id, Record: &rec}); err != nil {
			return err
		}

		if opts.KillAfter > 0 && ran >= opts.KillAfter {
			// Injected crash: no goodbye, no flush of anything else — the
			// hardest failure the coordinator has to absorb.
			os.Exit(3)
		}
	}
}

// runOne executes one cell, converting errors and panics into a Failed
// record so a poisoned cell is reported, not fatal.
func runOne(run RunFunc, idx int) (rec CellRecord) {
	defer func() {
		if r := recover(); r != nil {
			rec = CellRecord{Index: idx, Failed: true,
				Summary: fmt.Sprintf("worker panic: %v", r)}
		}
	}()
	rec, err := run(idx, nil)
	if err != nil {
		return CellRecord{Index: idx, Failed: true, Summary: err.Error()}
	}
	rec.Index = idx
	return rec
}
