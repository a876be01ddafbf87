package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"sort"
	"sync"
	"time"
)

// ErrDrained is wrapped into Run's error when the sweep was stopped by
// context cancellation (SIGTERM drain) before every cell completed. The
// partial Result returned alongside it holds every record collected.
var ErrDrained = errors.New("fleet: sweep drained before completion")

// inflight caps shards concurrently assigned to one worker: one running,
// one prefetched so the worker never idles a pipe round-trip between
// shards. Restriction, not oversubscription: queue depth beyond that only
// hides progress from the balancer.
const inflight = 2

// minSteal is the smallest remaining tail worth stealing, in cells.
// Smaller remainders finish faster locally than a steal round-trip.
const minSteal = 2

// Config describes one fleet sweep.
type Config struct {
	// Cells is the size of the cell space [0, Cells).
	Cells int

	// Workers is the number of worker processes (<= 0 means 1).
	Workers int

	// Shards is the number of contiguous shards the cell space is cut
	// into (<= 0 means 4x Workers, the classic over-partitioning that
	// gives stealing something to rebalance). More shards = finer-grained
	// balancing, more dispatch traffic.
	Shards int

	// DisableSteal turns cross-shard work stealing off (for measuring
	// what stealing buys).
	DisableSteal bool

	// Heartbeat is the ping interval and the cadence of deadline checks
	// (<= 0 means 500ms).
	Heartbeat time.Duration

	// Deadline is the per-worker progress deadline: a worker holding
	// cells that delivers no record for this long is declared hung,
	// killed, and its shards re-dispatched (<= 0 means 30s). Must exceed
	// the worst single-cell simulation time.
	Deadline time.Duration

	// Retries bounds how many times one shard may be re-dispatched after
	// worker failures before the sweep aborts (<= 0 means 3).
	Retries int

	// Command builds worker process i. The process must speak the worker
	// protocol on its stdin/stdout (ServeWorker). Stderr is inherited.
	Command func(i int) (*exec.Cmd, error)

	// OnRecord, when set, observes each cell record as it first arrives
	// (arrival order — not deterministic; the merged Result is).
	OnRecord func(CellRecord)

	// Log, when set, receives coordinator progress diagnostics.
	Log io.Writer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Shards <= 0 {
		c.Shards = 4 * c.Workers
	}
	if c.Shards > c.Cells && c.Cells > 0 {
		c.Shards = c.Cells
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 500 * time.Millisecond
	}
	if c.Deadline <= 0 {
		c.Deadline = 30 * time.Second
	}
	if c.Retries <= 0 {
		c.Retries = 3
	}
	return c
}

// Stats count what the coordinator did and survived. They describe the
// execution, not the result, so they live outside the deterministic
// report.
type Stats struct {
	Workers      int
	Shards       int
	Steals       int // successful cross-shard steals (non-empty tail moved)
	Redispatches int // shard remainders re-queued after a worker loss
	WorkerDeaths int // workers lost to exit/EOF while holding cells
	WorkerHangs  int // workers killed by the progress deadline
	Drained      bool
}

// Result is a completed (or drained) sweep: records sorted by cell index
// plus execution stats.
type Result struct {
	Records []CellRecord
	Stats   Stats
}

// shard is the coordinator's view of one contiguous cell range.
type shard struct {
	id       int
	lo, hi   int // current bounds; hi shrinks when the tail is stolen
	next     int // first index without a record
	retries  int
	worker   int  // owning worker, -1 when pending
	stealing bool // a MsgSteal is outstanding
}

func (s *shard) remaining() int { return s.hi - s.next }

// worker is the coordinator's view of one worker process.
type worker struct {
	id           int
	cmd          *exec.Cmd
	stdin        io.WriteCloser
	out          *outbox
	alive        bool
	hello        bool
	assigned     map[int]*shard
	lastProgress time.Time
}

// outbox is an unbounded per-worker send queue drained by a dedicated
// writer goroutine. The coordinator goroutine must never block on a
// worker's stdin: a full 64 KiB pipe and a worker that stopped reading
// would close the cycle coordinator→stdin / worker→stdout /
// reader→events / coordinator and deadlock the sweep. Unbounded is safe:
// outstanding traffic per worker is a handful of shard assignments
// (capped by inflight) plus pings, and a worker that stops reading is
// killed by the progress deadline.
type outbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*Envelope
	closed bool
}

func newOutbox() *outbox {
	ob := &outbox{}
	ob.cond = sync.NewCond(&ob.mu)
	return ob
}

// put enqueues one frame; frames queued after close are dropped (the
// worker is dead, its shards are already re-queued).
func (ob *outbox) put(env *Envelope) {
	ob.mu.Lock()
	if !ob.closed {
		ob.queue = append(ob.queue, env)
		ob.cond.Signal()
	}
	ob.mu.Unlock()
}

// get blocks for the next frame; ok=false means the outbox closed and the
// writer goroutine should exit.
func (ob *outbox) get() (*Envelope, bool) {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	for len(ob.queue) == 0 && !ob.closed {
		ob.cond.Wait()
	}
	if len(ob.queue) == 0 {
		return nil, false
	}
	env := ob.queue[0]
	ob.queue = ob.queue[1:]
	return env, true
}

func (ob *outbox) close() {
	ob.mu.Lock()
	ob.closed = true
	ob.cond.Broadcast()
	ob.mu.Unlock()
}

// event is one message (or failure) from a worker's reader goroutine.
type event struct {
	wid int
	env Envelope
	err error
}

type coordinator struct {
	cfg     Config
	workers []*worker
	shards  []*shard
	pending []*shard // FIFO of unassigned shards
	records []*CellRecord
	got     int
	events  chan event
	stats   Stats
	pingSeq uint64
}

// Run executes one sweep: partition [0,Cells) into shards, spawn workers,
// dispatch, steal, recover, merge. Cancelling ctx triggers a graceful
// drain: no new cells start, in-flight cells finish and are collected,
// and Run returns the partial Result with an ErrDrained error.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Cells <= 0 {
		return nil, fmt.Errorf("fleet: no cells to sweep")
	}
	if cfg.Command == nil {
		return nil, fmt.Errorf("fleet: Config.Command is required")
	}

	co := &coordinator{
		cfg:     cfg,
		records: make([]*CellRecord, cfg.Cells),
		events:  make(chan event, 4*cfg.Workers),
	}
	co.partition()
	if err := co.spawnAll(); err != nil {
		co.killAll()
		return nil, err
	}
	defer co.killAll()
	return co.loop(ctx)
}

// partition cuts [0,Cells) into Shards contiguous ranges whose sizes
// differ by at most one — deterministic, so "shard 7 of this sweep" names
// the same cells everywhere.
func (co *coordinator) partition() {
	n, s := co.cfg.Cells, co.cfg.Shards
	base, extra := n/s, n%s
	lo := 0
	for i := 0; i < s; i++ {
		size := base
		if i < extra {
			size++
		}
		sh := &shard{id: i, lo: lo, hi: lo + size, next: lo, worker: -1}
		co.shards = append(co.shards, sh)
		co.pending = append(co.pending, sh)
		lo += size
	}
	co.stats.Shards = s
}

func (co *coordinator) logf(format string, args ...any) {
	if co.cfg.Log != nil {
		fmt.Fprintf(co.cfg.Log, "fleet: "+format+"\n", args...)
	}
}

func (co *coordinator) spawnAll() error {
	for i := 0; i < co.cfg.Workers; i++ {
		w, err := co.spawn(i)
		if err != nil {
			return fmt.Errorf("fleet: spawn worker %d: %w", i, err)
		}
		co.workers = append(co.workers, w)
	}
	co.stats.Workers = len(co.workers)
	return nil
}

func (co *coordinator) spawn(i int) (*worker, error) {
	cmd, err := co.cfg.Command(i)
	if err != nil {
		return nil, err
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &worker{
		id: i, cmd: cmd, stdin: stdin, out: newOutbox(), alive: true,
		assigned:     make(map[int]*shard),
		lastProgress: time.Now(),
	}
	go func() {
		r := stdout
		for {
			var env Envelope
			err := ReadMsg(r, &env)
			if err != nil {
				co.events <- event{wid: i, err: err}
				return
			}
			co.events <- event{wid: i, env: env}
		}
	}()
	// Writer goroutine: drains the outbox onto stdin so the coordinator
	// never blocks on a full pipe. A failed write surfaces as an error
	// event (same path as a reader EOF) and reaps the worker.
	go func() {
		for {
			env, ok := w.out.get()
			if !ok {
				return
			}
			if err := WriteMsg(stdin, env); err != nil {
				w.out.close()
				co.events <- event{wid: i, err: fmt.Errorf("stdin write: %w", err)}
				return
			}
		}
	}()
	return w, nil
}

// send queues one frame for a worker's writer goroutine. Write failures
// are detected asynchronously: the writer surfaces an error event and the
// event loop reaps the worker, re-queueing its shards.
func (co *coordinator) send(w *worker, env *Envelope) {
	if !w.alive {
		return
	}
	w.out.put(env)
}

// loop is the coordinator main loop: one goroutine owns all state;
// worker readers only feed the events channel.
func (co *coordinator) loop(ctx context.Context) (*Result, error) {
	ticker := time.NewTicker(co.cfg.Heartbeat)
	defer ticker.Stop()
	draining := false
	done := ctx.Done()

	co.dispatch()
	for co.got < co.cfg.Cells {
		select {
		case ev := <-co.events:
			if ev.wid < 0 {
				// Drain cut-off sentinel: in-flight cells did not land within
				// one deadline (a worker hung mid-drain). Cut and return the
				// partial result instead of waiting forever.
				co.logf("drain deadline expired with %d cells still in flight; cutting", co.inFlight())
				return co.result(), fmt.Errorf("%w: drain deadline expired: %d of %d cells done", ErrDrained, co.got, co.cfg.Cells)
			}
			if ev.err != nil {
				co.reapWorker(co.workers[ev.wid], false)
			} else {
				co.handle(co.workers[ev.wid], &ev.env)
			}
		case <-ticker.C:
			// No pings while draining: workers are finishing a last cell and
			// exiting, and a ping racing a clean exit turns its bye into a
			// spurious write-failure death in the stats.
			if !draining {
				co.pingSeq++
				for _, w := range co.workers {
					if w.alive {
						co.send(w, &Envelope{Type: MsgPing, Seq: co.pingSeq})
					}
				}
				co.checkDeadlines()
			}
		case <-done:
			// Nil the channel so this permanently-ready case never selects
			// again — otherwise the loop busy-spins at full CPU for the
			// whole drain.
			done = nil
			draining = true
			co.stats.Drained = true
			co.logf("drain requested; stopping dispatch, collecting in-flight cells")
			for _, w := range co.workers {
				co.send(w, &Envelope{Type: MsgDrain})
			}
			// Give in-flight cells one deadline to land, then cut.
			go func() {
				time.Sleep(co.cfg.Deadline)
				co.events <- event{wid: -1}
			}()
		}
		if draining {
			if co.inFlight() == 0 {
				return co.result(), fmt.Errorf("%w: %d of %d cells done", ErrDrained, co.got, co.cfg.Cells)
			}
			continue
		}
		if !co.dispatch() {
			return co.result(), fmt.Errorf("fleet: sweep failed: %d of %d cells done, no workers left or shard retries exhausted", co.got, co.cfg.Cells)
		}
	}
	return co.result(), nil
}

// inFlight counts cells assigned to live workers and not yet recorded.
func (co *coordinator) inFlight() int {
	n := 0
	for _, w := range co.workers {
		if !w.alive {
			continue
		}
		for _, sh := range w.assigned {
			n += sh.remaining()
		}
	}
	return n
}

// handle processes one worker message.
func (co *coordinator) handle(w *worker, env *Envelope) {
	switch env.Type {
	case MsgHello:
		w.hello = true
		if env.Seq != ProtoVersion {
			co.logf("worker %d protocol version %d != %d; reaping", w.id, env.Seq, ProtoVersion)
			co.reapWorker(w, false)
		}
	case MsgPong:
		// Liveness only; progress is tracked by records.
	case MsgCell:
		if env.Record == nil {
			return
		}
		w.lastProgress = time.Now()
		co.record(*env.Record)
		if sh, ok := w.assigned[env.Shard]; ok {
			if i := env.Record.Index; i >= sh.next && i < sh.hi {
				sh.next = i + 1
			}
		}
	case MsgShardDone:
		w.lastProgress = time.Now()
		sh, ok := w.assigned[env.Shard]
		if !ok {
			return
		}
		delete(w.assigned, env.Shard)
		sh.worker = -1
		// Defensive: a shard-done with unrecorded cells (a worker that
		// skipped) re-queues the gap instead of silently losing cells.
		if sh.next < sh.hi {
			co.logf("worker %d finished shard %d with %d cells unrecorded; re-queueing", w.id, sh.id, sh.remaining())
			co.requeue(sh)
		}
	case MsgStolen:
		sh, ok := w.assigned[env.Shard]
		if !ok {
			return
		}
		sh.stealing = false
		if env.Hi <= env.Cut { // empty steal: victim had nothing left
			return
		}
		w.lastProgress = time.Now()
		// The victim now owns [lo, Cut); [Cut, Hi) returns to the pool as
		// a fresh shard and is dispatched to whoever is idle.
		sh.hi = env.Cut
		child := &shard{
			id: len(co.shards), lo: env.Cut, hi: env.Hi, next: env.Cut,
			worker: -1, retries: sh.retries,
		}
		co.shards = append(co.shards, child)
		co.pending = append(co.pending, child)
		co.stats.Steals++
		co.logf("stole cells [%d,%d) of shard %d from worker %d", env.Cut, env.Hi, env.Shard, w.id)
		if sh.next >= sh.hi {
			delete(w.assigned, sh.id)
			sh.worker = -1
		}
	case MsgBye:
		// Clean exit (drain acknowledgement); reap without re-dispatch
		// panic — remaining shards re-queue normally.
		co.reapWorker(w, true)
	}
}

// record stores one cell record, first writer wins. Records are
// deterministic per index, so a duplicate from a re-dispatched shard is
// byte-equal anyway; keeping the first makes that a non-event.
func (co *coordinator) record(rec CellRecord) {
	if rec.Index < 0 || rec.Index >= len(co.records) || co.records[rec.Index] != nil {
		return
	}
	r := rec
	co.records[rec.Index] = &r
	co.got++
	if co.cfg.OnRecord != nil {
		co.cfg.OnRecord(rec)
	}
}

// reapWorker marks a worker dead, kills the process, and re-queues the
// unfinished remainder of every shard it held. clean says the worker said
// goodbye (drain) rather than dying.
func (co *coordinator) reapWorker(w *worker, clean bool) {
	if !w.alive {
		return
	}
	w.alive = false
	w.out.close()
	w.stdin.Close() // also unblocks a writer goroutine stuck mid-frame
	if w.cmd.Process != nil {
		w.cmd.Process.Kill()
	}
	go w.cmd.Wait() // reap the child; exit status is not interesting here
	if !clean && len(w.assigned) > 0 {
		co.stats.WorkerDeaths++
	}
	for id, sh := range w.assigned {
		delete(w.assigned, id)
		sh.worker = -1
		sh.stealing = false
		if sh.next < sh.hi {
			sh.retries++
			co.stats.Redispatches++
			co.logf("worker %d lost with cells [%d,%d) of shard %d; re-dispatch attempt %d",
				w.id, sh.next, sh.hi, sh.id, sh.retries)
			co.requeue(sh)
		}
	}
}

// requeue returns a shard remainder to the pending pool as-is (its next
// pointer already excludes recorded cells).
func (co *coordinator) requeue(sh *shard) {
	co.pending = append(co.pending, sh)
}

// checkDeadlines kills workers that hold cells but have made no progress
// for the configured deadline — the hung-worker detector (a crashed
// worker is caught faster, by EOF).
func (co *coordinator) checkDeadlines() {
	for _, w := range co.workers {
		if !w.alive || len(w.assigned) == 0 {
			continue
		}
		if time.Since(w.lastProgress) > co.cfg.Deadline {
			co.logf("worker %d made no progress for %v; declaring it hung", w.id, co.cfg.Deadline)
			co.stats.WorkerHangs++
			co.reapWorker(w, false)
		}
	}
}

// dispatch hands pending shards to live workers under the in-flight cap,
// then triggers steals for idle workers. Returns false when the sweep can
// no longer finish: cells remain but no live worker can receive work, or
// a shard ran out of retries.
func (co *coordinator) dispatch() bool {
	for len(co.pending) > 0 {
		sh := co.pending[0]
		if sh.retries > co.cfg.Retries {
			co.logf("shard %d exceeded %d re-dispatches; aborting", sh.id, co.cfg.Retries)
			return false
		}
		w := co.pickWorker()
		if w == nil {
			break // every live worker is at its in-flight cap
		}
		co.pending = co.pending[1:]
		sh.worker = w.id
		w.assigned[sh.id] = sh
		co.send(w, &Envelope{Type: MsgShard, Shard: sh.id, Lo: sh.next, Hi: sh.hi})
	}
	if co.alive() == 0 {
		return co.got >= co.cfg.Cells
	}
	if len(co.pending) == 0 && !co.cfg.DisableSteal {
		co.maybeSteal()
	}
	return true
}

func (co *coordinator) alive() int {
	n := 0
	for _, w := range co.workers {
		if w.alive {
			n++
		}
	}
	return n
}

// pickWorker returns the live worker with the fewest assigned shards
// still under the in-flight cap (nil when none).
func (co *coordinator) pickWorker() *worker {
	var best *worker
	for _, w := range co.workers {
		if !w.alive || !w.hello || len(w.assigned) >= inflight {
			continue
		}
		if best == nil || len(w.assigned) < len(best.assigned) {
			best = w
		}
	}
	return best
}

// maybeSteal asks the straggler with the largest remaining tail to yield
// half of it when some worker is idle and nothing is pending — dynamic
// load balancing across shards, per Wang et al.
func (co *coordinator) maybeSteal() {
	idle := false
	for _, w := range co.workers {
		if w.alive && w.hello && len(w.assigned) == 0 {
			idle = true
			break
		}
	}
	if !idle {
		return
	}
	var victim *shard
	var victimW *worker
	for _, w := range co.workers {
		if !w.alive {
			continue
		}
		for _, sh := range w.assigned {
			if sh.stealing {
				continue
			}
			if victim == nil || sh.remaining() > victim.remaining() {
				victim, victimW = sh, w
			}
		}
	}
	if victim == nil || victim.remaining() < 2*minSteal {
		return
	}
	keep := victim.next + victim.remaining()/2
	victim.stealing = true
	co.send(victimW, &Envelope{Type: MsgSteal, Shard: victim.id, Cut: keep})
}

// killAll terminates every worker process.
func (co *coordinator) killAll() {
	for _, w := range co.workers {
		if w.alive {
			w.alive = false
			w.out.close()
			w.stdin.Close()
			if w.cmd.Process != nil {
				w.cmd.Process.Kill()
			}
			w.cmd.Wait()
		}
	}
}

// result assembles the index-sorted record slice.
func (co *coordinator) result() *Result {
	res := &Result{Stats: co.stats}
	for _, r := range co.records {
		if r != nil {
			res.Records = append(res.Records, *r)
		}
	}
	sort.Slice(res.Records, func(i, j int) bool { return res.Records[i].Index < res.Records[j].Index })
	return res
}
