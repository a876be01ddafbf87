package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/evtrace"
	"repro/internal/jvm"
	"repro/internal/runner"
	"repro/internal/stats"
)

// ErrQueueFull is returned (and mapped to HTTP 429) when the admission
// queue has no room for another scenario: the server sheds load instead
// of building an unbounded backlog — concurrency restriction applied to
// our own worker pool, per Dice & Kogan.
var ErrQueueFull = errors.New("service: scenario queue full, retry later")

// ErrClosed is returned for requests submitted after Close.
var ErrClosed = errors.New("service: shutting down")

// Options configure a Service. The zero value is usable: GOMAXPROCS
// workers, a 1024-entry cache, a 64-deep queue, 60 s timeout.
type Options struct {
	// Workers bounds concurrently simulating scenarios (0 = GOMAXPROCS).
	Workers int
	// CacheSize is the LRU response cache capacity in entries.
	CacheSize int
	// QueueCap is the admission bound: distinct scenarios admitted but
	// not yet finished beyond this are rejected with ErrQueueFull.
	QueueCap int
	// Timeout bounds one request's wait for its simulation (queueing
	// included). The simulation itself is not cancelled — it completes
	// and populates the cache for the retry.
	Timeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.CacheSize <= 0 {
		o.CacheSize = 1024
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
	if o.Timeout <= 0 {
		o.Timeout = 60 * time.Second
	}
	return o
}

// job is one admitted scenario on its way through the pull workers.
type job struct {
	spec   jvm.RunSpec
	digest string
	done   chan struct{} // closed when body/err are final
	body   []byte
	err    error
}

// Service is the cached what-if engine. Construct with New, serve it over
// HTTP via Handler (see http.go), stop it with Close.
type Service struct {
	opts  Options
	pool  *runner.Pool
	cache *lruCache

	mu       sync.Mutex
	inflight map[string]*job // digest → the single job computing it
	queue    chan *job
	closed   bool

	workers sync.WaitGroup // the pull workers; Close waits for them
	started time.Time

	// Counters for /metrics (atomics: requests arrive concurrently).
	requests  atomic.Int64 // scenario requests (run + sweep cells)
	hits      atomic.Int64 // served from the LRU
	coalesced atomic.Int64 // joined an in-flight identical scenario
	runs      atomic.Int64 // simulations executed
	rejected  atomic.Int64 // 429s from the admission bound
	timeouts  atomic.Int64 // requests that gave up waiting
	sweeps    atomic.Int64 // sweep grids expanded
	runErrors atomic.Int64 // simulations that failed outright

	// Per-request service time, milliseconds: overall plus one histogram
	// per outcome — a cold run costs a whole simulation, a hit costs an
	// LRU probe, coalesced waiters pay the tail of someone else's run, so
	// lumping them into one distribution hides the service's actual
	// behaviour.
	latency      stats.Histogram
	latCold      stats.Histogram // OutcomeMiss: executed the simulation
	latHit       stats.Histogram // OutcomeHit: served from the LRU
	latCoalesced stats.Histogram // OutcomeCoalesced: joined an in-flight run
}

// New starts a Service: one long-lived pull worker per pool slot, each
// taking the next admitted scenario the moment it is free.
func New(opts Options) *Service {
	opts = opts.withDefaults()
	s := &Service{
		opts:     opts,
		pool:     runner.New(opts.Workers),
		cache:    newLRUCache(opts.CacheSize),
		inflight: make(map[string]*job),
		queue:    make(chan *job, opts.QueueCap),
		started:  time.Now(),
	}
	s.workers.Add(s.pool.Workers())
	for w := 0; w < s.pool.Workers(); w++ {
		go s.work()
	}
	return s
}

// Close drains the queue (every admitted job still completes, so no
// waiter is stranded) and returns once every worker has exited. Requests
// arriving after Close get ErrClosed.
func (s *Service) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue) // enqueues happen under mu, so this cannot race a send
	}
	s.mu.Unlock()
	s.workers.Wait()
}

// Outcome labels how a request was satisfied (the X-Gcsimd-Cache header).
type Outcome string

const (
	OutcomeHit       Outcome = "hit"       // served from the LRU
	OutcomeMiss      Outcome = "miss"      // ran the simulation
	OutcomeCoalesced Outcome = "coalesced" // joined an identical in-flight run
)

// Run answers one scenario: cache hit, coalesce onto an identical
// in-flight simulation, or admit a new job for the pull workers. The
// returned body is the exact cached byte slice — callers must not mutate
// it.
func (s *Service) Run(ctx context.Context, scn Scenario) (body []byte, out Outcome, err error) {
	t0 := time.Now()
	defer func() {
		ms := float64(time.Since(t0)) / 1e6
		s.latency.Add(ms)
		switch out {
		case OutcomeMiss:
			s.latCold.Add(ms)
		case OutcomeHit:
			s.latHit.Add(ms)
		case OutcomeCoalesced:
			s.latCoalesced.Add(ms)
		}
	}()
	s.requests.Add(1)

	cfg, err := scn.Config()
	if err != nil {
		return nil, "", &BadScenarioError{Err: err}
	}
	digest := cfg.Digest()
	if body, ok := s.cache.Get(digest); ok {
		s.hits.Add(1)
		return body, OutcomeHit, nil
	}

	spec, err := core.BuildRunSpec(cfg)
	if err != nil {
		return nil, "", &BadScenarioError{Err: err}
	}

	if ctx == nil {
		ctx = context.Background()
	}
	// A dead caller must not admit new work: a canceled sweep stream used
	// to keep feeding uncached cells into the pool, simulating for nobody.
	// (Cells admitted before the cancel still finish and cache.)
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	j, outcome, err := s.admit(digest, spec)
	if err != nil {
		return nil, "", err
	}
	ctx, cancel := context.WithTimeout(ctx, s.opts.Timeout)
	defer cancel()
	select {
	case <-j.done:
		return j.body, outcome, j.err
	case <-ctx.Done():
		s.timeouts.Add(1)
		return nil, "", ctx.Err()
	}
}

// admit coalesces onto an in-flight job for digest, answers from the
// cache, or enqueues a new job, enforcing the admission bound.
func (s *Service) admit(digest string, spec jvm.RunSpec) (*job, Outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, "", ErrClosed
	}
	if j, ok := s.inflight[digest]; ok {
		s.coalesced.Add(1)
		return j, OutcomeCoalesced, nil
	}
	// The job for digest may have finished since Run's cache probe. A job
	// caches its body before it leaves inflight, so probing again under
	// mu closes the window in which a second simulation would start.
	if body, ok := s.cache.Get(digest); ok {
		s.hits.Add(1)
		j := &job{digest: digest, body: body, done: make(chan struct{})}
		close(j.done)
		return j, OutcomeHit, nil
	}
	if len(s.inflight) >= s.opts.QueueCap {
		s.rejected.Add(1)
		return nil, "", ErrQueueFull
	}
	j := &job{spec: spec, digest: digest, done: make(chan struct{})}
	// Each in-flight job occupies the channel at most once and admission
	// is gated on the in-flight count, so this send cannot block; the
	// default branch is a belt-and-suspenders reject, not a code path.
	select {
	case s.queue <- j:
	default:
		s.rejected.Add(1)
		return nil, "", ErrQueueFull
	}
	s.inflight[digest] = j
	return j, OutcomeMiss, nil
}

// work is one pull worker: it runs admitted jobs one at a time until Close
// closes the queue, so up to Workers scenarios simulate at once and a job
// starts as soon as any worker is free. The admission cap, not the worker
// count, bounds queued work. Each job is timed through the pool (the
// worker_busy_frac metric), and per-worker scratch (runner.Pool's
// free-list) carries event arenas and heap tables from cell to cell, so a
// busy server rebuilds its expensive state once per worker, not once per
// request — even when consecutive cells have completely different
// topologies and scales.
func (s *Service) work() {
	defer s.workers.Done()
	for j := range s.queue {
		s.pool.Do(func() { s.runJob(j) })
	}
}

// simulate executes one run spec with the pause-postmortem analyzer
// watching. A package variable so tests can inject simulation failures
// (panics included) without building a pathological scenario.
var simulate = check.Observers{Postmortem: true}.Run

// runJob simulates one admitted scenario on a pool worker, publishes the
// marshaled response into the cache, and releases every waiter.
func (s *Service) runJob(j *job) {
	defer func() {
		if r := recover(); r != nil {
			j.err = fmt.Errorf("service: simulation panicked: %v", r)
			s.finish(j)
		}
	}()
	sc, _ := s.pool.GetScratch().(*jvm.Scratch)
	if sc == nil {
		sc = new(jvm.Scratch)
	}
	// Deferred, not inline after jvm.Run: a panicking simulation used to
	// leak its scratch out of the free-list, and a long-lived server lost
	// one warm arena per panic. Returning a scratch that died mid-run is
	// safe — jvm.Scratch fully reinitializes its tables on acquisition.
	defer s.pool.PutScratch(sc)
	j.spec.Scratch = sc
	body, err := computeBody(j.digest, j.spec)
	s.runs.Add(1)
	if err != nil {
		s.runErrors.Add(1)
		j.err = err
		s.finish(j)
		return
	}
	j.body = body
	s.cache.Add(j.digest, body)
	s.finish(j)
}

// computeBody simulates one spec and marshals the Prediction body the
// cache stores. /run and every /sweep cell reach it through runJob, so a
// scenario's bytes are the same whichever endpoint asked for it. Every
// simulation carries a pause-postmortem analyzer: blame attribution
// subscribes to the event bus (one that keeps no records — the subscriber
// sees the whole stream) and never perturbs the run, so the body stays
// deterministic per digest.
func computeBody(digest string, spec jvm.RunSpec) ([]byte, error) {
	ob, err := simulate(spec)
	if err != nil {
		return nil, err
	}
	p := predict(digest, ob.Results[0])
	p.Blame = blameOf(ob.Analyzer)
	return json.Marshal(p)
}

// finish publishes the job's outcome: cache first (done in runJob), then
// drop it from the in-flight table, then wake the waiters.
func (s *Service) finish(j *job) {
	s.mu.Lock()
	delete(s.inflight, j.digest)
	s.mu.Unlock()
	close(j.done)
}

// BadScenarioError marks client errors (HTTP 400).
type BadScenarioError struct{ Err error }

func (e *BadScenarioError) Error() string { return e.Err.Error() }
func (e *BadScenarioError) Unwrap() error { return e.Err }

// Metrics snapshots the service counters into the unified metrics
// registry's export shape (sorted []evtrace.Metric), the same namespace
// convention the simulator's own layers publish under. Latency histograms
// expand into .p50/.p95/.p99/.count/.sum entries.
func (s *Service) Metrics() []evtrace.Metric {
	return s.registry().Current()
}

// WritePrometheus writes the same snapshot in Prometheus text exposition
// format (counters, gauges, and latency summaries with quantile labels).
func (s *Service) WritePrometheus(w io.Writer) error {
	return s.registry().WritePrometheus(w)
}

// registry copies the counters and gauges into a fresh metrics registry
// and registers the live latency histograms with it — the single source
// both exposition formats (JSON via Metrics, Prometheus text via
// WritePrometheus) render from. The latency gauges and the summaries read
// the same histograms, so they share one quantile rule.
func (s *Service) registry() *evtrace.Registry {
	reg := evtrace.NewRegistry()
	reg.Counter("service.requests").Set(s.requests.Load())
	reg.Counter("service.cache_hits").Set(s.hits.Load())
	reg.Counter("service.coalesced").Set(s.coalesced.Load())
	reg.Counter("service.runs").Set(s.runs.Load())
	reg.Counter("service.run_errors").Set(s.runErrors.Load())
	reg.Counter("service.rejected").Set(s.rejected.Load())
	reg.Counter("service.timeouts").Set(s.timeouts.Load())
	reg.Counter("service.sweeps").Set(s.sweeps.Load())
	reg.Counter("service.cache_entries").Set(int64(s.cache.Len()))
	reg.Counter("service.workers").Set(int64(s.pool.Workers()))

	// queue_depth counts the jobs admitted but not yet finished, queued
	// and simulating alike: each sits in inflight exactly once, so the
	// gauge reads against Options.QueueCap.
	s.mu.Lock()
	depth := len(s.inflight)
	s.mu.Unlock()
	reg.Gauge("service.queue_depth").Set(float64(depth))

	if n := s.latency.N(); n > 0 {
		reg.Gauge("service.latency_p50_ms").Set(s.latency.Percentile(50))
		reg.Gauge("service.latency_p99_ms").Set(s.latency.Percentile(99))
		reg.Gauge("service.rps").Set(float64(s.requests.Load()) / time.Since(s.started).Seconds())
	}
	summary := func(name string, h *stats.Histogram) {
		if h.N() > 0 {
			reg.Summary(name, h)
		}
	}
	summary("service.latency_ms", &s.latency)
	summary("service.latency_cold_ms", &s.latCold)
	summary("service.latency_hit_ms", &s.latHit)
	summary("service.latency_coalesced_ms", &s.latCoalesced)
	_, busy := s.pool.Stats()
	wall := time.Since(s.started)
	if wall > 0 && s.pool.Workers() > 0 {
		reg.Gauge("service.worker_busy_frac").Set(
			float64(busy) / (float64(wall) * float64(s.pool.Workers())))
	}
	return reg
}
