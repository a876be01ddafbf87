package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/evtrace"
	"repro/internal/jvm"
	"repro/internal/runner"
	"repro/internal/service"
)

// whatifClients is the closed loop's client count: one keep-alive
// connection each, as many as the sandbox has CPUs.
const whatifClients = 2

// whatifColdPerClient is the number of new scenarios each client sends per
// pass: half of the full factorial of whatifShapes × mutators ×
// optimizations × GC threads × item scales.
const whatifColdPerClient = 96

var (
	whatifMutators  = []int{4, 8, 16}
	whatifOpts      = []string{"none", "affinity", "steal", "all"}
	whatifGCThreads = []int{4, 16}
	whatifItemScale = []int{1, 2}
)

// whatifRepeatWindow bounds how far back (in the client's own new
// scenarios) a repeat reaches.
const whatifRepeatWindow = 8

// whatifShapes are the benchmarks new scenarios draw from, with base item
// counts that keep one cold simulation in the tens of milliseconds.
var whatifShapes = []struct {
	bench string
	items int
}{
	{"lusearch", 4000},
	{"xalan", 3000},
	{"h2", 1500},
	{"sunflow", 2000},
}

// whatifReq is one request of a client's list.
type whatifReq struct {
	body  []byte // the Scenario JSON
	first int    // index of this scenario's first request in the list, -1 if this is it
}

// whatifBench is a closed loop of clients POSTing /run to an in-process
// gcsimd server over loopback. Each pass gets a fresh service, so every
// pass sees the same misses and hits: a client repeats only scenarios its
// own earlier requests have already answered.
type whatifBench struct {
	lists [whatifClients][]whatifReq
	cold  []service.Scenario // new scenarios in list order (client 0 first)
	warms [whatifClients][]byte

	ln     net.Listener
	srv    *http.Server
	served chan error
	cur    atomic.Pointer[liveService]
	hc     [whatifClients]*http.Client
	url    string
}

type liveService struct {
	svc *service.Service
	h   http.Handler
}

func newWhatifBench(seed int64) (*whatifBench, error) {
	b := &whatifBench{served: make(chan error, 1)}
	if err := b.genInputs(seed); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	b.ln = ln
	b.url = "http://" + ln.Addr().String()
	b.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.cur.Load().h.ServeHTTP(w, r)
	})}
	go func() { b.served <- b.srv.Serve(ln) }()
	for c := range b.hc {
		b.hc[c] = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}}
	}
	b.swapService()
	return b, nil
}

// genInputs derives the request lists. Of every three requests a client
// sends, one is a new scenario and two repeat one of its last few new
// scenarios. The new scenarios are the full factorial of benchmark shape,
// mutators, optimizations, GC threads and items, shuffled and dealt to the
// clients, each with its own seed: seeds change the order and the
// simulations, never the mix.
func (b *whatifBench) genInputs(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	var scns []service.Scenario
	for _, sh := range whatifShapes {
		for _, m := range whatifMutators {
			for _, opt := range whatifOpts {
				for _, gct := range whatifGCThreads {
					for _, k := range whatifItemScale {
						scns = append(scns, service.Scenario{
							Benchmark: sh.bench, Items: k * sh.items, Mutators: m,
							GCThreads: gct, Optimizations: opt,
						})
					}
				}
			}
		}
	}
	if len(scns) != whatifClients*whatifColdPerClient {
		return fmt.Errorf("whatif factorial has %d scenarios, want %d", len(scns), whatifClients*whatifColdPerClient)
	}
	rng.Shuffle(len(scns), func(i, j int) { scns[i], scns[j] = scns[j], scns[i] })
	for i := range scns {
		scns[i].Seed = rng.Int63n(1 << 31)
	}
	for c := range b.lists {
		var list []whatifReq
		var firsts []int
		for k := 0; k < whatifColdPerClient; k++ {
			scn := scns[c*whatifColdPerClient+k]
			body, err := json.Marshal(scn)
			if err != nil {
				return err
			}
			b.cold = append(b.cold, scn)
			// The new scenario's slot among its block of three; the first
			// block starts with it so there is something to repeat.
			slot := 0
			if k > 0 {
				slot = rng.Intn(3)
			}
			for s := 0; s < 3; s++ {
				if s == slot {
					firsts = append(firsts, len(list))
					list = append(list, whatifReq{body: body, first: -1})
					continue
				}
				w := min(whatifRepeatWindow, len(firsts))
				j := firsts[len(firsts)-1-rng.Intn(w)]
				list = append(list, whatifReq{body: list[j].body, first: j})
			}
		}
		b.lists[c] = list
		warm, err := json.Marshal(service.Scenario{Benchmark: "lusearch", Items: 2000, Mutators: 4, Seed: int64(c) - 1})
		if err != nil {
			return err
		}
		b.warms[c] = warm
	}
	return nil
}

// swapService installs a fresh service (empty cache) behind the server and
// closes the previous one.
func (b *whatifBench) swapService() {
	svc := service.New(service.Options{Workers: poolWorkers})
	if old := b.cur.Swap(&liveService{svc: svc, h: svc.Handler()}); old != nil {
		old.svc.Close()
	}
}

// post sends one scenario and returns the body and cache outcome.
func (b *whatifBench) post(c int, body []byte) ([]byte, string, error) {
	resp, err := b.hc[c].Post(b.url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, resp.Header.Get(service.HeaderCache), nil
}

// warm sends one untimed cold scenario per client, so each pool worker of
// the current service has simulated once and holds warm scratch.
func (b *whatifBench) warm() error {
	errs := make([]error, whatifClients)
	var wg sync.WaitGroup
	for c := 0; c < whatifClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, _, errs[c] = b.post(c, b.warms[c])
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// reqOut is the outcome of one timed request.
type reqOut struct {
	ms      float64
	body    []byte
	outcome string
	err     error
}

func (b *whatifBench) pass(sp *spans) (*passResult, error) {
	b.swapService()
	if err := b.warm(); err != nil {
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	outs := make([][]reqOut, whatifClients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < whatifClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			outs[c] = b.client(c, sp)
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)

	pr := &passResult{wall: wall, stats: simStats{}}
	for c, list := range b.lists {
		for i, req := range list {
			o := outs[c][i]
			pr.reqMs = append(pr.reqMs, o.ms)
			sum := sha256.Sum256(o.body)
			pr.digests = append(pr.digests, hex.EncodeToString(sum[:]))
			pr.fails = append(pr.fails, b.verify(req, o, outs[c]))
			if req.first < 0 {
				pr.cellMs = append(pr.cellMs, o.ms)
				if o.err == nil {
					bodyStats(o.body, pr.stats)
				}
			} else {
				pr.hitMs = append(pr.hitMs, o.ms)
			}
		}
	}
	m, err := b.metrics()
	if err != nil {
		return nil, err
	}
	pr.busy = m["service.worker_busy_frac"]
	for _, k := range []string{"service.cache_hits", "service.coalesced", "service.rejected", "service.runs"} {
		pr.stats[k] = m[k]
	}
	return pr, nil
}

// client runs one closed-loop client over its request list.
func (b *whatifBench) client(c int, sp *spans) []reqOut {
	list := b.lists[c]
	outs := make([]reqOut, len(list))
	for i, req := range list {
		id := sp.begin("http.post /run", 0)
		t0 := time.Now()
		body, outcome, err := b.post(c, req.body)
		outs[i] = reqOut{ms: float64(time.Since(t0)) / 1e6, body: body, outcome: outcome, err: err}
		sp.end(id)
	}
	return outs
}

// verify checks one response: it succeeded, a new scenario ran cold, and a
// repeat was a cache hit whose body is byte-identical to the cold body.
func (b *whatifBench) verify(req whatifReq, o reqOut, outs []reqOut) string {
	switch {
	case o.err != nil:
		return o.err.Error()
	case req.first < 0 && o.outcome != string(service.OutcomeMiss):
		return "new scenario answered " + o.outcome
	case req.first >= 0 && o.outcome != string(service.OutcomeHit):
		return "repeated scenario answered " + o.outcome
	case req.first >= 0 && !bytes.Equal(o.body, outs[req.first].body):
		return "hit body differs from its miss body"
	}
	return ""
}

// bodyStats folds one cold Prediction's simulated figures into st.
func bodyStats(body []byte, st simStats) {
	var p service.Prediction
	if err := json.Unmarshal(body, &p); err != nil {
		return
	}
	st["pscavenge.collections"] += float64(p.MinorGCs + p.MajorGCs)
	st["sim.total_ms"] += p.TotalMs
	if p.Blame != nil {
		for _, bk := range p.Blame.Buckets {
			st["blame."+bk.Name+"_ms"] += bk.Ms
		}
	}
}

// metrics fetches the current service's /metrics as a name → value map.
func (b *whatifBench) metrics() (map[string]float64, error) {
	resp, err := b.hc[0].Get(b.url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	var ms []evtrace.Metric
	if err := json.NewDecoder(resp.Body).Decode(&ms); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	out := make(map[string]float64, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Value
	}
	return out, nil
}

// replay re-simulates every new scenario of the lists, in list order,
// with an evtrace counter and a postmortem analyzer subscribed. Response
// bodies have no digest of the replay's kind; the caller compares the
// replay's blame and collection counts with theirs instead.
func (b *whatifBench) replay([]string) (simStats, []string, error) {
	specs := make([]jvm.RunSpec, len(b.cold))
	for i, scn := range b.cold {
		cfg, err := scn.Config()
		if err != nil {
			return nil, nil, err
		}
		if specs[i], err = core.BuildRunSpec(cfg); err != nil {
			return nil, nil, err
		}
	}
	return replayCells(runner.New(poolWorkers), len(specs), func(i int, tr *evtrace.Tracer) ([]*jvm.Result, error) {
		spec := specs[i]
		spec.EvTracer = tr
		r, err := jvm.Run(spec)
		if err != nil {
			return nil, err
		}
		return []*jvm.Result{r}, nil
	}, nil)
}

func (b *whatifBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = b.srv.Shutdown(ctx) // the Serve result below reports the outcome
	<-b.served
	for _, hc := range b.hc {
		hc.CloseIdleConnections()
	}
	if cur := b.cur.Load(); cur != nil {
		cur.svc.Close()
	}
}
