package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jvm"
)

func tinyScenario() Scenario {
	return Scenario{Benchmark: "lusearch", Items: 1500, Mutators: 4, GCThreads: 4, Seed: 7}
}

func newTestService(t *testing.T, opts Options) *Service {
	t.Helper()
	s := New(opts)
	t.Cleanup(s.Close)
	return s
}

func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// A cache hit must return the byte-identical body of the cold run that
// populated it, flagged by the X-Gcsimd-Cache header.
func TestCacheHitByteIdenticalOverHTTP(t *testing.T) {
	s := newTestService(t, Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func() (string, []byte) {
		resp := postJSON(t, srv.URL+"/run", tinyScenario())
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.Get(HeaderDigest) == "" {
			t.Error("missing digest header")
		}
		return resp.Header.Get(HeaderCache), body
	}

	outcome1, cold := get()
	outcome2, warm := get()
	if outcome1 != string(OutcomeMiss) {
		t.Errorf("first request outcome = %q, want miss", outcome1)
	}
	if outcome2 != string(OutcomeHit) {
		t.Errorf("second request outcome = %q, want hit", outcome2)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cache hit body differs from cold run:\n%s\nvs\n%s", warm, cold)
	}

	var p Prediction
	if err := json.Unmarshal(cold, &p); err != nil {
		t.Fatalf("body is not a Prediction: %v", err)
	}
	if p.TotalMs <= 0 || p.MinorGCs == 0 || p.Digest == "" {
		t.Errorf("implausible prediction: %+v", p)
	}
}

// Identical concurrent scenarios must coalesce onto one simulation.
func TestInFlightCoalescing(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	const n = 8
	var wg sync.WaitGroup
	outcomes := make([]Outcome, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, outcome, err := s.Run(context.Background(), tinyScenario())
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			outcomes[i], bodies[i] = outcome, body
		}(i)
	}
	wg.Wait()

	if got := s.runs.Load(); got != 1 {
		t.Errorf("%d identical concurrent scenarios ran %d simulations, want 1", n, got)
	}
	var miss, other int
	for i, o := range outcomes {
		if o == OutcomeMiss {
			miss++
		} else {
			other++
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs", i)
		}
	}
	if miss != 1 {
		t.Errorf("%d misses, want exactly 1 (rest coalesced/hit)", miss)
	}
	_ = other
}

// A job that finished between Run's cache probe and its admission must
// be answered from the cache, not simulated a second time: under load,
// identical concurrent requests used to run the scenario more than once.
func TestAdmitRechecksCache(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	s.cache.Add("digest", []byte("body"))
	j, out, err := s.admit("digest", jvm.RunSpec{})
	if err != nil || out != OutcomeHit {
		t.Fatalf("admit = (%q, %v), want a cache hit", out, err)
	}
	select {
	case <-j.done:
	default:
		t.Fatal("a cache hit's job is not done")
	}
	if string(j.body) != "body" {
		t.Errorf("body = %q, want the cached body", j.body)
	}
	s.mu.Lock()
	queued := len(s.inflight)
	s.mu.Unlock()
	if queued != 0 || s.hits.Load() != 1 {
		t.Errorf("%d jobs admitted, %d hits counted; want 0 and 1", queued, s.hits.Load())
	}
}

// The admission bound must shed load with ErrQueueFull (HTTP 429)
// instead of queueing without limit. Deterministic: wedge the in-flight
// table to capacity with jobs that never finish, then knock.
func TestQueueFullRejects(t *testing.T) {
	s := newTestService(t, Options{Workers: 1, QueueCap: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	wedge := func() {
		s.mu.Lock()
		s.inflight["wedge-a"] = &job{done: make(chan struct{})}
		s.inflight["wedge-b"] = &job{done: make(chan struct{})}
		s.mu.Unlock()
	}
	unwedge := func() {
		s.mu.Lock()
		delete(s.inflight, "wedge-a")
		delete(s.inflight, "wedge-b")
		s.mu.Unlock()
	}

	wedge()
	if _, _, err := s.Run(context.Background(), tinyScenario()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	resp := postJSON(t, srv.URL+"/run", tinyScenario())
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("full queue over HTTP: status %d, want 429", resp.StatusCode)
	}
	if got := s.rejected.Load(); got != 2 {
		t.Errorf("rejected counter = %d, want 2", got)
	}

	unwedge()
	body, outcome, err := s.Run(context.Background(), tinyScenario())
	if err != nil {
		t.Fatalf("after queue drained: %v", err)
	}
	if outcome != OutcomeMiss || len(body) == 0 {
		t.Errorf("after queue drained: outcome %q, %d body bytes", outcome, len(body))
	}
}

func TestRequestTimeout(t *testing.T) {
	s := newTestService(t, Options{Timeout: time.Nanosecond})
	_, _, err := s.Run(context.Background(), tinyScenario())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if s.timeouts.Load() == 0 {
		t.Error("timeout not counted")
	}
}

func TestBadScenarioIs400(t *testing.T) {
	s := newTestService(t, Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for name, scn := range map[string]any{
		"unknown benchmark": Scenario{Benchmark: "nope"},
		"no benchmark":      Scenario{},
		"bad opt level":     Scenario{Benchmark: "lusearch", Optimizations: "warp-speed"},
		"unknown field":     map[string]any{"benchmark": "lusearch", "warp": 9},
	} {
		resp := postJSON(t, srv.URL+"/run", scn)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// A sweep streams one NDJSON line per grid cell; rerunning the sweep
// serves every cell from the cache with byte-identical predictions.
func TestSweepNDJSONAndCacheReplay(t *testing.T) {
	s := newTestService(t, Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	req := SweepRequest{
		Base:          tinyScenario(),
		Mutators:      []int{2, 4},
		Optimizations: []string{"none", "all"},
	}
	collect := func() map[int]SweepCell {
		resp := postJSON(t, srv.URL+"/sweep", req)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("sweep status %d: %s", resp.StatusCode, b)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("content type %q", ct)
		}
		lines := map[int]SweepCell{}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			var cell SweepCell
			if err := json.Unmarshal(sc.Bytes(), &cell); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			if cell.Error != "" {
				t.Errorf("cell %d failed: %s", cell.Index, cell.Error)
			}
			lines[cell.Index] = cell
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return lines
	}

	first := collect()
	if len(first) != 4 {
		t.Fatalf("sweep returned %d cells, want 4", len(first))
	}
	for i := 0; i < 4; i++ {
		if _, ok := first[i]; !ok {
			t.Fatalf("cell %d missing from sweep", i)
		}
		if first[i].Of != 4 {
			t.Errorf("cell %d Of = %d, want 4", i, first[i].Of)
		}
	}
	// Distinct cells are distinct configurations.
	if bytes.Equal(first[0].Prediction, first[3].Prediction) {
		t.Error("corner cells returned identical predictions")
	}

	second := collect()
	for i := 0; i < 4; i++ {
		if second[i].Cache != string(OutcomeHit) {
			t.Errorf("replayed cell %d outcome = %q, want hit", i, second[i].Cache)
		}
		if !bytes.Equal(first[i].Prediction, second[i].Prediction) {
			t.Errorf("cell %d replay differs:\n%s\nvs\n%s", i, second[i].Prediction, first[i].Prediction)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestService(t, Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	postJSON(t, srv.URL+"/run", tinyScenario()).Body.Close()
	postJSON(t, srv.URL+"/run", tinyScenario()).Body.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var metrics []struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, m := range metrics {
		byName[m.Name] = m.Value
	}
	if byName["service.requests"] != 2 || byName["service.cache_hits"] != 1 || byName["service.runs"] != 1 {
		t.Errorf("counters wrong: %+v", byName)
	}
	for _, want := range []string{"service.latency_p50_ms", "service.latency_p99_ms", "service.queue_depth", "service.workers"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("metric %s missing", want)
		}
	}

	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", hresp.StatusCode)
	}
}

// The sweep grid derivation is row-major with the last axis fastest, and
// oversize grids are client errors.
func TestSweepCellDerivation(t *testing.T) {
	req := SweepRequest{
		Base:     Scenario{Benchmark: "lusearch"},
		Mutators: []int{1, 2},
		Seeds:    []int64{10, 20, 30},
	}
	cells := req.Cells()
	if len(cells) != 6 {
		t.Fatalf("expanded to %d cells, want 6", len(cells))
	}
	want := []struct {
		mut  int
		seed int64
	}{{1, 10}, {1, 20}, {1, 30}, {2, 10}, {2, 20}, {2, 30}}
	for i, w := range want {
		if cells[i].Mutators != w.mut || cells[i].Seed != w.seed {
			t.Errorf("cell %d = (mut=%d seed=%d), want (%d, %d)",
				i, cells[i].Mutators, cells[i].Seed, w.mut, w.seed)
		}
	}

	s := newTestService(t, Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	huge := SweepRequest{Base: Scenario{Benchmark: "lusearch"}}
	for i := 0; i < 5000; i++ {
		huge.Seeds = append(huge.Seeds, int64(i))
	}
	resp := postJSON(t, srv.URL+"/sweep", huge)
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "split") {
		t.Errorf("oversize sweep: status %d body %s", resp.StatusCode, b)
	}
}

// Seed 0 and seed 42 must be distinct cache keys end to end (the
// service-level face of the core seed-aliasing fix).
func TestServiceSeedZeroDistinct(t *testing.T) {
	s := newTestService(t, Options{})
	scn0 := tinyScenario()
	scn0.Seed = 0
	scn42 := tinyScenario()
	scn42.Seed = 42

	b0, o0, err := s.Run(context.Background(), scn0)
	if err != nil {
		t.Fatal(err)
	}
	b42, o42, err := s.Run(context.Background(), scn42)
	if err != nil {
		t.Fatal(err)
	}
	if o0 != OutcomeMiss || o42 != OutcomeMiss {
		t.Fatalf("outcomes %q/%q: seed 42 aliased onto seed 0's cache entry", o0, o42)
	}
	var p0, p42 Prediction
	if err := json.Unmarshal(b0, &p0); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b42, &p42); err != nil {
		t.Fatal(err)
	}
	if p0.Digest == p42.Digest {
		t.Fatalf("seed 0 and 42 share digest %s", p0.Digest)
	}
	if fmt.Sprintf("%.6f", p0.TotalMs) == fmt.Sprintf("%.6f", p42.TotalMs) &&
		p0.GCMs == p42.GCMs && p0.MinorGCs == p42.MinorGCs {
		t.Errorf("seed 0 and 42 produced identical predictions: %+v", p0)
	}
}

// TestPanickedSimulationReturnsScratch is the regression test for the
// scratch leak: a panicking simulation used to skip PutScratch (it was
// called inline after jvm.Run), stranding the worker's warm arena. The
// deferred return must leave the free-list whole.
func TestPanickedSimulationReturnsScratch(t *testing.T) {
	old := simulate
	t.Cleanup(func() { simulate = old })
	simulate = func(jvm.RunSpec) (*jvm.Result, error) { panic("injected simulation panic") }

	s := newTestService(t, Options{Workers: 1})
	_, _, err := s.Run(context.Background(), tinyScenario())
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want a simulation-panicked error", err)
	}
	if sc := s.pool.GetScratch(); sc == nil {
		t.Fatal("panicked simulation stranded its scratch: free-list is empty")
	}
}

// TestSweepClientDisconnectStopsAdmission asserts the /sweep cancellation
// contract: once the client hangs up mid-stream, the pool must stop
// receiving new cells. (Cells admitted before the disconnect may finish
// and cache — only further admission must stop.)
func TestSweepClientDisconnectStopsAdmission(t *testing.T) {
	s := newTestService(t, Options{Workers: 1, QueueCap: 8})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// 48 distinct cells (distinct seeds → distinct digests, no cache
	// help); with one worker the sweep takes long enough to disconnect
	// mid-stream.
	req := SweepRequest{Base: tinyScenario()}
	for seed := int64(1); seed <= 48; seed++ {
		req.Seeds = append(req.Seeds, seed)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, "POST", srv.URL+"/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read one streamed line, then hang up.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("reading first sweep line: %v", err)
	}
	cancel()

	// Wait for the already-admitted tail to drain: the service must go
	// idle AND the run counter must stop moving (a job leaves the
	// inflight map just before its counter bump, so idleness alone can
	// race one final increment). Once stable, no new cells reached the
	// pool — and far fewer than the full grid ran.
	deadline := time.Now().Add(10 * time.Second)
	runs := s.runs.Load()
	stableSince := time.Now()
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		s.mu.Lock()
		idle := len(s.inflight) == 0 && len(s.queue) == 0
		s.mu.Unlock()
		if cur := s.runs.Load(); cur != runs {
			runs = cur
			stableSince = time.Now()
			continue
		}
		if idle && time.Since(stableSince) >= 500*time.Millisecond {
			break
		}
	}
	if time.Now().After(deadline) {
		t.Fatalf("pool never went quiescent after disconnect: runs still moving at %d", runs)
	}
	if runs >= 48 {
		t.Fatalf("all %d cells simulated despite mid-stream disconnect", runs)
	}
}
