package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/jvm"
)

// gatedSim replaces simulate with one that announces each simulation as it
// starts and then holds it until the test lets it proceed, so a test can
// see how many simulations are in flight at once.
type gatedSim struct {
	started chan struct{} // one send per simulation, as it starts
	proceed chan struct{} // one receive per simulation; closed at cleanup
	open    func()        // closes proceed once
}

// newGatedService starts a service (and an HTTP server over it) whose
// simulations run through a gatedSim. The first panicFirst simulations
// panic once released instead of simulating. Cleanup opens the gate before
// it closes the server and the service, so a failing test cannot leave a
// worker blocked.
func newGatedService(t *testing.T, opts Options, panicFirst int32) (*Service, *gatedSim, string) {
	t.Helper()
	g := &gatedSim{started: make(chan struct{}, 64), proceed: make(chan struct{})}
	var once sync.Once
	g.open = func() { once.Do(func() { close(g.proceed) }) }
	var n atomic.Int32
	old := simulate
	t.Cleanup(func() { simulate = old })
	simulate = func(spec jvm.RunSpec, cfgs ...jvm.Config) (*check.Observed, error) {
		k := n.Add(1)
		g.started <- struct{}{}
		<-g.proceed
		if k <= panicFirst {
			panic(fmt.Sprintf("injected panic in simulation %d", k))
		}
		return old(spec, cfgs...)
	}
	s := newTestService(t, opts)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(g.open)
	return s, g, srv.URL
}

// awaitStarts waits until n more simulations have started.
func (g *gatedSim) awaitStarts(t *testing.T, n int) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-g.started:
		case <-timeout:
			t.Fatalf("only %d of %d simulations started within 10 s", i, n)
		}
	}
}

// release lets n started simulations proceed.
func (g *gatedSim) release(n int) {
	for i := 0; i < n; i++ {
		g.proceed <- struct{}{}
	}
}

type runResult struct {
	body []byte
	out  Outcome
	err  error
}

// runAsync submits scn through Run on its own goroutine.
func runAsync(s *Service, scn Scenario) <-chan runResult {
	ch := make(chan runResult, 1)
	go func() {
		body, out, err := s.Run(context.Background(), scn)
		ch <- runResult{body, out, err}
	}()
	return ch
}

func seeded(seed int64) Scenario {
	scn := tinyScenario()
	scn.Seed = seed
	return scn
}

func wantCold(t *testing.T, name string, r runResult) {
	t.Helper()
	if r.err != nil || r.out != OutcomeMiss || len(r.body) == 0 {
		t.Errorf("%s: outcome %q, %d body bytes, err %v; want a cold run", name, r.out, len(r.body), r.err)
	}
}

// A cold scenario must start while another is still simulating: with two
// workers, job B may not wait for job A's batch to finish.
func TestColdRunsOverlap(t *testing.T) {
	s, g, _ := newGatedService(t, Options{Workers: 2}, 0)
	a := runAsync(s, seeded(1))
	g.awaitStarts(t, 1) // A is simulating and held
	b := runAsync(s, seeded(2))
	g.awaitStarts(t, 1) // B started while A is still held
	g.release(2)
	wantCold(t, "A", <-a)
	wantCold(t, "B", <-b)
}

// readSweep posts a sweep and collects its NDJSON lines by cell index.
func readSweep(url string, req SweepRequest) (map[int]SweepCell, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("sweep status %d", resp.StatusCode)
	}
	lines := map[int]SweepCell{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var cell SweepCell
		if err := json.Unmarshal(sc.Bytes(), &cell); err != nil {
			return nil, fmt.Errorf("bad NDJSON line %q: %w", sc.Text(), err)
		}
		lines[cell.Index] = cell
	}
	return lines, sc.Err()
}

// /sweep goes through Run, so with two workers two of its cells are in
// flight at once.
func TestSweepCellsOverlap(t *testing.T) {
	_, g, url := newGatedService(t, Options{Workers: 2}, 0)
	type sweepResult struct {
		lines map[int]SweepCell
		err   error
	}
	done := make(chan sweepResult, 1)
	go func() {
		lines, err := readSweep(url, SweepRequest{Base: tinyScenario(), Seeds: []int64{1, 2}})
		done <- sweepResult{lines, err}
	}()
	g.awaitStarts(t, 2) // both cells simulating at once
	g.release(2)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.lines) != 2 {
		t.Fatalf("sweep returned %d cells, want 2", len(r.lines))
	}
	for i, cell := range r.lines {
		if cell.Error != "" || cell.Cache != string(OutcomeMiss) {
			t.Errorf("cell %d: cache %q, error %q; want a cold run", i, cell.Cache, cell.Error)
		}
	}
}

// Close must let every admitted job finish — queued ones included — and
// return once the workers have exited; later requests get ErrClosed.
func TestCloseDrainsPullWorkers(t *testing.T) {
	s, g, _ := newGatedService(t, Options{Workers: 2, QueueCap: 8}, 0)
	jobs := make([]*job, 6)
	for i := range jobs {
		cfg, err := seeded(int64(i + 1)).Config()
		if err != nil {
			t.Fatal(err)
		}
		spec, err := core.BuildRunSpec(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if jobs[i], _, err = s.admit(cfg.Digest(), spec); err != nil {
			t.Fatalf("admit job %d: %v", i, err)
		}
	}
	g.awaitStarts(t, 2) // both workers held; four jobs wait in the queue
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	g.open()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return")
	}
	for i, j := range jobs {
		select {
		case <-j.done:
		default:
			t.Fatalf("job %d still pending after Close returned", i)
		}
		if j.err != nil || len(j.body) == 0 {
			t.Errorf("job %d: err %v, %d body bytes", i, j.err, len(j.body))
		}
	}
	if _, _, err := s.Run(context.Background(), seeded(99)); !errors.Is(err, ErrClosed) {
		t.Errorf("Run after Close: err %v, want ErrClosed", err)
	}
}

// A panicking simulation fails its own request only: afterwards both
// workers still take jobs, two at a time.
func TestPanicKeepsBothWorkers(t *testing.T) {
	s, g, _ := newGatedService(t, Options{Workers: 2}, 2)
	a, b := runAsync(s, seeded(1)), runAsync(s, seeded(2))
	g.awaitStarts(t, 2) // one panicking job on each worker
	g.release(2)
	for _, r := range []runResult{<-a, <-b} {
		if r.err == nil || !strings.Contains(r.err.Error(), "panicked") {
			t.Fatalf("err = %v, want a simulation-panicked error", r.err)
		}
	}
	c, d := runAsync(s, seeded(3)), runAsync(s, seeded(4))
	g.awaitStarts(t, 2) // both workers survived and run at once
	g.release(2)
	wantCold(t, "C", <-c)
	wantCold(t, "D", <-d)
}

// service.queue_depth counts each admitted, unfinished job once: with both
// workers held and six jobs admitted (four of them queued) it reads 6,
// the figure Options.QueueCap bounds. Queued jobs sit both in the queue
// and in the in-flight table, and summing the two read 10.
func TestQueueDepthCountsAdmittedJobsOnce(t *testing.T) {
	s, g, _ := newGatedService(t, Options{Workers: 2, QueueCap: 8}, 0)
	for i := 0; i < 6; i++ {
		cfg, err := seeded(int64(i + 1)).Config()
		if err != nil {
			t.Fatal(err)
		}
		spec, err := core.BuildRunSpec(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.admit(cfg.Digest(), spec); err != nil {
			t.Fatalf("admit job %d: %v", i, err)
		}
	}
	g.awaitStarts(t, 2) // both workers held; four jobs wait in the queue
	depth := -1.0
	for _, m := range s.Metrics() {
		if m.Name == "service.queue_depth" {
			depth = m.Value
		}
	}
	if depth != 6 {
		t.Errorf("service.queue_depth = %v, want 6 (2 simulating + 4 queued)", depth)
	}
}

// A /sweep cell whose scenario is already simulating for /run joins that
// simulation instead of starting a second one: the endpoints share one
// in-flight table.
func TestSweepCellJoinsInFlightRun(t *testing.T) {
	s, g, url := newGatedService(t, Options{Workers: 2}, 0)
	a := runAsync(s, seeded(1))
	g.awaitStarts(t, 1) // the /run simulation is held
	type sweepResult struct {
		lines map[int]SweepCell
		err   error
	}
	done := make(chan sweepResult, 1)
	go func() {
		lines, err := readSweep(url, SweepRequest{Base: tinyScenario(), Seeds: []int64{1}})
		done <- sweepResult{lines, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.coalesced.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the sweep cell did not join the in-flight run within 10 s")
		}
		time.Sleep(time.Millisecond)
	}
	g.release(1)
	run := <-a
	wantCold(t, "run", run)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	cell, ok := r.lines[0]
	if len(r.lines) != 1 || !ok {
		t.Fatalf("sweep returned cells %v, want just cell 0", r.lines)
	}
	if cell.Error != "" || cell.Cache != string(OutcomeCoalesced) || !bytes.Equal(cell.Prediction, run.body) {
		t.Errorf("sweep cell: cache %q, error %q, body equal %v; want the coalesced /run body",
			cell.Cache, cell.Error, bytes.Equal(cell.Prediction, run.body))
	}
	if runs, coalesced := s.runs.Load(), s.coalesced.Load(); runs != 1 || coalesced != 1 {
		t.Errorf("service.runs %d, service.coalesced %d; want 1 and 1", runs, coalesced)
	}
}
