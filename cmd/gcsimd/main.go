// Command gcsimd serves cached what-if GC tuning queries over HTTP.
//
// Serve mode (the default) answers POST /run and POST /sweep with
// GC/pause/throughput predictions, caching responses by canonical config
// digest so repeated and concurrent identical scenarios cost one
// simulation:
//
//	gcsimd -addr 127.0.0.1:8379
//	curl -s localhost:8379/run -d '{"benchmark":"lusearch","mutators":8,"seed":1}'
//
// Every /sweep cell goes through the same path as a /run request: the
// cache, coalescing onto an identical in-flight scenario, the -queue
// admission bound and the -timeout, served by the -workers in-process
// pull workers.
//
// Load-generator mode drives an already running server through a cold
// phase (distinct scenarios, every one a simulation) and a cached phase
// (the same scenarios again) and reports the RPS of each:
//
//	gcsimd -loadgen http://127.0.0.1:8379 -n 200 -c 8
//
// Self-test mode starts an in-process server on an ephemeral port and
// runs the smoke contract against it: second identical POST is a cache
// hit with a byte-identical body, sweeps stream every cell, and the
// cached loadgen path is at least 10x faster than the cold path. It
// exits nonzero on any violation (wired into `make serve-smoke`).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8379", "listen address for serve mode")
		workers   = flag.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
		cacheSize = flag.Int("cache", 1024, "response cache capacity (entries)")
		queueCap  = flag.Int("queue", 64, "admission bound on in-flight scenarios (429 beyond)")
		timeout   = flag.Duration("timeout", 60*time.Second, "per-request simulation timeout")

		loadgen = flag.String("loadgen", "", "base URL: run as a load generator instead of serving")
		n       = flag.Int("n", 200, "loadgen/selftest: scenarios per phase")
		c       = flag.Int("c", 8, "loadgen/selftest: concurrent clients")
		items   = flag.Int("items", 1500, "loadgen/selftest: work items per scenario")

		selftest = flag.Bool("selftest", false, "start an in-process server and verify the cache contract")
	)
	flag.Parse()

	opts := service.Options{
		Workers:   *workers,
		CacheSize: *cacheSize,
		QueueCap:  *queueCap,
		Timeout:   *timeout,
	}
	switch {
	case *selftest:
		if err := runSelftest(opts, *n, *c, *items); err != nil {
			fmt.Fprintln(os.Stderr, "selftest FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("selftest PASS")
	case *loadgen != "":
		cold, warm, err := runLoadgen(*loadgen, *n, *c, *items)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		fmt.Printf("cold  %8.1f req/s\ncached %7.1f req/s (%.1fx)\n", cold, warm, warm/cold)
	default:
		if err := serve(*addr, opts); err != nil {
			log.Fatal(err)
		}
	}
}

func serve(addr string, opts service.Options) error {
	s := service.New(opts)
	defer s.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shctx)
	}()
	log.Printf("gcsimd listening on http://%s (workers=%d cache=%d queue=%d)",
		ln.Addr(), opts.Workers, opts.CacheSize, opts.QueueCap)
	if err := srv.Serve(ln); err != http.ErrServerClosed {
		return err
	}
	return nil
}

// scenarioBody builds the i-th loadgen scenario: same shape, distinct
// seed, so every cold-phase request is a distinct simulation while the
// cached phase replays the identical set.
func scenarioBody(i, items int) []byte {
	b, _ := json.Marshal(service.Scenario{
		Benchmark: "lusearch", Items: items, Mutators: 4, GCThreads: 4, Seed: int64(i + 1),
	})
	return b
}

// firePhase POSTs every body with conc concurrent clients and returns the
// wall time plus a tally of X-Gcsimd-Cache outcomes.
func firePhase(base string, bodies [][]byte, conc int) (time.Duration, map[string]int, error) {
	if conc < 1 {
		conc = 1
	}
	client := &http.Client{Timeout: 2 * time.Minute}
	var (
		mu       sync.Mutex
		outcomes = map[string]int{}
		firstErr error
	)
	idx := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				resp, err := client.Post(base+"/run", "application/json", bytes.NewReader(bodies[i]))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("scenario %d: HTTP %d", i, resp.StatusCode)
					}
				}
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
				} else {
					outcomes[resp.Header.Get(service.HeaderCache)]++
				}
				mu.Unlock()
			}
		}()
	}
	for i := range bodies {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return time.Since(start), outcomes, firstErr
}

// runLoadgen drives base through a cold phase (distinct scenarios) and a
// cached phase (the same scenarios again), returning the RPS of each.
func runLoadgen(base string, n, conc, items int) (cold, warm float64, err error) {
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = scenarioBody(i, items)
	}
	coldDur, coldOut, err := firePhase(base, bodies, conc)
	if err != nil {
		return 0, 0, fmt.Errorf("cold phase: %w", err)
	}
	warmDur, warmOut, err := firePhase(base, bodies, conc)
	if err != nil {
		return 0, 0, fmt.Errorf("cached phase: %w", err)
	}
	log.Printf("loadgen: cold outcomes %v in %v, cached outcomes %v in %v",
		coldOut, coldDur.Round(time.Millisecond), warmOut, warmDur.Round(time.Microsecond))
	return float64(n) / coldDur.Seconds(), float64(n) / warmDur.Seconds(), nil
}

// runSelftest boots an in-process server and checks the smoke contract.
func runSelftest(opts service.Options, n, conc, items int) error {
	s := service.New(opts)
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	log.Printf("selftest server on %s", base)

	// 1. Liveness.
	if err := expectOK(base + "/healthz"); err != nil {
		return err
	}

	// 2. Second identical POST is a cache hit with a byte-identical body.
	scn := scenarioBody(0, items)
	st1, hdr1, body1, err := post(base+"/run", scn)
	if err != nil {
		return err
	}
	st2, hdr2, body2, err := post(base+"/run", scn)
	if err != nil {
		return err
	}
	if st1 != 200 || st2 != 200 {
		return fmt.Errorf("run statuses %d/%d", st1, st2)
	}
	if o := hdr1.Get(service.HeaderCache); o != string(service.OutcomeMiss) {
		return fmt.Errorf("first POST outcome %q, want miss", o)
	}
	if o := hdr2.Get(service.HeaderCache); o != string(service.OutcomeHit) {
		return fmt.Errorf("second POST outcome %q, want hit", o)
	}
	if !bytes.Equal(body1, body2) {
		return fmt.Errorf("cache hit body differs from cold body:\n%s\nvs\n%s", body2, body1)
	}
	if hdr1.Get(service.HeaderDigest) == "" {
		return fmt.Errorf("missing %s header", service.HeaderDigest)
	}

	// ... and both bodies carry the pause-postmortem blame summary (the
	// byte-identity check above already proved miss and hit agree on it).
	var pred struct {
		Blame *service.BlameSummary `json:"blame"`
	}
	if err := json.Unmarshal(body1, &pred); err != nil {
		return fmt.Errorf("run body not JSON: %w", err)
	}
	if pred.Blame == nil {
		return fmt.Errorf("run response carries no blame summary: %s", body1)
	}
	if pred.Blame.Pathology == "" || len(pred.Blame.Buckets) == 0 {
		return fmt.Errorf("blame summary incomplete: %+v", pred.Blame)
	}

	// ... and the counters agree: one simulation ran, one hit served.
	var metrics []struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
	}
	st, _, mbody, err := get(base + "/metrics")
	if err != nil || st != 200 {
		return fmt.Errorf("metrics: status %d err %v", st, err)
	}
	if err := json.Unmarshal(mbody, &metrics); err != nil {
		return fmt.Errorf("metrics not JSON: %w", err)
	}
	counters := map[string]float64{}
	for _, m := range metrics {
		counters[m.Name] = m.Value
	}
	if counters["service.runs"] != 1 || counters["service.cache_hits"] != 1 {
		return fmt.Errorf("after miss+hit: runs=%v cache_hits=%v, want 1/1",
			counters["service.runs"], counters["service.cache_hits"])
	}
	for _, q := range []string{".p50", ".p95", ".p99"} {
		if _, ok := counters["service.latency_cold_ms"+q]; !ok {
			return fmt.Errorf("metrics missing service.latency_cold_ms%s (have %d entries)", q, len(metrics))
		}
		if _, ok := counters["service.latency_hit_ms"+q]; !ok {
			return fmt.Errorf("metrics missing service.latency_hit_ms%s", q)
		}
	}

	// ... and the same snapshot is available as Prometheus text with
	// latency summary quantiles when the client asks for text/plain.
	st, ctype, pbody, err := getText(base + "/metrics")
	if err != nil || st != 200 {
		return fmt.Errorf("prometheus metrics: status %d err %v", st, err)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		return fmt.Errorf("prometheus metrics content-type %q, want text/plain", ctype)
	}
	for _, want := range []string{
		"# TYPE service_runs counter",
		`service_latency_cold_ms{quantile="0.99"}`,
		"service_latency_cold_ms_count",
	} {
		if !bytes.Contains(pbody, []byte(want)) {
			return fmt.Errorf("prometheus exposition missing %q:\n%s", want, pbody)
		}
	}

	// 3. A sweep streams one line per cell and replays entirely from cache.
	sweep, _ := json.Marshal(service.SweepRequest{
		Base:     service.Scenario{Benchmark: "lusearch", Items: items, Seed: 1},
		Mutators: []int{2, 4}, GCThreads: []int{2, 4},
	})
	passes := []struct {
		pass    string
		wantHit bool
	}{{"cold", false}, {"replay", true}}
	for _, p := range passes {
		pass, wantHit := p.pass, p.wantHit
		st, _, body, err := post(base+"/sweep", sweep)
		if err != nil {
			return fmt.Errorf("sweep %s: %w", pass, err)
		}
		if st != 200 {
			return fmt.Errorf("sweep %s: HTTP %d", pass, st)
		}
		lines := bytes.Count(bytes.TrimSpace(body), []byte("\n")) + 1
		if lines != 4 {
			return fmt.Errorf("sweep %s: %d NDJSON lines, want 4", pass, lines)
		}
		if wantHit && bytes.Count(body, []byte(`"cache":"hit"`)) != 4 {
			return fmt.Errorf("sweep replay not fully cached: %s", body)
		}
		if got := bytes.Count(body, []byte(`"blame"`)); got != 4 {
			return fmt.Errorf("sweep %s: %d of 4 cells carry a blame summary", pass, got)
		}
	}

	// 4. Cached loadgen path must be at least 10x faster than cold.
	cold, warm, err := runLoadgen(base, n, conc, items)
	if err != nil {
		return err
	}
	ratio := warm / cold
	log.Printf("selftest loadgen: cold %.1f req/s, cached %.1f req/s (%.1fx)", cold, warm, ratio)
	if ratio < 10 {
		return fmt.Errorf("cached path only %.1fx cold RPS, want >= 10x", ratio)
	}
	return nil
}

func post(url string, body []byte) (int, http.Header, []byte, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

func get(url string) (int, http.Header, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

// getText GETs url asking for text/plain (the Prometheus scrape shape)
// and returns the status, Content-Type, and body.
func getText(url string) (int, string, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Content-Type"), b, err
}

func expectOK(url string) error {
	st, _, _, err := get(url)
	if err != nil {
		return err
	}
	if st != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, st)
	}
	return nil
}
