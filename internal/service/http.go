package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"repro/internal/experiments"
)

// Wire protocol:
//
//	POST /run     one Scenario  → one Prediction (JSON)
//	POST /sweep   a SweepRequest → NDJSON, one SweepCell line per grid
//	              cell, streamed as cells complete
//	GET  /metrics service counters as sorted JSON metrics
//	GET  /healthz liveness probe
//
// Every /run response carries X-Gcsimd-Cache (hit|miss|coalesced) and
// X-Gcsimd-Digest (the canonical config digest, i.e. the cache key).
// Cache-hit bodies are byte-identical to the cold response that populated
// them — the determinism contract callers can assert against.

const (
	// HeaderCache reports how the response was satisfied.
	HeaderCache = "X-Gcsimd-Cache"
	// HeaderDigest reports the canonical config digest of the scenario.
	HeaderDigest = "X-Gcsimd-Digest"
)

// maxSweepCells bounds one sweep grid; bigger grids are client errors
// (split the sweep) rather than a way to monopolize the server.
const maxSweepCells = 4096

// Handler returns the HTTP interface of the service.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("POST /sweep", s.handleSweep)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	return mux
}

// httpError writes a JSON error body with the status mapped from err.
func httpError(w http.ResponseWriter, err error) {
	var bad *BadScenarioError
	status := http.StatusInternalServerError
	switch {
	case errors.As(err, &bad):
		status = http.StatusBadRequest
	case errors.Is(err, ErrQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status = http.StatusGatewayTimeout
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func decodeStrict(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	var scn Scenario
	if err := decodeStrict(r, &scn); err != nil {
		httpError(w, &BadScenarioError{Err: fmt.Errorf("bad scenario: %w", err)})
		return
	}
	body, outcome, err := s.Run(r.Context(), scn)
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(HeaderCache, string(outcome))
	if cfg, cfgErr := scn.Config(); cfgErr == nil {
		w.Header().Set(HeaderDigest, cfg.Digest())
	}
	w.Write(body)
}

// SweepRequest describes a scenario grid: the base scenario plus the axes
// to sweep. Cells are derived in row-major order (the last axis varies
// fastest) via experiments.GridIndexes — the same deterministic
// submission-order numbering the figure harness gives its cells — so
// "cell 17 of this sweep" names the same configuration everywhere.
type SweepRequest struct {
	Base          Scenario `json:"base"`
	Mutators      []int    `json:"mutators,omitempty"`
	GCThreads     []int    `json:"gc_threads,omitempty"`
	HeapMB        []int    `json:"heap_mb,omitempty"`
	Optimizations []string `json:"optimizations,omitempty"`
	Seeds         []int64  `json:"seeds,omitempty"`
}

// Cells expands the grid into scenarios in deterministic cell order.
func (sr SweepRequest) Cells() []Scenario {
	dims := []int{
		len(sr.Mutators), len(sr.GCThreads), len(sr.HeapMB),
		len(sr.Optimizations), len(sr.Seeds),
	}
	grid := experiments.GridIndexes(dims)
	cells := make([]Scenario, len(grid))
	for c, idx := range grid {
		scn := sr.Base
		if len(sr.Mutators) > 0 {
			scn.Mutators = sr.Mutators[idx[0]]
		}
		if len(sr.GCThreads) > 0 {
			scn.GCThreads = sr.GCThreads[idx[1]]
		}
		if len(sr.HeapMB) > 0 {
			scn.HeapMB = sr.HeapMB[idx[2]]
		}
		if len(sr.Optimizations) > 0 {
			scn.Optimizations = sr.Optimizations[idx[3]]
		}
		if len(sr.Seeds) > 0 {
			scn.Seed = sr.Seeds[idx[4]]
		}
		cells[c] = scn
	}
	return cells
}

// SweepCell is one NDJSON progress line of a sweep response. Lines are
// emitted as cells complete (so their order varies with scheduling), but
// each line's content is deterministic for its Index.
type SweepCell struct {
	Index int    `json:"index"`
	Of    int    `json:"of"`
	Cache string `json:"cache,omitempty"`
	// Prediction is the raw cached response body for the cell.
	Prediction json.RawMessage `json:"prediction,omitempty"`
	Error      string          `json:"error,omitempty"`
}

func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeStrict(r, &req); err != nil {
		httpError(w, &BadScenarioError{Err: fmt.Errorf("bad sweep: %w", err)})
		return
	}
	cells := req.Cells()
	if len(cells) > maxSweepCells {
		httpError(w, &BadScenarioError{Err: fmt.Errorf(
			"sweep expands to %d cells, max %d — split it", len(cells), maxSweepCells)})
		return
	}
	s.sweeps.Add(1)
	w.Header().Set("Content-Type", "application/x-ndjson")

	flusher, _ := w.(http.Flusher)
	var out sync.Mutex
	enc := json.NewEncoder(w)
	emit := func(line SweepCell) {
		out.Lock()
		defer out.Unlock()
		enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}

	// Fan the cells out through Run — each benefits from the cache and
	// coalescing — but bound the sweep's own concurrency below the
	// admission cap so one grid cannot 429 itself (or starve /run).
	conc := s.pool.Workers()
	if conc > s.opts.QueueCap {
		conc = s.opts.QueueCap
	}
	if conc < 1 {
		conc = 1
	}
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	ctx := r.Context()
	for i, scn := range cells {
		if ctx.Err() != nil {
			// Client disconnected: the remaining cells would simulate
			// into a stream nobody reads. Cells already admitted finish
			// and populate the cache (the documented /run timeout
			// contract); the rest are never admitted. Run also refuses
			// admission on a canceled context, so the guard holds even
			// for a goroutine already past this check.
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, scn Scenario) {
			defer wg.Done()
			defer func() { <-sem }()
			body, outcome, err := s.Run(r.Context(), scn)
			line := SweepCell{Index: i, Of: len(cells)}
			if err != nil {
				line.Error = err.Error()
			} else {
				line.Cache = string(outcome)
				line.Prediction = body
			}
			emit(line)
		}(i, scn)
	}
	wg.Wait()
}

// handleMetrics serves the metrics snapshot. JSON is the default; a
// client whose Accept header asks for text/plain (the convention of
// Prometheus scrapers) gets the text exposition format with latency
// summaries instead.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if accept := r.Header.Get("Accept"); strings.Contains(accept, "text/plain") {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Metrics())
}
