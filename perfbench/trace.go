package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	Name   string        `json:"name"`
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spans records the benchmark's own spans around its calls into the
// layers: the pool task, jvm.Run, check.RunCellOpts and each HTTP POST. A
// nil *spans records nothing, which is how untraced passes run.
type spans struct {
	mu   sync.Mutex
	t0   time.Time
	recs []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span under parent (0 = none) and returns its id.
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return 0
	}
	now := time.Since(s.t0)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, span{Name: name, ID: len(s.recs) + 1, Parent: parent, Start: now})
	return len(s.recs)
}

func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	now := time.Since(s.t0)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs[id-1].End = now
}

// spanTotal is one span name's count, total and self time; self time is
// the spans' durations minus what their child spans cover.
type spanTotal struct {
	n           int
	total, self time.Duration
}

func (s *spans) totals() map[string]*spanTotal {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*spanTotal)
	child := make([]time.Duration, len(s.recs)+1)
	for _, r := range s.recs {
		if r.Parent > 0 {
			child[r.Parent] += r.End - r.Start
		}
	}
	for _, r := range s.recs {
		t := out[r.Name]
		if t == nil {
			t = &spanTotal{}
			out[r.Name] = t
		}
		t.n++
		t.total += r.End - r.Start
		t.self += r.End - r.Start - child[r.ID]
	}
	return out
}

func (s *spans) write(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := json.Marshal(s.recs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// profile is a running CPU profile plus the Go runtime's counters at its
// start.
type profile struct {
	buf    bytes.Buffer
	before runtimeCounters
}

func startProfile() (*profile, error) {
	p := &profile{before: readRuntime()}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns its raw bytes and the runtime counter
// deltas over its window.
func (p *profile) stop() ([]byte, runtimeCounters) {
	pprof.StopCPUProfile()
	after := readRuntime()
	return p.buf.Bytes(), runtimeCounters{
		gcCPU:    after.gcCPU - p.before.gcCPU,
		totalCPU: after.totalCPU - p.before.totalCPU,
		allocs:   after.allocs - p.before.allocs,
	}
}

// runtimeCounters are the Go runtime's cumulative GC CPU, total CPU and
// heap allocation counters.
type runtimeCounters struct {
	gcCPU, totalCPU float64 // seconds
	allocs          float64 // bytes
}

func (c *runtimeCounters) add(d runtimeCounters) {
	c.gcCPU += d.gcCPU
	c.totalCPU += d.totalCPU
	c.allocs += d.allocs
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeCounters{gcCPU: val(0), totalCPU: val(1), allocs: val(2)}
}

// shareLayers are the repository packages that get a self share of their
// own; every other repository package is charged to "other".
var shareLayers = []string{
	"simkit", "cfs", "jmutex", "taskq", "heap", "objgraph", "pscavenge",
	"jvm", "evtrace", "postmortem", "check", "service",
}

const repoPrefix = "repro/internal/"

// layerOf names the package of a repository frame, or "" for a frame
// outside the repository's internal packages.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range shareLayers {
		if l == rest {
			return l
		}
	}
	return "other"
}

// chargeOf picks the bucket a sample's self time is charged to: the
// innermost frame of the repository or of the benchmark itself ("bench"),
// so a leaf in the Go runtime or the standard library (coroutine switches,
// iter.Pull, math/rand, encoding/json) lands in the layer that called it.
// Other stacks belong to the net/http server serving the service, or else
// to the Go runtime (its garbage collector, scheduler).
func chargeOf(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "net/http.(*conn).serve") {
			return "service"
		}
	}
	return "go.runtime"
}

// cumulative functions whose inclusive time gets its own share.
var cumulative = map[string][]string{
	"heap.alloc_share":   {"repro/internal/heap.(*Heap).Alloc"},
	"heap.collect_share": {"repro/internal/heap.(*Heap).CopyYoung", "repro/internal/heap.(*Heap).FinishMinorGC", "repro/internal/heap.(*Heap).FinishMajorGC"},
}

// shares returns each bucket's self share of the profile's CPU time, plus
// the inclusive shares named in cumulative.
func shares(samples []sample) map[string]float64 {
	out := make(map[string]float64)
	var total float64
	for _, s := range samples {
		ns := float64(s.ns)
		total += ns
		out[chargeOf(s.stack)+".self_share"] += ns
		for name, fns := range cumulative {
			if onStack(s.stack, fns) {
				out[name] += ns
			}
		}
	}
	for k := range out {
		out[k] = ratio(out[k], total)
	}
	return out
}

func onStack(stack, fns []string) bool {
	for _, f := range stack {
		for _, want := range fns {
			if f == want {
				return true
			}
		}
	}
	return false
}

// selfShareSum adds up every bucket's self share (1 by construction; the
// benchmark checks it as a guard on the attribution).
func selfShareSum(sh map[string]float64) float64 {
	var sum float64
	for _, k := range sortedKeys(sh) {
		if strings.HasSuffix(k, ".self_share") {
			sum += sh[k]
		}
	}
	return sum
}
