package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/postmortem"
	"repro/internal/runner"
)

// renderAll renders the given experiments under opt into one string.
func renderAll(t *testing.T, opt Options, ids []string) string {
	t.Helper()
	var b strings.Builder
	for _, id := range ids {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		e.Run(opt).Render(&b)
	}
	return b.String()
}

// quickParallelIDs covers every fan-out shape in the suite: interleaved
// cell batches (fig9), multi-table batches (fig10), nested sweeps (fig12),
// mixed single- and multi-JVM cells (fig15), custom-topology RunSpecs
// (fig16), and a policy ablation (abl2).
var quickParallelIDs = []string{"fig9", "fig10", "fig12", "fig15", "fig16", "abl2"}

// TestParallelRenderIdentical asserts the tentpole invariant: the worker
// pool may execute cells in any order on any number of goroutines, yet the
// rendered tables are byte-identical to a serial run, because every cell
// derives its own seed.
func TestParallelRenderIdentical(t *testing.T) {
	opt := Options{Seed: 7, Scale: 20}
	opt.Jobs = 1
	serial := renderAll(t, opt, quickParallelIDs)
	opt.Jobs = 4
	parallel := renderAll(t, opt, quickParallelIDs)
	if serial != parallel {
		t.Fatalf("parallel render differs from serial:\n%s", firstDiff(serial, parallel))
	}
	opt.Jobs = 16
	if wide := renderAll(t, opt, quickParallelIDs); wide != serial {
		t.Fatalf("jobs=16 render differs from serial:\n%s", firstDiff(serial, wide))
	}
}

// TestParallelRenderIdenticalFullScale4 is the acceptance check:
// `experiments -run all -scale 4` with any -jobs value matches the
// committed golden fixture byte for byte. The fixture
// (testdata/golden_scale4_seed42.txt) was generated before the kernel's
// hot paths were rewritten (event pooling, 4-ary heap, single-channel
// coroutines), so it pins the whole-simulation behaviour across those
// optimizations, not just serial-vs-parallel agreement. The test reruns
// the whole evaluation several times, so it is skipped under -short and
// under the race detector (TestParallelRenderIdentical covers the
// ordering property quickly).
func TestParallelRenderIdenticalFullScale4(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite determinism check skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("full-suite determinism check skipped under -race (quick variant still runs)")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_scale4_seed42.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	opt := Options{Seed: 42, Scale: 4}
	for _, jobs := range []int{1, 4, 16} {
		opt.Jobs = jobs
		got := renderAll(t, opt, ids)
		if got != string(golden) {
			t.Fatalf("scale-4 render with jobs=%d differs from golden fixture:\n%s",
				jobs, firstDiff(string(golden), got))
		}
	}
}

// TestGoldenScale4TracingEnabled asserts the observability contract: the
// full scale-4 evaluation with per-cell event tracing enabled still
// renders byte-identically to the committed golden fixture — tracing only
// records, it never perturbs scheduling, RNG draws, or event order. It
// also spot-checks that the per-cell Perfetto exports were written and
// parse. Skipped under -short and -race like the plain golden check.
func TestGoldenScale4TracingEnabled(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite tracing determinism check skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("full-suite tracing determinism check skipped under -race")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_scale4_seed42.txt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var b strings.Builder
	for _, e := range All() {
		opt := Options{Seed: 42, Scale: 4, Jobs: 4, TraceDir: filepath.Join(dir, e.ID)}
		if err := os.MkdirAll(opt.TraceDir, 0o755); err != nil {
			t.Fatal(err)
		}
		e.Run(opt).Render(&b)
	}
	if b.String() != string(golden) {
		t.Fatalf("scale-4 render with tracing enabled differs from golden fixture:\n%s",
			firstDiff(string(golden), b.String()))
	}
	// Every experiment must have produced at least one cell trace, and the
	// exports must be valid Perfetto trace-event JSON.
	for _, e := range All() {
		cells, err := filepath.Glob(filepath.Join(dir, e.ID, "cell-*.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) == 0 {
			t.Errorf("%s wrote no cell traces", e.ID)
			continue
		}
		data, err := os.ReadFile(cells[0])
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Errorf("%s: %s is not valid trace JSON: %v", e.ID, cells[0], err)
		} else if len(doc.TraceEvents) == 0 {
			t.Errorf("%s: %s holds no events", e.ID, cells[0])
		}
	}
}

// TestGoldenScale4CheckEnabled asserts the correctness-harness contract:
// the full scale-4 evaluation with the cross-layer invariant checker
// attached to every cell renders byte-identically to the committed golden
// fixture — checking only observes, it never perturbs a run — the checker
// stays silent across the entire evaluation, and it checked every cell
// the evaluation numbered. Skipped under -short and -race like the other
// golden checks.
func TestGoldenScale4CheckEnabled(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite invariant check skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("full-suite invariant check skipped under -race")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_scale4_seed42.txt"))
	if err != nil {
		t.Fatal(err)
	}
	cc := &CheckCollector{}
	cells := new(int64) // one cell numbering across the evaluation
	var b strings.Builder
	for _, e := range All() {
		e.Run(Options{Seed: 42, Scale: 4, Jobs: 4, Check: cc, cellSeq: cells}).Render(&b)
	}
	if cc.cells != int(*cells) {
		t.Errorf("checker covered %d cells of the %d the evaluation ran", cc.cells, *cells)
	}
	if cc.Total() > 0 {
		t.Errorf("invariant violations on the scale-4 evaluation:\n%s", cc.Report())
	}
	if cc.events == 0 {
		t.Error("checker saw no events; per-cell attachment broken")
	}
	if b.String() != string(golden) {
		t.Fatalf("scale-4 render with checking enabled differs from golden fixture:\n%s",
			firstDiff(string(golden), b.String()))
	}
}

// TestFig15ObservesCoRunCells: all six of Fig15's cells — two single-JVM
// runs with busy loops and the four co-running pairs behind §5.7 — run
// under the invariant checker and write a pause postmortem, numbered in
// submission order.
func TestFig15ObservesCoRunCells(t *testing.T) {
	dir := t.TempDir()
	cc := &CheckCollector{}
	Fig15(Options{Seed: 42, Scale: 4, Jobs: 2, Check: cc, PostmortemDir: dir})
	if cc.cells != 6 || cc.Total() != 0 {
		t.Errorf("fig15: %s want 6 clean cells", cc.Report())
	}
	for i := 0; i < 6; i++ {
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("postmortem-%03d.json", i)))
		if err != nil {
			t.Error(err)
			continue
		}
		ex, err := postmortem.ParseJSON(data)
		if err != nil {
			t.Errorf("postmortem-%03d.json: %v", i, err)
		} else if ex.Collections == 0 || len(ex.Verify()) != 0 {
			t.Errorf("postmortem-%03d.json: %d collections, sum violations %v", i, ex.Collections, ex.Verify())
		}
	}
}

// TestGoldenScale4PostmortemEnabled asserts the postmortem contract: the
// full scale-4 evaluation with pause-postmortem attribution attached to
// every cell renders byte-identically to the committed golden fixture —
// attribution only subscribes to the event bus, it never perturbs a run.
// It also spot-checks the per-cell exports: every experiment wrote at
// least one postmortem, and each sampled file parses under the schema and
// passes the bucket-sum invariant. Skipped under -short and -race like
// the other golden checks.
func TestGoldenScale4PostmortemEnabled(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite postmortem determinism check skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("full-suite postmortem determinism check skipped under -race")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_scale4_seed42.txt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var b strings.Builder
	for _, e := range All() {
		opt := Options{Seed: 42, Scale: 4, Jobs: 4, PostmortemDir: filepath.Join(dir, e.ID)}
		if err := os.MkdirAll(opt.PostmortemDir, 0o755); err != nil {
			t.Fatal(err)
		}
		e.Run(opt).Render(&b)
	}
	if b.String() != string(golden) {
		t.Fatalf("scale-4 render with postmortem enabled differs from golden fixture:\n%s",
			firstDiff(string(golden), b.String()))
	}
	for _, e := range All() {
		files, err := filepath.Glob(filepath.Join(dir, e.ID, "postmortem-*.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Errorf("%s wrote no cell postmortems", e.ID)
			continue
		}
		data, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		ex, err := postmortem.ParseJSON(data)
		if err != nil {
			t.Errorf("%s: %s: %v", e.ID, files[0], err)
			continue
		}
		if bad := ex.Verify(); len(bad) != 0 {
			t.Errorf("%s: %s: sum invariant: %v", e.ID, files[0], bad)
		}
	}
}

// TestGoldenScale4PooledWorkers asserts the scratch-pooling contract: the
// full scale-4 evaluation run on one shared worker pool — so every cell
// after the first few starts from backing arrays harvested from earlier
// cells, across experiment boundaries — renders byte-identically to the
// committed golden fixture. Scratch reuse only changes slice capacities,
// never values (jvm.Scratch); this test pins that across the whole suite.
// Skipped under -short and -race like the other golden checks.
func TestGoldenScale4PooledWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite pooling determinism check skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("full-suite pooling determinism check skipped under -race")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_scale4_seed42.txt"))
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(2)
	var b strings.Builder
	for _, e := range All() {
		e.Run(Options{Seed: 42, Scale: 4, Pool: pool}).Render(&b)
	}
	if b.String() != string(golden) {
		t.Fatalf("scale-4 render on a shared scratch pool differs from golden fixture:\n%s",
			firstDiff(string(golden), b.String()))
	}
}

// firstDiff returns the first differing line pair for a readable failure.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  serial:   %s\n  parallel: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
