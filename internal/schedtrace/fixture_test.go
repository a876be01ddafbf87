package schedtrace_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/evtrace"
	"repro/internal/experiments"
	"repro/internal/jvm"
	"repro/internal/schedtrace"
)

// The fixtures in testdata are the stdout of `gcsim ... -timeline` and
// `experiments -run fig6 -scale 8 -timeline 1` as captured from the
// kernel-hooked scheduling trace that the bus Recorder replaced. Both
// views must render byte-identically through the Recorder.

// gcsimTimeline reproduces `gcsim -timeline` for cfg (gcsim's flag
// defaults filled in).
func gcsimTimeline(t *testing.T, cfg core.Config) []byte {
	t.Helper()
	cfg.Mutators, cfg.Clients, cfg.Requests, cfg.Seed = 16, 64, 10000, 42
	spec, err := core.BuildRunSpec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec.EvTracer = evtrace.New(1)
	var rec schedtrace.Recorder
	rec.Attach(spec.EvTracer)
	r, err := jvm.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	title := fmt.Sprintf("%s (%s)", r.Benchmark, cfg.Optimizations)
	if err := schedtrace.RenderMidGC(&b, &rec, r.NumCPUs, r.Reports, title); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestTimelineFixtures(t *testing.T) {
	cases := []struct {
		file string
		cfg  core.Config
	}{
		{"gcsim_lusearch_none.txt", core.Config{Benchmark: "lusearch", Optimizations: core.OptNone}},
		{"gcsim_lusearch_all.txt", core.Config{Benchmark: "lusearch", Optimizations: core.OptAll}},
		{"gcsim_jython.txt", core.Config{Benchmark: "jython", Optimizations: core.OptNone}},
		{"gcsim_lusearch_busy4_smt.txt", core.Config{Benchmark: "lusearch", Optimizations: core.OptNone, BusyLoops: 4, SMT: true}},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatal(err)
			}
			if got := gcsimTimeline(t, c.cfg); !bytes.Equal(got, want) {
				t.Errorf("timeline differs from the fixture:\n--- got\n%s--- want\n%s", got, want)
			}
		})
	}

	t.Run("exp_fig6_scale8.txt", func(t *testing.T) {
		want, err := os.ReadFile(filepath.Join("testdata", "exp_fig6_scale8.txt"))
		if err != nil {
			t.Fatal(err)
		}
		tc := &experiments.TimelineCapture{Cell: 1}
		res := experiments.Fig6(experiments.Options{Scale: 8, Timeline: tc})
		var b bytes.Buffer
		res.Render(&b)
		title := fmt.Sprintf("timeline: fig6 cell %d (%s)", tc.Cell, tc.Result.Benchmark)
		if err := schedtrace.RenderMidGC(&b, &tc.Recorder, tc.Result.NumCPUs, tc.Result.Reports, title); err != nil {
			t.Fatal(err)
		}
		if got := b.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("timeline differs from the fixture:\n--- got\n%s--- want\n%s", got, want)
		}
	})
}
