package gclog

import (
	"bytes"
	"testing"

	"repro/internal/evtrace"
	"repro/internal/jmutex"
	"repro/internal/pscavenge"
	"repro/internal/taskq"
)

// runExportBytes marshals one representative full-run export.
func runExportBytes(t *testing.T, metrics []evtrace.Metric) []byte {
	t.Helper()
	var b bytes.Buffer
	steal := &taskq.Stats{Attempts: []int64{40, 35, 25}, Failures: []int64{30, 31, 20}}
	mon := jmutex.Stats{FastAcquires: 120, SlowAcquires: 14, OwnerReacquires: 96, ParkEvents: 9}
	err := WriteRunJSON(&b, []*pscavenge.GCReport{minorReport(), majorReport()}, mon, steal, metrics)
	if err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// The service cache and the sweepd sweep both digest WriteRunJSON
// output, so repeated marshals of one run must be byte-identical — no map
// iteration order (or other nondeterminism) may leak into the encoding.
// The registries are rebuilt per iteration with shuffled insertion orders
// and a counter/gauge name collision, the case whose ordering was left to
// map iteration before Registry.values() sorted both key sets explicitly.
func TestWriteRunJSONRepeatedMarshalByteIdentical(t *testing.T) {
	metricsAt := func(rot int) []evtrace.Metric {
		reg := evtrace.NewRegistry()
		names := []string{"gc.minor", "taskq.steals", "jmutex.fast", "cfs.migrations", "gc.pause_ms"}
		for i := range names {
			name := names[(i+rot)%len(names)]
			reg.Counter(name).Set(int64(7 * len(name)))
		}
		// Same-name counter and gauge: the ordering tie the old sort left
		// to map iteration order.
		reg.Gauge("gc.pause_ms").Set(1.25)
		reg.Gauge("worker.busy").Set(0.5)
		return reg.Current()
	}
	want := runExportBytes(t, metricsAt(0))
	for i := 1; i < 50; i++ {
		if got := runExportBytes(t, metricsAt(i)); !bytes.Equal(got, want) {
			t.Fatalf("marshal %d differs from first:\n%s\nvs\n%s", i, got, want)
		}
	}
}

// Registry snapshots must order a counter and a gauge with equal names
// deterministically (counter first).
func TestRegistryValuesTieOrder(t *testing.T) {
	for i := 0; i < 20; i++ {
		reg := evtrace.NewRegistry()
		if i%2 == 0 {
			reg.Gauge("dup").Set(2)
			reg.Counter("dup").Set(1)
		} else {
			reg.Counter("dup").Set(1)
			reg.Gauge("dup").Set(2)
		}
		vals := reg.Current()
		if len(vals) != 2 || vals[0].Value != 1 || vals[1].Value != 2 {
			t.Fatalf("iteration %d: tie order not counter-first: %+v", i, vals)
		}
	}
}
