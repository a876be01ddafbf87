package evtrace

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/stats"
)

// TestRegistryExpositionGolden pins both exposition formats byte for
// byte: the JSON metric list (with histogram quantile expansion, sorted,
// counters before gauges before histograms on name ties) and the
// Prometheus text format. Each is rendered twice and must repeat
// byte-identically — the digest-stability property the service and gcjson
// consumers rely on.
func TestRegistryExpositionGolden(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("svc.runs").Set(3)
		r.Gauge("svc.ratio").Set(0.25)
		// A name collision across kinds: the tie must order deterministically.
		r.Counter("svc.shared").Set(7)
		r.Gauge("svc.shared").Set(1.5)
		h := &stats.Histogram{}
		for _, v := range []float64{4, 2, 8, 1} {
			h.Add(v)
		}
		r.Summary("svc.lat_ms", h)
		return r
	}

	wantJSON := `[{"name":"svc.lat_ms.count","value":4},` +
		`{"name":"svc.lat_ms.p50","value":2},` +
		`{"name":"svc.lat_ms.p95","value":8},` +
		`{"name":"svc.lat_ms.p99","value":8},` +
		`{"name":"svc.lat_ms.sum","value":15},` +
		`{"name":"svc.ratio","value":0.25},` +
		`{"name":"svc.runs","value":3},` +
		`{"name":"svc.shared","value":7},` +
		`{"name":"svc.shared","value":1.5}]`
	wantProm := `# TYPE svc_lat_ms summary
svc_lat_ms{quantile="0.5"} 2
svc_lat_ms{quantile="0.95"} 8
svc_lat_ms{quantile="0.99"} 8
svc_lat_ms_sum 15
svc_lat_ms_count 4
# TYPE svc_ratio gauge
svc_ratio 0.25
# TYPE svc_runs counter
svc_runs 3
# TYPE svc_shared counter
svc_shared 7
# TYPE svc_shared gauge
svc_shared 1.5
`

	r := build()
	j1, err := json.Marshal(r.Current())
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != wantJSON {
		t.Errorf("JSON exposition:\n got %s\nwant %s", j1, wantJSON)
	}
	j2, _ := json.Marshal(r.Current())
	if !bytes.Equal(j1, j2) {
		t.Error("repeated JSON marshal is not byte-identical")
	}

	var p1, p2 bytes.Buffer
	if err := r.WritePrometheus(&p1); err != nil {
		t.Fatal(err)
	}
	if p1.String() != wantProm {
		t.Errorf("Prometheus exposition:\n got:\n%s\nwant:\n%s", p1.String(), wantProm)
	}
	if err := r.WritePrometheus(&p2); err != nil {
		t.Fatal(err)
	}
	if p1.String() != p2.String() {
		t.Error("repeated Prometheus exposition is not byte-identical")
	}

	// A fresh registry built the same way must expose identically (no map
	// iteration order leaking through).
	var p3 bytes.Buffer
	if err := build().WritePrometheus(&p3); err != nil {
		t.Fatal(err)
	}
	if p3.String() != p1.String() {
		t.Error("rebuild exposition differs: map order leaked into output")
	}
}
