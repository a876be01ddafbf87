package service

import "testing"

// The latency gauges and the latency summary read one histogram, so they
// share one quantile rule: for the samples 1..160 the nearest-rank p99 is
// the 159th sample (rank ⌈0.99·160⌉ = 159) under both names.
func TestLatencyQuantilesShareOneRule(t *testing.T) {
	s := newTestService(t, Options{})
	for i := 1; i <= 160; i++ {
		s.latency.Add(float64(i))
	}
	got := map[string]float64{}
	for _, m := range s.Metrics() {
		got[m.Name] = m.Value
	}
	for _, c := range []struct {
		gauge, summary string
		want           float64
	}{
		{"service.latency_p50_ms", "service.latency_ms.p50", 80},
		{"service.latency_p99_ms", "service.latency_ms.p99", 159},
	} {
		if got[c.gauge] != c.want || got[c.summary] != c.want {
			t.Errorf("%s = %v, %s = %v; want both %v",
				c.gauge, got[c.gauge], c.summary, got[c.summary], c.want)
		}
	}
	if got["service.latency_ms.count"] != 160 || got["service.latency_ms.sum"] != 160*161/2 {
		t.Errorf("count = %v, sum = %v; want 160 and 12880",
			got["service.latency_ms.count"], got["service.latency_ms.sum"])
	}
}
