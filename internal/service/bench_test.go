package service

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkServiceCold pushes b.N distinct cold scenarios through Run from
// two goroutines on a two-worker service — the shape of the whatif-mix
// closed loop's cold path — and reports cold scenarios per second. Each
// worker is warmed with one untimed run first, so the timed runs reuse
// warm scratch.
func BenchmarkServiceCold(b *testing.B) {
	const clients = 2
	s := New(Options{Workers: clients})
	defer s.Close()
	run := func(seed int64) {
		scn := tinyScenario()
		scn.Seed = seed
		if _, out, err := s.Run(context.Background(), scn); err != nil || out != OutcomeMiss {
			b.Errorf("seed %d: outcome %q, err %v; want a cold run", seed, out, err)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(int64(-1 - c))
		}()
	}
	wg.Wait()

	var next atomic.Int64
	b.ResetTimer()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
				run(i)
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cold/s")
}
