package service

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzScenarioConfig decodes arbitrary JSON into a Scenario and resolves
// it. Resolution must never panic, and every accepted scenario must have a
// canonical form that is a fixed point (canonicalizing twice changes
// nothing) and a digest that is the same on every call and matches the
// digest of its canonical form — the properties the response cache keys on.
func FuzzScenarioConfig(f *testing.F) {
	server := tinyScenario()
	server.Benchmark, server.Clients, server.Requests = "cassandra", 8, 200
	seeds := []Scenario{
		tinyScenario(),
		{Benchmark: "lusearch", Items: 1500, Mutators: 2, GCThreads: 4, Optimizations: "all", Seed: 7},
		{Benchmark: "lusearch", Mutators: 1, Seed: 10},
		{Benchmark: "lusearch", Clients: 3, Requests: 9, BusyLoops: 2, SMT: true},
		server,
		{Benchmark: "nope"},
		{},
		{Benchmark: "lusearch", Optimizations: "warp-speed"},
		{Benchmark: "lusearch", HeapMB: -1},
	}
	for _, s := range seeds {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"benchmark":"lusearch","items":1e3}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Scenario
		if json.Unmarshal(data, &s) != nil {
			return
		}
		cfg, err := s.Config()
		if err != nil {
			return
		}
		canon := cfg.Canonical()
		if again := canon.Canonical(); !reflect.DeepEqual(again, canon) {
			t.Fatalf("Canonical is not idempotent for %+v:\nonce:  %+v\ntwice: %+v", s, canon, again)
		}
		d := cfg.Digest()
		if d2 := cfg.Digest(); d2 != d {
			t.Fatalf("Digest unstable for %+v: %s then %s", s, d, d2)
		}
		if dc := canon.Digest(); dc != d {
			t.Fatalf("Digest of canonical form %s != digest %s for %+v", dc, d, s)
		}
	})
}
