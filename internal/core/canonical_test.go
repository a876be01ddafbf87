package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/gclog"
)

// resultDigest hashes everything a run reports, the same way the sweepd
// sweep digests cells.
func resultDigest(t *testing.T, cfg Config) string {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "total=%d gc=%d minor=%d major=%d ops=%.6f\n",
		res.TotalTime, res.GCTime, res.MinorGCs, res.MajorGCs, res.ThroughputOPS)
	if err := gclog.WriteRunJSON(h, res.Reports, res.Monitor, res.Steal, nil); err != nil {
		t.Fatalf("WriteRunJSON: %v", err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Seed 0 is a real seed: it must run (not alias to the default 42), and it
// must produce a different simulation than seed 42. This is the regression
// test for BuildRunSpec's former `if seed == 0 { seed = 42 }` rewrite.
func TestSeedZeroIsDistinctAndRunnable(t *testing.T) {
	base := Config{Profile: quick(), Mutators: 4, GCThreads: 4}

	cfg0 := base
	cfg0.Seed = 0
	cfg42 := base
	cfg42.Seed = 42

	spec0, err := BuildRunSpec(cfg0)
	if err != nil {
		t.Fatal(err)
	}
	if spec0.Seed != 0 || spec0.Config.Seed != 0 {
		t.Fatalf("BuildRunSpec rewrote seed 0 to %d/%d", spec0.Seed, spec0.Config.Seed)
	}

	d0 := resultDigest(t, cfg0)
	d42 := resultDigest(t, cfg42)
	if d0 == d42 {
		t.Fatalf("seed 0 and seed 42 alias to one result digest %s", d0)
	}
	// Same-seed replay stays deterministic.
	if again := resultDigest(t, cfg0); again != d0 {
		t.Fatalf("seed 0 replay digest changed: %s != %s", again, d0)
	}
}

// Canonical forms must be injective over seeds: distinct seeds may never
// collapse onto one canonical form or one digest.
func TestCanonicalInjectiveOverSeeds(t *testing.T) {
	base := Config{Benchmark: "lusearch", Mutators: 16}
	seen := map[string]int64{}
	for _, seed := range []int64{-2, -1, 0, 1, 2, 41, 42, 43, 1 << 40} {
		c := base
		c.Seed = seed
		if got := c.Canonical().Seed; got != seed {
			t.Errorf("Canonical rewrote seed %d to %d", seed, got)
		}
		d := c.Digest()
		if prev, dup := seen[d]; dup {
			t.Errorf("seeds %d and %d share digest %s", prev, seed, d)
		}
		seen[d] = seed
	}
}

func TestCanonicalIdempotentAndStable(t *testing.T) {
	cfg := Config{Benchmark: "cassandra", Mutators: 8, Clients: 64, Requests: 5000, Seed: 7}
	once := cfg.Canonical()
	if twice := once.Canonical(); twice != once {
		t.Fatalf("Canonical not idempotent: %+v != %+v", twice, once)
	}
	if a, b := cfg.Digest(), cfg.Digest(); a != b {
		t.Fatalf("Digest not stable across calls: %s != %s", a, b)
	}
}

// A stray inline Profile next to a named Benchmark is ignored by Run, so
// it must not split the digest; server-only knobs on a batch benchmark
// likewise.
func TestCanonicalZeroesIgnoredFields(t *testing.T) {
	plain := Config{Benchmark: "lusearch", Mutators: 16, Seed: 3}
	noisy := plain
	noisy.Profile = quick() // ignored: Benchmark wins
	if plain.Digest() != noisy.Digest() {
		t.Errorf("ignored Profile split the digest")
	}

	batch := Config{Benchmark: "lusearch", Mutators: 16, Seed: 3, Clients: 64, Requests: 9999}
	if batch.Digest() != plain.Digest() {
		t.Errorf("server-only Clients/Requests split a batch benchmark's digest")
	}

	// On a server benchmark Clients/Requests are load-bearing.
	srvA := Config{Benchmark: "cassandra", Clients: 32, Requests: 1000, Seed: 3}
	srvB := srvA
	srvB.Clients = 64
	if srvA.Digest() == srvB.Digest() {
		t.Errorf("cassandra client counts alias to one digest")
	}
}

// Distinct knobs must produce distinct digests (a spot check across every
// Config axis the service cache keys on).
func TestDigestSeparatesKnobs(t *testing.T) {
	base := Config{Benchmark: "lusearch", Mutators: 16, Seed: 42}
	seen := map[string]bool{base.Digest(): true}
	for _, v := range []Config{
		{Benchmark: "xml.validation", Mutators: 16, Seed: 42},
		{Benchmark: "lusearch", Mutators: 8, Seed: 42},
		{Benchmark: "lusearch", Mutators: 16, GCThreads: 4, Seed: 42},
		{Benchmark: "lusearch", Mutators: 16, HeapMB: 200, Seed: 42},
		{Benchmark: "lusearch", Mutators: 16, Optimizations: OptAll, Seed: 42},
		{Benchmark: "lusearch", Mutators: 16, BusyLoops: 2, Seed: 42},
		{Benchmark: "lusearch", Mutators: 16, SMT: true, Seed: 42},
	} {
		d := v.Digest()
		if seen[d] {
			t.Errorf("config %+v digest collides", v)
		}
		seen[d] = true
	}
}
