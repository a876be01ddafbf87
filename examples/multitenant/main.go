// Multi-tenant study (the shape of Fig. 15): how the GC optimizations hold
// up when the machine is shared — a JVM alongside pinned busy loops, and
// two JVMs co-running. Static core binding collides with the interference;
// the dynamic, load-aware binding of Algorithm 1 steers around it.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/affinity"
	"repro/internal/jvm"
	"repro/internal/stats"
	"repro/internal/taskq"
	"repro/internal/workload"
)

func main() {
	lus := workload.Lusearch()
	lus.TotalItems /= 2 // keep the example snappy

	// Scenario 1: lusearch sharing the machine with ten pinned busy loops.
	tab := stats.NewTable("lusearch + 10 busy loops", "gc-binding", "total(ms)", "gc(ms)", "rebinds")
	for _, mode := range []affinity.Mode{affinity.ModeNone, affinity.ModeStatic, affinity.ModeDynamic} {
		cfg := jvm.Config{
			Profile: lus, Mutators: 16, Seed: 21,
			Affinity: mode, TaskAffinity: mode != affinity.ModeNone,
			Steal: taskq.KindSemiRandom, FastTerminator: true,
		}
		r, err := jvm.Run(jvm.RunSpec{Config: cfg, Seed: 21, BusyLoops: 10})
		if err != nil {
			log.Fatal(err)
		}
		tab.AddRow(mode.String(), r.TotalTime.Millis(), r.GCTime.Millis(), r.Rebinds)
	}
	tab.Render(os.Stdout)
	fmt.Println()

	// Scenario 2: two lusearch JVMs co-running on one machine.
	co := stats.NewTable("2 x lusearch co-running", "config", "jvm0-total(ms)", "jvm1-total(ms)", "mean-gc(ms)")
	for _, optimized := range []bool{false, true} {
		cfgA := jvm.Config{Profile: lus, Mutators: 16, Seed: 22}
		cfgB := jvm.Config{Profile: lus, Mutators: 16, Seed: 23, SpawnCore: 10}
		name := "vanilla"
		if optimized {
			cfgA = cfgA.WithOptimizations()
			cfgB = cfgB.WithOptimizations()
			name = "optimized"
		}
		rs, err := jvm.RunJVMs(jvm.RunSpec{Seed: 22}, cfgA, cfgB)
		if err != nil {
			log.Fatal(err)
		}
		meanGC := (rs[0].GCTime + rs[1].GCTime) / 2
		co.AddRow(name, rs[0].TotalTime.Millis(), rs[1].TotalTime.Millis(), meanGC.Millis())
	}
	co.Render(os.Stdout)
	fmt.Println("\nDynamic binding reads per-core load (including sleeping threads, the")
	fmt.Println("paper's kernel fix) at each GC start and rebinds contended GC threads")
	fmt.Println("to lightly loaded cores, so co-tenants and background work are avoided.")
}
