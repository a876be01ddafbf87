package jvm

import (
	"testing"

	"repro/internal/workload"
)

// TestGCWorkersRunAsPlans asserts that on a stock run the GC worker bodies
// are serviced as kernel compute plans: the run must record driver-side
// slice elisions, and they must outnumber coroutine resumes. Workers that
// yielded one Compute per tracing chunk resumed their bodies about once per
// slice (7,988 resumes against 7,357 elisions on this cell); the plan
// workers resume 1,214 times for 14,131 elisions. The exact event stream of
// this cell is pinned by pscavenge's TestWorkerPlanMatchesLoop.
func TestGCWorkersRunAsPlans(t *testing.T) {
	p := workload.Lusearch()
	p.TotalItems /= 8 // reduced cell: a few GCs is enough
	res, err := Run(RunSpec{Config: Config{Profile: p, Mutators: 16, Seed: 1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.MinorGCs == 0 {
		t.Fatal("reduced cell ran no minor GCs; cannot exercise workers")
	}
	k := res.Kernel
	if k.BurstElisions == 0 {
		t.Fatal("plan workers recorded no burst elisions")
	}
	if k.BodyResumes >= k.BurstElisions {
		t.Errorf("body resumes (%d) not below driver-side elisions (%d): workers are not running as plans",
			k.BodyResumes, k.BurstElisions)
	}
}
