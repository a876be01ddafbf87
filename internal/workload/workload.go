// Package workload defines the benchmark models of the evaluation: the five
// DaCapo programs, five SPECjvm2008 programs, the three HiBench big-data
// jobs with small/large/huge data sizes, and the Cassandra server (§5.1,
// Table 2). A Profile is pure data: allocation behaviour (an objgraph
// parameterization), compute-per-work-item, scalability (a serial fraction
// executed under an application lock), big-data phase caching, and the
// Table-2 heap size. Package jvm turns profiles into running mutators.
//
// Real heaps are simulated at a per-profile scale (model bytes per real MB;
// DESIGN.md §6) chosen so every benchmark traces a few thousand objects per
// minor GC regardless of its nominal heap size.
package workload

import (
	"fmt"
	"strings"

	"repro/internal/heap"
	"repro/internal/objgraph"
	"repro/internal/simkit"
)

// Class distinguishes run-to-completion batch jobs from request servers.
type Class int

const (
	// Batch workloads run a fixed number of work items to completion.
	Batch Class = iota
	// Server workloads process requests from clients (Cassandra).
	Server
)

// DataSize selects a HiBench input scale (§5.5: small, large, huge).
type DataSize int

const (
	// SizeSmall is HiBench "small".
	SizeSmall DataSize = iota
	// SizeLarge is HiBench "large".
	SizeLarge
	// SizeHuge is HiBench "huge".
	SizeHuge
)

func (s DataSize) String() string {
	switch s {
	case SizeSmall:
		return "small"
	case SizeLarge:
		return "large"
	case SizeHuge:
		return "huge"
	}
	return fmt.Sprintf("DataSize(%d)", int(s))
}

// Profile describes one benchmark.
type Profile struct {
	Name  string
	Suite string // "DaCapo", "SPECjvm2008", "HiBench", "Apache"
	Class Class

	// HeapMB is the Table-2 heap size (real megabytes). MinHeapMB is the
	// benchmark's minimum heap (HeapMB is 3x it for DaCapo/SPECjvm, §5.1).
	HeapMB    int
	MinHeapMB int
	// ScalePerMB converts real megabytes to model bytes.
	ScalePerMB int64

	// Graph parameterizes the object graphs the mutators build. Its
	// RetainWindow is interpreted as an application-wide total: package jvm
	// divides it by the mutator count, so the medium-lived live set is a
	// property of the application rather than of its thread count.
	Graph objgraph.Params

	// Batch behaviour: TotalItems work items split across mutators, each
	// costing ItemCompute CPU and allocating ItemClusters object clusters.
	// SerialFrac of the compute runs under a shared application monitor
	// (Amdahl fraction: 0 = perfectly scalable).
	TotalItems   int
	ItemCompute  simkit.Time
	ItemClusters int
	SerialFrac   float64

	// Big-data phases (Spark-like): at each phase boundary the job drops
	// PhaseDropFrac of its cached RDD partitions and caches new ones until
	// the old generation holds PhaseCacheFrac of its capacity.
	Phases         int
	PhaseCacheFrac float64
	PhaseDropFrac  float64

	// Server behaviour (Class == Server).
	ServiceCompute  simkit.Time
	ServiceClusters int
}

// HeapConfig returns the model heap configuration for the profile's
// Table-2 heap size.
func (p Profile) HeapConfig() heap.Config { return p.HeapConfigMB(p.HeapMB) }

// HeapConfigMB returns the model heap configuration for an explicit real
// heap size (heap-size sweeps, Fig. 14). Layout follows Parallel Scavenge
// defaults: young = 1/3 of the heap, eden = 8/10 of young, survivors 1/10
// each, old = 2/3.
func (p Profile) HeapConfigMB(mb int) heap.Config {
	total := int64(mb) * p.ScalePerMB
	young := total / 3
	return heap.Config{
		EdenBytes:     young * 8 / 10,
		SurvivorBytes: young / 10,
		OldBytes:      total - young,
		TenureAge:     4,
	}
}

// Validate checks the profile for consistency.
func (p Profile) Validate() error {
	if p.Name == "" || p.HeapMB <= 0 || p.ScalePerMB <= 0 {
		return fmt.Errorf("workload: incomplete profile %+v", p)
	}
	if err := p.Graph.Validate(); err != nil {
		return fmt.Errorf("workload %s: %w", p.Name, err)
	}
	if p.Class == Batch && (p.TotalItems <= 0 || p.ItemCompute <= 0) {
		return fmt.Errorf("workload %s: batch profile needs items and compute", p.Name)
	}
	if p.Class == Server && p.ServiceCompute <= 0 {
		return fmt.Errorf("workload %s: server profile needs ServiceCompute", p.Name)
	}
	if p.SerialFrac < 0 || p.SerialFrac > 1 {
		return fmt.Errorf("workload %s: SerialFrac out of range", p.Name)
	}
	return nil
}

const (
	us = simkit.Microsecond
	ms = simkit.Millisecond
)

// graph builds an objgraph parameterization tersely.
func graph(size int32, fanout, stackW, retainW int, retain, attach, cross float64) objgraph.Params {
	return objgraph.Params{
		MeanObjectSize: size,
		ClusterFanout:  fanout,
		StackWindow:    stackW,
		RetainProb:     retain,
		RetainWindow:   retainW,
		OldAttachProb:  attach,
		AnchorWindow:   48, // per mutator; displaced subtrees tenure-die
		CrossRefProb:   cross,
	}
}

// Lusearch: DaCapo text search — highly scalable, allocation-intensive,
// small heap (90 MB = 3x min 30 MB), many minor GCs, severe task imbalance
// in the vanilla JVM (Fig. 4).
func Lusearch() Profile {
	return Profile{
		Name: "lusearch", Suite: "DaCapo", HeapMB: 90, MinHeapMB: 30, ScalePerMB: 73728,
		Graph:      graph(128, 4, 12, 320, 0.07, 0.08, 0.15),
		TotalItems: 60000, ItemCompute: 100 * us, ItemClusters: 3,
	}
}

// Xalan: DaCapo XSLT — scalable with moderate GC load.
func Xalan() Profile {
	return Profile{
		Name: "xalan", Suite: "DaCapo", HeapMB: 150, MinHeapMB: 50, ScalePerMB: 49152,
		Graph:      graph(128, 5, 12, 360, 0.08, 0.10, 0.20),
		TotalItems: 60000, ItemCompute: 150 * us, ItemClusters: 2, SerialFrac: 0.05,
	}
}

// H2: DaCapo in-memory database — non-scalable (transactions serialize on
// the database lock), large heap, long-lived data.
func H2() Profile {
	return Profile{
		Name: "h2", Suite: "DaCapo", HeapMB: 900, MinHeapMB: 300, ScalePerMB: 8192,
		Graph:      graph(160, 4, 16, 512, 0.20, 0.25, 0.25),
		TotalItems: 30000, ItemCompute: 380 * us, ItemClusters: 9, SerialFrac: 0.55,
	}
}

// Jython: DaCapo Python interpreter — non-scalable, small heap, frequent
// small collections.
func Jython() Profile {
	return Profile{
		Name: "jython", Suite: "DaCapo", HeapMB: 90, MinHeapMB: 30, ScalePerMB: 73728,
		Graph:      graph(96, 3, 16, 480, 0.08, 0.10, 0.20),
		TotalItems: 70000, ItemCompute: 190 * us, ItemClusters: 7, SerialFrac: 0.45,
	}
}

// Sunflow: DaCapo ray tracer — scalable and extremely allocation-heavy
// (the paper's largest GC-time improvement, 87.1%).
func Sunflow() Profile {
	return Profile{
		Name: "sunflow", Suite: "DaCapo", HeapMB: 210, MinHeapMB: 70, ScalePerMB: 32768,
		Graph:      graph(112, 9, 8, 192, 0.05, 0.06, 0.10),
		TotalItems: 60000, ItemCompute: 250 * us, ItemClusters: 3,
	}
}

// CompilerCompiler: SPECjvm2008 compiler.compiler — throughput benchmark
// with a large, well-connected live set; its remembered set is big, so root
// tasks are numerous and even, giving the lowest steal-failure rate in
// Table 1 (37.7%).
func CompilerCompiler() Profile {
	return Profile{
		Name: "compiler.compiler", Suite: "SPECjvm2008", HeapMB: 4000, MinHeapMB: 1333, ScalePerMB: 2048,
		Graph:      graph(128, 7, 20, 512, 0.25, 0.30, 0.30),
		TotalItems: 40000, ItemCompute: 280 * us, ItemClusters: 3,
	}
}

// Compress: SPECjvm2008 compress — few, large, long-lived buffers; little
// fine-grained GC work, so stealing fails often (90.3%).
func Compress() Profile {
	return Profile{
		Name: "compress", Suite: "SPECjvm2008", HeapMB: 2500, MinHeapMB: 833, ScalePerMB: 3072,
		Graph:      graph(1536, 1, 6, 64, 0.10, 0.10, 0.05),
		TotalItems: 30000, ItemCompute: 350 * us, ItemClusters: 1,
	}
}

// CryptoSignverify: SPECjvm2008 crypto.signverify — tiny transient objects,
// the highest steal-failure rate in Table 1 (93.6%).
func CryptoSignverify() Profile {
	return Profile{
		Name: "crypto.signverify", Suite: "SPECjvm2008", HeapMB: 2500, MinHeapMB: 833, ScalePerMB: 3072,
		Graph:      graph(80, 2, 8, 96, 0.04, 0.05, 0.08),
		TotalItems: 60000, ItemCompute: 180 * us, ItemClusters: 4,
	}
}

// XMLTransform: SPECjvm2008 xml.transform — mid-weight documents.
func XMLTransform() Profile {
	return Profile{
		Name: "xml.transform", Suite: "SPECjvm2008", HeapMB: 4000, MinHeapMB: 1333, ScalePerMB: 2048,
		Graph:      graph(144, 5, 16, 384, 0.15, 0.20, 0.25),
		TotalItems: 50000, ItemCompute: 240 * us, ItemClusters: 3,
	}
}

// XMLValidation: SPECjvm2008 xml.validation — large balanced trees; GC work
// parallelizes well even in the vanilla JVM (28.9% failure rate).
func XMLValidation() Profile {
	return Profile{
		Name: "xml.validation", Suite: "SPECjvm2008", HeapMB: 4000, MinHeapMB: 1333, ScalePerMB: 2048,
		Graph:      graph(128, 8, 20, 640, 0.22, 0.30, 0.30),
		TotalItems: 45000, ItemCompute: 220 * us, ItemClusters: 4,
	}
}

// hibench builds a Spark-style phased job.
func hibench(name string, size DataSize, items int, cache float64) Profile {
	p := Profile{
		Name: fmt.Sprintf("%s(%s)", name, size), Suite: "HiBench",
		HeapMB: 16384, MinHeapMB: 8192, ScalePerMB: 448,
		Graph:      graph(192, 5, 12, 384, 0.15, 0.25, 0.20),
		TotalItems: items, ItemCompute: 320 * us, ItemClusters: 3, SerialFrac: 0.08,
		Phases: 5, PhaseCacheFrac: cache, PhaseDropFrac: 0.5,
	}
	return p
}

// Kmeans returns the HiBench kmeans job at the given data size. The cached
// RDD partitions dominate the old generation; full GCs account for roughly
// two-thirds of GC time on large inputs (§5.5).
func Kmeans(size DataSize) Profile {
	switch size {
	case SizeSmall:
		return hibench("kmeans", size, 12000, 0.20)
	case SizeLarge:
		return hibench("kmeans", size, 30000, 0.45)
	default:
		return hibench("kmeans", size, 56000, 0.62)
	}
}

// Wordcount returns the HiBench wordcount job at the given data size.
func Wordcount(size DataSize) Profile {
	switch size {
	case SizeSmall:
		return hibench("wordcount", size, 10000, 0.15)
	case SizeLarge:
		return hibench("wordcount", size, 25000, 0.35)
	default:
		return hibench("wordcount", size, 45000, 0.50)
	}
}

// Pagerank returns the HiBench pagerank job. The huge data set exceeds the
// old generation and aborts with an out-of-memory error, as in the paper
// (§5.5: "pagerank with the huge dataset crashed due to out-of-memory").
func Pagerank(size DataSize) Profile {
	var p Profile
	switch size {
	case SizeSmall:
		p = hibench("pagerank", size, 12000, 0.25)
	case SizeLarge:
		p = hibench("pagerank", size, 32000, 0.55)
	default:
		p = hibench("pagerank", size, 64000, 0.97)
		p.PhaseDropFrac = 0.05 // the huge graph cannot be evicted
	}
	p.Graph.RetainProb = 0.22
	p.Graph.OldAttachProb = 0.4
	return p
}

// Cassandra returns the Cassandra server profile (8 GB heap, §5.1).
func Cassandra() Profile {
	return Profile{
		Name: "cassandra", Suite: "Apache", Class: Server,
		HeapMB: 8192, MinHeapMB: 4096, ScalePerMB: 1024,
		Graph:          graph(160, 4, 8, 512, 0.18, 0.28, 0.20),
		ServiceCompute: 220 * us, ServiceClusters: 2,
	}
}

// DaCapo returns the five DaCapo profiles in the paper's order.
func DaCapo() []Profile {
	return []Profile{H2(), Jython(), Lusearch(), Sunflow(), Xalan()}
}

// SPECjvm returns the five SPECjvm2008 profiles in the paper's order.
func SPECjvm() []Profile {
	return []Profile{CompilerCompiler(), Compress(), CryptoSignverify(), XMLTransform(), XMLValidation()}
}

// Table1Benchmarks returns the ten programs of Table 1 / Fig. 6.
func Table1Benchmarks() []Profile { return append(DaCapo(), SPECjvm()...) }

// ByName looks up a profile by benchmark name (HiBench names accept a
// "(size)" suffix; bare HiBench names get the large data size). It builds
// only the named profile, so every call returns a fresh value the caller
// may edit (TotalItems, say) without touching anyone else's.
func ByName(name string) (Profile, error) {
	switch name {
	case "h2":
		return H2(), nil
	case "jython":
		return Jython(), nil
	case "lusearch":
		return Lusearch(), nil
	case "sunflow":
		return Sunflow(), nil
	case "xalan":
		return Xalan(), nil
	case "compiler.compiler":
		return CompilerCompiler(), nil
	case "compress":
		return Compress(), nil
	case "crypto.signverify":
		return CryptoSignverify(), nil
	case "xml.transform":
		return XMLTransform(), nil
	case "xml.validation":
		return XMLValidation(), nil
	case "cassandra":
		return Cassandra(), nil
	}
	job, suffix, sized := strings.Cut(name, "(")
	var build func(DataSize) Profile
	switch job {
	case "kmeans":
		build = Kmeans
	case "wordcount":
		build = Wordcount
	case "pagerank":
		build = Pagerank
	}
	if build != nil {
		if !sized {
			return build(SizeLarge), nil
		}
		for _, size := range []DataSize{SizeSmall, SizeLarge, SizeHuge} {
			if suffix == size.String()+")" {
				return build(size), nil
			}
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
}
