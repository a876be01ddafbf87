package workload

import (
	"reflect"
	"strings"
	"testing"
)

// TestTable2HeapSizes pins the Table-2 heap configuration of the paper.
func TestTable2HeapSizes(t *testing.T) {
	want := map[string]int{
		"h2": 900, "jython": 90, "lusearch": 90, "sunflow": 210, "xalan": 150,
		"compiler.compiler": 4000, "compress": 2500, "crypto.signverify": 2500,
		"xml.transform": 4000, "xml.validation": 4000,
	}
	for _, p := range Table1Benchmarks() {
		if want[p.Name] == 0 {
			t.Errorf("unexpected benchmark %q", p.Name)
			continue
		}
		if p.HeapMB != want[p.Name] {
			t.Errorf("%s heap = %d MB, want %d (Table 2)", p.Name, p.HeapMB, want[p.Name])
		}
	}
	if Kmeans(SizeLarge).HeapMB != 16384 {
		t.Error("HiBench heap must be 16384 MB (Table 2)")
	}
	if Cassandra().HeapMB != 8192 {
		t.Error("Cassandra heap must be 8192 MB (Table 2)")
	}
}

func TestAllProfilesValidate(t *testing.T) {
	var all []Profile
	all = append(all, Table1Benchmarks()...)
	for _, sz := range []DataSize{SizeSmall, SizeLarge, SizeHuge} {
		all = append(all, Kmeans(sz), Wordcount(sz), Pagerank(sz))
	}
	all = append(all, Cassandra())
	for _, p := range all {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestHeapConfigLayout(t *testing.T) {
	p := Lusearch()
	cfg := p.HeapConfig()
	total := int64(p.HeapMB) * p.ScalePerMB
	young := cfg.EdenBytes + 2*cfg.SurvivorBytes
	if young > total/3+cfg.SurvivorBytes {
		t.Errorf("young gen %d exceeds 1/3 of heap %d", young, total)
	}
	if cfg.EdenBytes <= 0 || cfg.OldBytes < total/2 {
		t.Errorf("layout wrong: %+v", cfg)
	}
	// Sweeps scale linearly with the requested real size.
	small := p.HeapConfigMB(30)
	if small.EdenBytes*3 != cfg.EdenBytes {
		t.Errorf("30MB eden %d vs 90MB eden %d: want exact 1:3", small.EdenBytes, cfg.EdenBytes)
	}
}

func TestDaCapoAndSPECLists(t *testing.T) {
	if len(DaCapo()) != 5 || len(SPECjvm()) != 5 || len(Table1Benchmarks()) != 10 {
		t.Fatal("suite lists wrong length")
	}
	for _, p := range DaCapo() {
		if p.Suite != "DaCapo" {
			t.Errorf("%s suite = %q", p.Name, p.Suite)
		}
		if p.HeapMB != 3*p.MinHeapMB {
			t.Errorf("%s heap %d != 3x min %d (§5.1)", p.Name, p.HeapMB, p.MinHeapMB)
		}
	}
}

func TestDataSizesScaleWork(t *testing.T) {
	s, l, h := Kmeans(SizeSmall), Kmeans(SizeLarge), Kmeans(SizeHuge)
	if !(s.TotalItems < l.TotalItems && l.TotalItems < h.TotalItems) {
		t.Error("data sizes must scale TotalItems")
	}
	if !(s.PhaseCacheFrac < l.PhaseCacheFrac && l.PhaseCacheFrac < h.PhaseCacheFrac) {
		t.Error("data sizes must scale cached RDD fraction")
	}
	if SizeSmall.String() != "small" || SizeHuge.String() != "huge" {
		t.Error("DataSize strings wrong")
	}
}

func TestPagerankHugeIsOvercommitted(t *testing.T) {
	p := Pagerank(SizeHuge)
	if p.PhaseCacheFrac < 0.9 {
		t.Errorf("pagerank(huge) cache frac %.2f; must overcommit the old gen to OOM", p.PhaseCacheFrac)
	}
	if p.PhaseDropFrac > 0.1 {
		t.Error("pagerank(huge) must not evict its cache")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"lusearch", "xml.validation", "cassandra", "kmeans", "wordcount", "pagerank", "kmeans(huge)"} {
		p, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if !strings.HasPrefix(p.Name, strings.Split(name, "(")[0]) {
			t.Errorf("ByName(%q) returned %q", name, p.Name)
		}
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("ByName accepted an unknown benchmark")
	}
}

// ByName must resolve every name of the full profile table — the ten
// Table-1 programs, each HiBench job at each size, Cassandra — to exactly
// that table's entry, give bare HiBench names the large size, reject
// anything else, and hand out values that do not alias each other.
func TestByNameMatchesTable(t *testing.T) {
	table := append(Table1Benchmarks(),
		Kmeans(SizeSmall), Kmeans(SizeLarge), Kmeans(SizeHuge),
		Wordcount(SizeSmall), Wordcount(SizeLarge), Wordcount(SizeHuge),
		Pagerank(SizeSmall), Pagerank(SizeLarge), Pagerank(SizeHuge),
		Cassandra(),
	)
	if len(table) != 20 {
		t.Fatalf("table has %d profiles, want 20", len(table))
	}
	want := map[string]Profile{
		"kmeans":    Kmeans(SizeLarge),
		"wordcount": Wordcount(SizeLarge),
		"pagerank":  Pagerank(SizeLarge),
	}
	for _, p := range table {
		want[p.Name] = p
	}
	for name, p := range want {
		got, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, p) {
			t.Errorf("ByName(%q) = %+v, want %+v", name, got, p)
		}
	}
	for _, name := range []string{"nonesuch", "", "Lusearch", "lusearch(small)",
		"kmeans(", "kmeans()", "kmeans(medium)", "kmeans(large", "kmeans(large)x",
		"cassandra(large)", "pagerank(DataSize(3))"} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) accepted an unknown benchmark", name)
		}
	}
	a, _ := ByName("lusearch")
	a.TotalItems = 1
	if b, _ := ByName("lusearch"); b.TotalItems == 1 {
		t.Error("an edit to one ByName result leaked into the next")
	}
}

func TestServerProfileShape(t *testing.T) {
	c := Cassandra()
	if c.Class != Server {
		t.Error("cassandra must be a server profile")
	}
	if c.ServiceCompute <= 0 || c.ServiceClusters <= 0 {
		t.Error("cassandra service parameters missing")
	}
}

func TestValidateCatchesBrokenProfiles(t *testing.T) {
	p := Lusearch()
	p.SerialFrac = 2
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted SerialFrac=2")
	}
	p = Lusearch()
	p.TotalItems = 0
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted a batch profile without items")
	}
	p = Cassandra()
	p.ServiceCompute = 0
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted a server profile without service compute")
	}
}
