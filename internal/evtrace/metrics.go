package evtrace

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// This file is the unified metrics registry: a rendering of finished
// results under one dotted-name namespace. Callers fill a fresh Registry
// from values that are already final (a run's jvm.Result, the service's
// counters at scrape time) and render it as a flat metric list, a
// Prometheus exposition or an aligned listing. Nothing writes to a
// registry while a simulation runs.

// Counter is an int64 metric.
type Counter struct{ v int64 }

// Set overwrites the counter.
func (c *Counter) Set(v int64) { c.v = v }

// Gauge is an instantaneous float64 metric.
type Gauge struct{ v float64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.v = v }

// Metric is one named value of a rendered registry.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Registry holds named counters, gauges and summaries. Names are
// conventionally dotted paths ("jmutex.fast_acquires",
// "taskq.steal_failures", "gc.copied_bytes").
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*stats.Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*stats.Histogram),
	}
}

// Counter returns (creating if needed) the counter with the given name.
func (r *Registry) Counter(name string) *Counter {
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge with the given name.
func (r *Registry) Gauge(name string) *Gauge {
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// SetFields sets the counter prefix.<name> for every signed integer
// field of the struct v (or *v), where name is the field's json tag.
// Fields tagged "-" and fields of any other kind are skipped; a signed
// integer field with no tag panics, so a counter added to a stats struct
// cannot go unpublished unnoticed. The tag is used whole: no options.
func (r *Registry) SetFields(prefix string, v any) {
	rv := reflect.Indirect(reflect.ValueOf(v))
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Type().Field(i)
		name := f.Tag.Get("json")
		if name == "-" || !rv.Field(i).CanInt() {
			continue
		}
		if name == "" {
			panic(fmt.Sprintf("evtrace: %s.%s is an integer field with no json tag", rv.Type(), f.Name))
		}
		r.Counter(prefix + "." + name).Set(rv.Field(i).Int())
	}
}

// Summary registers the live histogram h under name. The registry reads
// h each time it renders, so later samples show in later renderings.
func (r *Registry) Summary(name string, h *stats.Histogram) {
	r.hists[name] = h
}

// Current returns every metric sorted by name. Metrics are collected into
// one list and sorted by (name, kind) with counters before gauges before
// summary expansions, so any metrics sharing one name have a
// deterministic order; the former sort.Slice over map-iteration output
// left that tie to the map's iteration order, which leaked into JSON
// exports (and any digest over them) as run-to-run byte differences.
// Summaries expand into five derived values each: <name>.p50, .p95, .p99
// (stats.Histogram's nearest-rank percentiles), .count and .sum, so
// quantiles stay enumerable through the same flat Metric interface the
// JSON consumers already parse.
func (r *Registry) Current() []Metric {
	type entry struct {
		Metric
		rank int // counter=0, gauge=1, summary expansion=2
	}
	ents := make([]entry, 0, len(r.counters)+len(r.gauges)+5*len(r.hists))
	for name, c := range r.counters {
		ents = append(ents, entry{Metric{Name: name, Value: float64(c.v)}, 0})
	}
	for name, g := range r.gauges {
		ents = append(ents, entry{Metric{Name: name, Value: g.v}, 1})
	}
	for name, h := range r.hists {
		ents = append(ents,
			entry{Metric{Name: name + ".p50", Value: h.Percentile(50)}, 2},
			entry{Metric{Name: name + ".p95", Value: h.Percentile(95)}, 2},
			entry{Metric{Name: name + ".p99", Value: h.Percentile(99)}, 2},
			entry{Metric{Name: name + ".count", Value: float64(h.N())}, 2},
			entry{Metric{Name: name + ".sum", Value: h.Sum()}, 2})
	}
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].Name != ents[j].Name {
			return ents[i].Name < ents[j].Name
		}
		return ents[i].rank < ents[j].rank
	})
	out := make([]Metric, len(ents))
	for i, e := range ents {
		out[i] = e.Metric
	}
	return out
}

// promName sanitizes a dotted registry name into the Prometheus metric
// name charset [a-zA-Z0-9_:].
func promName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
			r >= '0' && r <= '9', r == '_', r == ':':
			return r
		}
		return '_'
	}, name)
}

// promValue formats a float the way the Prometheus text format expects;
// FormatFloat 'g' with precision -1 round-trips exactly, so repeated
// expositions of unchanged state are byte-identical.
func promValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples with a
// TYPE line, histograms as summaries with quantile labels plus _sum and
// _count series. Families are emitted in sorted name order (counters
// before gauges before summaries on a name tie), so the exposition is
// deterministic and repeat-scrape byte-identical for unchanged state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	type family struct {
		name string
		rank int
		emit func() error
	}
	fams := make([]family, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		n, v := promName(name), float64(c.v)
		fams = append(fams, family{name, 0, func() error {
			_, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %s\n", n, n, promValue(v))
			return err
		}})
	}
	for name, g := range r.gauges {
		n, v := promName(name), g.v
		fams = append(fams, family{name, 1, func() error {
			_, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", n, n, promValue(v))
			return err
		}})
	}
	for name, h := range r.hists {
		n, h := promName(name), h
		fams = append(fams, family{name, 2, func() error {
			_, err := fmt.Fprintf(w,
				"# TYPE %s summary\n%s{quantile=\"0.5\"} %s\n%s{quantile=\"0.95\"} %s\n%s{quantile=\"0.99\"} %s\n%s_sum %s\n%s_count %d\n",
				n,
				n, promValue(h.Percentile(50)),
				n, promValue(h.Percentile(95)),
				n, promValue(h.Percentile(99)),
				n, promValue(h.Sum()),
				n, h.N())
			return err
		}})
	}
	sort.Slice(fams, func(i, j int) bool {
		if fams[i].name != fams[j].name {
			return fams[i].name < fams[j].name
		}
		return fams[i].rank < fams[j].rank
	})
	for _, f := range fams {
		if err := f.emit(); err != nil {
			return err
		}
	}
	return nil
}

// Render renders the current values as an aligned two-column listing.
func (r *Registry) Render(w io.Writer) {
	vals := r.Current()
	width := 0
	for _, m := range vals {
		if len(m.Name) > width {
			width = len(m.Name)
		}
	}
	for _, m := range vals {
		if m.Value == float64(int64(m.Value)) {
			fmt.Fprintf(w, "%-*s %d\n", width, m.Name, int64(m.Value))
		} else {
			fmt.Fprintf(w, "%-*s %.3f\n", width, m.Name, m.Value)
		}
	}
}
