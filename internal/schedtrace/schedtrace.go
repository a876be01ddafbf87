// Package schedtrace records per-core run segments from the evtrace bus
// and renders them as ASCII timelines — cores down the side, time across —
// so scheduling phenomena like the paper's GC thread stacking are visible
// at a glance:
//
//	cpu00 |MMMMMMMMMM----GGGGGGGGGGGGGGGGGGGGGG----MMMMMMMMM|
//	cpu01 |MMMMMMMMMM----------------G-------------MMMMMMMMM|
//	cpu02 |MMMMMMMMMM------------------------------MMMMMMMMM|
//	        ^ mutators stop        ^ one core does all GC work
//
// Threads are classified by name: G = GC thread, V = VM thread,
// M = mutator, B = busy loop, o = other; '-' is idle.
package schedtrace

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/evtrace"
	"repro/internal/pscavenge"
	"repro/internal/simkit"
)

// Segment is one contiguous stretch of a thread running on a core.
type Segment struct {
	Core  int32
	TID   int32
	Name  string // thread name
	Start simkit.Time
	End   simkit.Time
}

// Recorder rebuilds the per-core run segments from a tracer's cfs events:
// a dispatch pop (KRunqPop with Arg2 == 0) opens a segment on its core and
// that core's next KDispatch span closes it. It subscribes to those two
// kinds and sees every one of them, so ring drops never cost it a segment.
// The zero value is ready to Attach.
type Recorder struct {
	segs []Segment
	open []int // core -> index+1 of its open segment (0 = none)
	tr   *evtrace.Tracer
}

// Attach subscribes r to t's KRunqPop and KDispatch events. Attach before
// the machine is built so the recorder sees the run from its first
// dispatch.
func (r *Recorder) Attach(t *evtrace.Tracer) {
	r.tr = t
	t.SubscribeKinds(r.observe, evtrace.KRunqPop, evtrace.KDispatch)
}

func (r *Recorder) observe(e evtrace.Event) {
	switch e.Kind {
	case evtrace.KRunqPop:
		if e.Arg2 != 0 {
			return // a migration removal, not a dispatch
		}
		for int(e.Core) >= len(r.open) {
			r.open = append(r.open, 0)
		}
		r.segs = append(r.segs, Segment{Core: e.Core, TID: e.TID, Name: e.Name, Start: simkit.Time(e.At), End: -1})
		r.open[e.Core] = len(r.segs)
	case evtrace.KDispatch:
		if int(e.Core) < len(r.open) && r.open[e.Core] > 0 {
			r.segs[r.open[e.Core]-1].End = simkit.Time(e.At + e.Dur)
			r.open[e.Core] = 0
		}
	}
}

// Segments returns a copy of every recorded segment in dispatch order.
// Segments still open end at the last instant on the bus (Tracer.Last) —
// on a jvm machine, the simulation's final time.
func (r *Recorder) Segments() []Segment {
	out := append([]Segment(nil), r.segs...)
	for _, i := range r.open {
		if i > 0 {
			out[i-1].End = simkit.Time(r.tr.Last())
		}
	}
	return out
}

// Window returns the segments overlapping [from, to), clipped to the
// window: starts are clamped to from and ends to to. An empty or inverted
// window returns nil, as do segments that clip to zero length, so callers
// can sum returned durations without re-clamping.
func (r *Recorder) Window(from, to simkit.Time) []Segment {
	if to <= from {
		return nil
	}
	var out []Segment
	for _, s := range r.Segments() {
		s.Start = max(s.Start, from)
		s.End = min(s.End, to)
		if s.Start < s.End {
			out = append(out, s)
		}
	}
	return out
}

// classes are the timeline classes in tie-break precedence: when two
// classes ran equally long in one column, the earlier one is drawn.
const classes = "GVMBo"

// Classify maps a thread name to its timeline rune.
func Classify(name string) byte {
	switch {
	case strings.HasPrefix(name, "GCTaskThread"):
		return 'G'
	case strings.HasPrefix(name, "VMThread"):
		return 'V'
	case strings.HasPrefix(name, "mutator"):
		return 'M'
	case strings.HasPrefix(name, "busyloop"):
		return 'B'
	default:
		return 'o'
	}
}

// Options configure rendering.
type Options struct {
	// Width is the number of time buckets (default 100).
	Width int
	// Legend appends the classification legend.
	Legend bool
}

// Render writes an ASCII timeline of r over [from, to) to w, one row per
// core. Each bucket shows the class of the thread that ran longest in it,
// ties going to the class first in "GVMBo".
func Render(w io.Writer, r *Recorder, cores int, from, to simkit.Time, opt Options) {
	width := opt.Width
	if width <= 0 {
		width = 100
	}
	if to <= from {
		fmt.Fprintln(w, "(empty trace window)")
		return
	}
	bucket := (to - from) / simkit.Time(width)
	if bucket <= 0 {
		bucket = 1
	}
	// rows[core][bucket][class] -> accumulated run time.
	rows := make([][][len(classes)]simkit.Time, cores)
	for c := range rows {
		rows[c] = make([][len(classes)]simkit.Time, width)
	}
	for _, s := range r.Window(from, to) {
		core := int(s.Core)
		if core < 0 || core >= cores {
			continue
		}
		cls := strings.IndexByte(classes, Classify(s.Name))
		for t := s.Start; t < s.End; {
			bi := int((t - from) / bucket)
			if bi >= width {
				break
			}
			bEnd := min(from+simkit.Time(bi+1)*bucket, s.End)
			rows[core][bi][cls] += bEnd - t
			t = bEnd
		}
	}
	fmt.Fprintf(w, "time %v .. %v (%v per column)\n", from, to, bucket)
	for c := 0; c < cores; c++ {
		var b strings.Builder
		for bi := 0; bi < width; bi++ {
			ch := byte('-')
			var best simkit.Time
			for cls, d := range rows[c][bi] {
				if d > best {
					best, ch = d, classes[cls]
				}
			}
			b.WriteByte(ch)
		}
		fmt.Fprintf(w, "cpu%02d |%s|\n", c, b.String())
	}
	if opt.Legend {
		fmt.Fprintln(w, "legend: G=GC thread  V=VM thread  M=mutator  B=busy loop  o=other  -=idle")
	}
}

// RenderMidGC writes a header naming the run's middle collection, then the
// 100-column timeline around it, padded by a quarter of its pause on each
// side — the stacked vanilla collection and the spread optimized one are
// plainly visible. title prefixes the header. It fails when reports is
// empty.
func RenderMidGC(w io.Writer, r *Recorder, cores int, reports []*pscavenge.GCReport, title string) error {
	if len(reports) == 0 {
		return errors.New("no collections recorded")
	}
	rep := reports[len(reports)/2]
	pad := rep.Pause() / 4
	from, to := max(rep.Start-pad, 0), rep.End+pad
	fmt.Fprintf(w, "%s: GC #%d %s, pause %v, %d cores used\n",
		title, rep.Seq, rep.Kind, rep.Pause(), rep.CoresUsed())
	Render(w, r, cores, from, to, Options{Width: 100, Legend: true})
	return nil
}
