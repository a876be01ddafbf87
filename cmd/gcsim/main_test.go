package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/evtrace"
)

// run drives realMain and returns its exit code, stdout and stderr.
func run(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := realMain(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// -timeline renders and then carries on: the report and the checker's
// verdict follow the timeline, and the exit code is the normal one.
func TestTimelineKeepsOtherOutputs(t *testing.T) {
	code, out, errOut := run(t, "-bench", "lusearch", "-mutators", "8", "-gcthreads", "4", "-timeline", "-check")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	legend := strings.Index(out, "legend:")
	rep := strings.Index(out, "[none] lusearch:")
	verdict := strings.Index(out, "\ncheck: ")
	if legend < 0 || rep < 0 || verdict < 0 {
		t.Fatalf("want timeline, report and check verdict; got:\n%s", out)
	}
	if !(legend < rep && rep < verdict) {
		t.Errorf("order: timeline legend at %d, report at %d, verdict at %d; want that order", legend, rep, verdict)
	}
	if !strings.Contains(out, " 0 violation(s)") {
		t.Errorf("checker verdict not clean:\n%s", out[verdict:])
	}
}

// Every flag the chosen mode would not honour is a usage error that names
// the flag, and nothing runs.
func TestUnhonouredFlagsExit2(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-compare", "-check", "-metrics"}, "-check"},
		{[]string{"-compare", "-metrics"}, "-metrics"},
		{[]string{"-compare", "-gcjson", filepath.Join(dir, "g.json")}, "-gcjson"},
		{[]string{"-compare", "-timeline"}, "-timeline"},
		{[]string{"-compare", "-evtrace", filepath.Join(dir, "t.json")}, "-evtrace"},
		{[]string{"-compare", "-evtrace-cap", "5"}, "-evtrace-cap"},
		{[]string{"-evtrace-cap", "5"}, "-evtrace-cap"},
		{[]string{"-evtrace-cap", strconv.Itoa(evtrace.DefaultSinkCap)}, "-evtrace-cap"},
		{[]string{"-evtrace-cap", "5", "-postmortem"}, "-evtrace-cap"},
		{[]string{"-compare", "-lockprofile"}, "-lockprofile"},
		{[]string{"-compare", "-postmortem"}, "-postmortem"},
		{[]string{"-compare", "-postmortem-json", filepath.Join(dir, "p.json")}, "-postmortem-json"},
		{[]string{"-compare", "-postmortem-trace", filepath.Join(dir, "w.json")}, "-postmortem-trace"},
		{[]string{"-compare", "-opt", "all"}, "-opt"},
		{[]string{"-compare", "-runs", "3", "-check"}, "-check"},
		{[]string{"-compare", "-runs", "3", "-gclog"}, "-gclog"},
		{[]string{"-runs", "3"}, "-runs"},
		{[]string{"-runs", "3", "-metrics"}, "-runs"},
		{[]string{"-compare", "-runs", "0"}, "-runs"},
	} {
		code, out, errOut := run(t, c.args...)
		if code != 2 || out != "" || !strings.Contains(errOut, c.flag+" ") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, no output, stderr naming %s",
				c.args, code, out, errOut, c.flag)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("a rejected run wrote %d file(s)", len(entries))
	}
}

// -evtrace-cap sizes the rings of -evtrace: a small cap drops events and
// the run says so.
func TestEvtraceCapSizesRings(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	code, out, errOut := run(t, "-bench", "lusearch", "-mutators", "8", "-evtrace", path, "-evtrace-cap", "64")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !strings.Contains(out, "raise -evtrace-cap") {
		t.Errorf("a 64-event ring reported no drops:\n%s", out)
	}
}

// -compare alone, and with -gclog, still runs both configurations.
func TestCompareRuns(t *testing.T) {
	code, out, errOut := run(t, "-bench", "lusearch", "-mutators", "8", "-compare", "-gclog")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	for _, want := range []string{"[vanilla] lusearch:", "[optimized] lusearch:", "improvement: total"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// -metrics and -gcjson publish the run-end counters: the same values the
// report line and the -gcjson monitor and steal sections print.
func TestMetricsAreRunEndValues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	code, out, errOut := run(t, "-bench", "lusearch", "-metrics", "-gcjson", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	m := regexp.MustCompile(`steals: (\d+) attempts.*monitor: (\d+) fast, (\d+) slow, (\d+) owner-reacquires`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no steal/monitor report line:\n%s", out)
	}
	printed := map[string]string{}
	for _, line := range strings.Split(out[strings.Index(out, "metrics:\n"):], "\n")[1:] {
		if f := strings.Fields(line); len(f) == 2 {
			printed[f[0]] = f[1]
		}
	}
	for name, want := range map[string]string{
		"taskq.steal_attempts":    m[1],
		"jmutex.fast_acquires":    m[2],
		"jmutex.slow_acquires":    m[3],
		"jmutex.owner_reacquires": m[4],
	} {
		if printed[name] != want {
			t.Errorf("-metrics %s = %q, report says %s", name, printed[name], want)
		}
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Collections []json.RawMessage `json:"collections"`
		Monitor     map[string]int64  `json:"monitor"`
		Steal       map[string]any    `json:"steal"`
		Metrics     []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	metrics := map[string]float64{}
	for _, mv := range doc.Metrics {
		metrics[mv.Name] = mv.Value
		if printed[mv.Name] == "" {
			t.Errorf("-gcjson metric %s missing from -metrics", mv.Name)
		}
	}
	for _, name := range []string{"fast_acquires", "slow_acquires", "owner_reacquires", "bypasses", "handoffs", "park_events"} {
		if got, want := metrics["jmutex."+name], float64(doc.Monitor[name]); got != want {
			t.Errorf("-gcjson metric jmutex.%s = %v, monitor section says %v", name, got, want)
		}
	}
	if got, want := metrics["taskq.steal_attempts"], doc.Steal["attempts"]; got != want {
		t.Errorf("-gcjson taskq.steal_attempts = %v, steal section says %v", got, want)
	}
	if got := metrics["gc.collections"]; got != float64(len(doc.Collections)) {
		t.Errorf("-gcjson gc.collections = %v, %d collections logged", got, len(doc.Collections))
	}
	if n, _ := strconv.Atoi(printed["gc.collections"]); n != len(doc.Collections) {
		t.Errorf("-metrics gc.collections = %q, %d collections logged", printed["gc.collections"], len(doc.Collections))
	}
}
