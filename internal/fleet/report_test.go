package fleet

import (
	"bytes"
	"strings"
	"testing"
)

// A report with fewer rows than cells says how many it holds, even when
// it holds none; a full report carries no "partial" field.
func TestBuildReportPartial(t *testing.T) {
	encode := func(rep *Report) string {
		var b bytes.Buffer
		if err := rep.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if got := encode(BuildReport(42, 4, 0, true, nil)); !strings.Contains(got, `"partial": 0,`) {
		t.Errorf("sweep drained before any cell finished: no \"partial\": 0 in\n%s", got)
	}
	if got := encode(BuildReport(42, 4, 0, true, []CellRecord{{Index: 0}, {Index: 1}})); !strings.Contains(got, `"partial": 2,`) {
		t.Errorf("sweep drained after two cells: no \"partial\": 2 in\n%s", got)
	}
	if got := encode(BuildReport(42, 1, 0, true, []CellRecord{{Index: 0}})); strings.Contains(got, `"partial"`) {
		t.Errorf("full sweep carries a \"partial\" field:\n%s", got)
	}
}
