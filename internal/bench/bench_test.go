package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"ps2stream/internal/workload"
)

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	want := []string{
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig16",
		"ablrate", "adjust", "batch", "obs", "topk", "wire",
	}
	if len(exps) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(exps), len(want))
	}
	for _, id := range want {
		if exps[id] == nil {
			t.Errorf("missing experiment %q", id)
		}
	}
	ids := ExperimentIDs()
	if len(ids) != len(want) {
		t.Fatalf("ExperimentIDs returned %d ids", len(ids))
	}
	// The paper figures come first, in figure order; ablations and
	// extension experiments follow alphabetically.
	for i, id := range []string{
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig16",
		"ablrate", "adjust", "batch", "obs", "topk", "wire",
	} {
		if ids[i] != id {
			t.Errorf("ids[%d] = %q, want %q", i, ids[i], id)
		}
	}
}

func TestTableFprint(t *testing.T) {
	tb := Table{
		Title:  "demo",
		Header: []string{"a", "longer"},
		Rows:   [][]string{{"x", "1"}, {"yyyyy", "2"}},
	}
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "== demo ==") {
		t.Errorf("missing title: %q", out)
	}
	if !strings.Contains(out, "yyyyy") {
		t.Errorf("missing row: %q", out)
	}
}

func TestScaleDefaults(t *testing.T) {
	var s Scale
	d := s.orDefault()
	if d.Workers != 8 || d.Mu1 <= 0 {
		t.Errorf("orDefault = %+v", d)
	}
	if d.Mu2() != 2*d.Mu1 {
		t.Errorf("Mu2 = %d", d.Mu2())
	}
	q := QuickScale()
	if q.Ops >= DefaultScale().Ops {
		t.Error("QuickScale not smaller than DefaultScale")
	}
}

// parseTPS extracts the numeric throughput column, failing on ERR rows.
func parseTPS(t *testing.T, tab Table) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, r := range tab.Rows {
		key := strings.Join(r[:len(r)-1], "/")
		v := r[len(r)-1]
		if strings.HasPrefix(v, "ERR") {
			t.Fatalf("row %v errored: %s", r, v)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("unparseable value %q in %v", v, r)
		}
		out[key] = f
	}
	return out
}

func TestFig11ModelQuick(t *testing.T) {
	sc := QuickScale()
	tabs := Fig11Scalability(sc)
	if len(tabs) != 3 {
		t.Fatalf("got %d tables", len(tabs))
	}
	// Hybrid should not degrade as workers increase (model estimate is
	// monotone for well-behaved strategies).
	for _, tab := range tabs {
		for _, r := range tab.Rows {
			if r[0] != "hybrid" {
				continue
			}
			first, err1 := strconv.ParseFloat(r[1], 64)
			last, err2 := strconv.ParseFloat(r[len(r)-1], 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("unparseable scalability row %v", r)
			}
			if last < first*0.9 {
				t.Errorf("%s: hybrid model throughput shrank %v -> %v", tab.Title, first, last)
			}
		}
	}
}

func TestModelThroughputOrdering(t *testing.T) {
	// On Q1 (frequent keywords), space partitioning must beat text
	// partitioning in the load model.
	sc := QuickScale()
	spec := workload.TweetsUS()
	kd, err := modelThroughput(spec, workload.Q1, "kdtree", sc, 8, sc.Mu1)
	if err != nil {
		t.Fatal(err)
	}
	text, err := modelThroughput(spec, workload.Q1, "metric", sc, 8, sc.Mu1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("model Q1: kdtree=%.0f metric=%.0f", kd, text)
	if kd <= text {
		t.Errorf("kd-tree (%.0f) should beat metric (%.0f) on Q1", kd, text)
	}
}

func TestThroughputMeasurementQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := QuickScale()
	tp, err := measureThroughput(workload.TweetsUS(), workload.Q1, "hybrid", sc, sc.Workers, sc.Mu1)
	if err != nil {
		t.Fatal(err)
	}
	if tp <= 0 {
		t.Errorf("throughput = %v", tp)
	}
	t.Logf("quick hybrid throughput: %.0f tuples/s", tp)
}
