package bench

import (
	"context"
	"fmt"
	"time"

	"ps2stream/internal/core"
	"ps2stream/internal/model"
	"ps2stream/internal/workload"
)

// datasets returns the two evaluation corpora.
func datasets() []workload.DatasetSpec {
	return []workload.DatasetSpec{workload.TweetsUS(), workload.TweetsUK()}
}

// throughputTable sweeps builders × datasets at one query family.
func throughputTable(title string, builders []string, kind workload.QueryKind, sc Scale, mu int) []Table {
	t := Table{
		Title:  title,
		Header: []string{"dataset", "strategy", "throughput(tuples/s)"},
	}
	for _, spec := range datasets() {
		for _, b := range builders {
			tp, err := measureThroughput(spec, kind, b, sc, sc.Workers, mu)
			if err != nil {
				t.Rows = append(t.Rows, []string{spec.Name, b, "ERR: " + err.Error()})
				continue
			}
			t.Rows = append(t.Rows, []string{spec.Name, b, f0(tp)})
		}
	}
	return []Table{t}
}

// headToHead are the finalists compared against hybrid in §VI-C.
var headToHead = []string{"metric", "kdtree", "hybrid"}

// Fig7Throughput reproduces Figure 7(a–c): Metric vs kd-tree vs Hybrid
// throughput on Q1, Q2 and Q3.
func Fig7Throughput(sc Scale) []Table {
	sc = sc.orDefault()
	var out []Table
	for _, fam := range []struct {
		kind workload.QueryKind
		mu   int
		sub  string
	}{
		{workload.Q1, sc.Mu1, "(a) Q1, mu~5M(scaled)"},
		{workload.Q2, sc.Mu2(), "(b) Q2, mu~10M(scaled)"},
		{workload.Q3, sc.Mu2(), "(c) Q3, mu~10M(scaled)"},
	} {
		out = append(out, throughputTable("Figure 7"+fam.sub, headToHead, fam.kind, sc, fam.mu)...)
	}
	return out
}

// Fig8Latency reproduces Figure 8(a–c): mean tuple latency at a moderate
// input rate.
func Fig8Latency(sc Scale) []Table {
	sc = sc.orDefault()
	var out []Table
	for _, fam := range []struct {
		kind workload.QueryKind
		mu   int
		sub  string
	}{
		{workload.Q1, sc.Mu1, "(a) Q1"},
		{workload.Q2, sc.Mu2(), "(b) Q2"},
		{workload.Q3, sc.Mu2(), "(c) Q3"},
	} {
		t := Table{
			Title:  "Figure 8" + fam.sub + ": latency at moderate input rate",
			Header: []string{"dataset", "strategy", "mean latency"},
		}
		for _, spec := range datasets() {
			for _, b := range headToHead {
				lat, err := measureLatency(spec, fam.kind, b, sc, sc.Workers, fam.mu)
				if err != nil {
					t.Rows = append(t.Rows, []string{spec.Name, b, "ERR: " + err.Error()})
					continue
				}
				t.Rows = append(t.Rows, []string{spec.Name, b, ms(lat)})
			}
		}
		out = append(out, t)
	}
	return out
}

// memoryTables runs the Figure 9/10 sweeps.
func memoryTables(sc Scale, dispatcher bool) []Table {
	var out []Table
	for _, fam := range []struct {
		kind workload.QueryKind
		mu   int
		sub  string
	}{
		{workload.Q1, sc.Mu1, "(a) Q1"},
		{workload.Q2, sc.Mu2(), "(b) Q2"},
		{workload.Q3, sc.Mu2(), "(c) Q3"},
	} {
		var title, col string
		if dispatcher {
			title = "Figure 9" + fam.sub + ": dispatcher memory"
			col = "dispatcher bytes"
		} else {
			title = "Figure 10" + fam.sub + ": worker memory"
			col = "avg worker bytes"
		}
		t := Table{Title: title, Header: []string{"dataset", "strategy", col}}
		for _, spec := range datasets() {
			for _, b := range headToHead {
				db, wb, err := measureMemory(spec, fam.kind, b, sc, sc.Workers, fam.mu)
				if err != nil {
					t.Rows = append(t.Rows, []string{spec.Name, b, "ERR: " + err.Error()})
					continue
				}
				v := db
				if !dispatcher {
					v = wb
				}
				t.Rows = append(t.Rows, []string{spec.Name, b, fmt.Sprintf("%d", v)})
			}
		}
		out = append(out, t)
	}
	return out
}

// Fig9DispatcherMemory reproduces Figure 9(a–c).
func Fig9DispatcherMemory(sc Scale) []Table {
	return memoryTables(sc.orDefault(), true)
}

// Fig10WorkerMemory reproduces Figure 10(a–c).
func Fig10WorkerMemory(sc Scale) []Table {
	return memoryTables(sc.orDefault(), false)
}

// Fig11Scalability reproduces Figure 11(a–c): throughput as workers grow.
// A single box cannot add physical cores per worker, so this experiment
// uses the load-model estimator (see modelThroughput) — the strategies'
// relative scaling and crossovers are preserved.
func Fig11Scalability(sc Scale) []Table {
	sc = sc.orDefault()
	spec := workload.TweetsUK()
	workerCounts := []int{8, 12, 16, 20, 24}
	var out []Table
	for _, fam := range []struct {
		kind workload.QueryKind
		mu   int
		sub  string
	}{
		{workload.Q1, sc.Mu2(), "(a) STS-UK-Q1, mu~10M(scaled)"},
		{workload.Q2, 4 * sc.Mu1, "(b) STS-UK-Q2, mu~20M(scaled)"},
		{workload.Q3, 4 * sc.Mu1, "(c) STS-UK-Q3, mu~20M(scaled)"},
	} {
		t := Table{
			Title:  "Figure 11" + fam.sub + ": scalability (model estimate)",
			Header: append([]string{"strategy"}, workerHeaders(workerCounts)...),
		}
		for _, b := range headToHead {
			row := []string{b}
			for _, w := range workerCounts {
				tp, err := modelThroughput(spec, fam.kind, b, sc, w, fam.mu)
				if err != nil {
					row = append(row, "ERR")
					continue
				}
				row = append(row, f0(tp))
			}
			t.Rows = append(t.Rows, row)
		}
		out = append(out, t)
	}
	return out
}

func workerHeaders(ws []int) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = fmt.Sprintf("w=%d", w)
	}
	return out
}

// Fig16AdjustEffect reproduces Figure 16: system throughput with and
// without dynamic load adjustment under the drifting Q3 workload (every
// interval, 10% of the regions switch between Q1 and Q2 behaviour).
func Fig16AdjustEffect(sc Scale) []Table {
	sc = sc.orDefault()
	t := Table{
		Title:  "Figure 16: effect of dynamic load adjustments (STS-US-Q3 drift)",
		Header: []string{"mode", "throughput(tuples/s)"},
	}
	for _, mode := range []struct {
		name   string
		adjust bool
	}{
		{"NoAdjust", false},
		{"Adjust", true},
	} {
		tp, err := fig16Run(sc, mode.adjust)
		if err != nil {
			t.Rows = append(t.Rows, []string{mode.name, "ERR: " + err.Error()})
			continue
		}
		t.Rows = append(t.Rows, []string{mode.name, f0(tp)})
	}
	return []Table{t}
}

func fig16Run(sc Scale, adjust bool) (float64, error) {
	spec := workload.TweetsUS()
	mu := sc.Mu1
	var acfg core.AdjustConfig
	if adjust {
		acfg = core.AdjustConfig{
			Enabled:      true,
			Sigma:        1.25,
			Interval:     50 * time.Millisecond,
			MinWindowOps: 128,
		}
	}
	sys, st, err := buildSystem(spec, workload.Q3, "hybrid", sc, sc.Workers, mu, acfg)
	if err != nil {
		return 0, err
	}
	if err := sys.Start(context.Background()); err != nil {
		return 0, err
	}
	warm := st.Prewarm(mu)
	sys.SubmitAll(warm)
	waitProcessed(sys, int64(len(warm)))

	// Drift: flip 10% of the regions every mu/5 inserted queries, and
	// concentrate objects in the currently-Q1 half of the space so the
	// load actually shifts.
	flipEvery := mu / 5
	if flipEvery < 1 {
		flipEvery = 1
	}
	inserts := 0
	t0 := time.Now()
	for i := 0; i < sc.Ops; i++ {
		op := st.Next()
		if op.Kind == model.OpInsert {
			inserts++
			if inserts%flipEvery == 0 {
				st.QueryGen().FlipRegions(0.1)
			}
		}
		sys.Submit(op)
	}
	waitProcessed(sys, int64(len(warm)+sc.Ops))
	el := time.Since(t0)
	if err := sys.Close(); err != nil {
		return 0, err
	}
	return float64(sc.Ops) / el.Seconds(), nil
}
