package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"
)

// quickSeconds keeps every phase of a test run near two seconds or less.
const quickSeconds = 3

func TestHistQuantilesWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	vals := make([]float64, 200000)
	for i := range vals {
		// Log-normal around 1 ms with a long tail, like a latency.
		v := int64(math.Exp(rng.NormFloat64()*1.2) * 1e6)
		vals[i] = float64(v)
		h.record(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		want := vals[int(math.Ceil(q*float64(len(vals))))-1]
		got := h.quantile(q)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%g) = %g, sorted slice says %g", q, got, want)
		}
	}
	if got, want := h.beyond(0.999), int64(200); got != want {
		t.Errorf("beyond(0.999) = %d, want %d", got, want)
	}
	if h.count() != int64(len(vals)) || float64(h.max.Load()) != vals[len(vals)-1] {
		t.Errorf("count %d max %d, want %d %g", h.count(), h.max.Load(), len(vals), vals[len(vals)-1])
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, both hist
	for v := int64(1); v < 5000; v += 7 {
		a.record(v * 1000)
		both.record(v * 1000)
	}
	for v := int64(3); v < 9000; v += 11 {
		b.record(v * 1000)
		both.record(v * 1000)
	}
	a.merge(&b)
	for _, q := range []float64{0.1, 0.5, 0.9, 1} {
		if a.quantile(q) != both.quantile(q) {
			t.Errorf("merged quantile(%g) = %g, recorded together %g", q, a.quantile(q), both.quantile(q))
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8})
	if q1 != 1.25 || q3 != 7 {
		t.Errorf("quartiles = %g, %g, want 1.25, 7", q1, q3)
	}
}

// TestBenchmarkJSONInStep keeps BENCHMARK.json and the metric tables of
// this package saying the same thing.
func TestBenchmarkJSONInStep(t *testing.T) {
	var bj benchmarkJSON
	if err := readJSON("../BENCHMARK.json", &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) here", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.Name, w.Why)
		}
	}
	same := func(kind string, have []benchMetric, want []metricDef, bounded bool) {
		if len(have) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d here", len(have), kind, len(want))
		}
		for i, d := range want {
			m := have[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, here %s %s %s", kind, i, m, d.Name, d.Unit, d.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd, true)
	same("per_layer", bj.PerLayer, perLayer, false)
}

func TestInputsFollowTheSeed(t *testing.T) {
	for _, name := range []string{"route_heavy", "churn_mixed"} {
		w, _ := findWorkload(name)
		spec := w.quick()
		a, b, c := generate(spec, 5), generate(spec, 5), generate(spec, 6)
		if a.sha != b.sha {
			t.Errorf("%s: the same seed gave two input_sha values", w.Name)
		}
		if a.sha == c.sha {
			t.Errorf("%s: two seeds gave the same input_sha", w.Name)
		}
		if spec.ChurnMu > 0 {
			live := map[int32]bool{}
			for _, q := range a.queryOps {
				if q.insert == live[q.slot] {
					t.Fatalf("%s: slot %d inserted twice or deleted while absent", w.Name, q.slot)
				}
				live[q.slot] = q.insert
			}
			for slot, on := range live {
				if on {
					t.Errorf("%s: slot %d is still live at the end of a pass", w.Name, slot)
				}
			}
		}
	}
}

// TestQuickWorkloads runs all four workloads at a twentieth of their
// size, timed and traced, and expects a clean check and a full set of
// metrics from each.
func TestQuickWorkloads(t *testing.T) {
	for _, w := range workloads {
		spec := w.quick()
		res, err := runWorkload(spec, 2017, runOptions{seconds: quickSeconds}, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 || res.Check.Objects == 0 {
			t.Errorf("%s: failed %d, check %+v", w.Name, res.Failed, res.Check)
		}
		if w.ChurnMu > 0 && res.ChurnMatches == 0 {
			t.Errorf("%s: no delivery to a churning subscription", w.Name)
		}
		for _, d := range endToEnd {
			if v, ok := res.EndToEnd[d.Name]; !ok || !(v.Value > 0) || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v", w.Name, d.Name, v)
			}
		}
		if late := res.SentInS / res.Phases.OpenS; late > 1.01 {
			t.Errorf("%s: the open loop took %.3fs to send %.3fs of load", w.Name, res.SentInS, res.Phases.OpenS)
		}
	}
}

func TestQuickTracedRun(t *testing.T) {
	spec, _ := findWorkload("wire_remote")
	dir := t.TempDir()
	res, err := runWorkload(spec.quick(), 2017, runOptions{seconds: quickSeconds, trace: true, traceDir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("failed %d, check %+v", res.Failed, res.Check)
	}
	for _, d := range perLayer {
		if _, ok := res.PerLayer[d.Name]; !ok {
			t.Errorf("%s is missing", d.Name)
		}
	}
	for _, name := range []string{"wire.bytes_per_op", "wire.encode_ops_ns_op", "node.worker_ns_op", "gi2.match_ns_op", "core.dispatch_busy_share"} {
		if !(res.PerLayer[name].Value > 0) {
			t.Errorf("%s = %g on a workload with remote workers", name, res.PerLayer[name].Value)
		}
	}
	data, err := os.ReadFile(res.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range tf.Spans {
		names[s.Name] = true
		if s.EndNs < s.StartNs || s.Workload != "wire_remote" || s.Parent >= s.ID {
			t.Errorf("bad span %+v", s)
		}
	}
	for _, want := range []string{"run", "setup", "open_loop", "gi2.Index.Match", "node.Worker/objects", "scrape_after_open"} {
		if !names[want] {
			t.Errorf("no span named %q", want)
		}
	}
}

// TestLatencyCountsFromDueTime stalls the sender for 300 ms in the middle
// of the open loop. Timed from the send, the stall would vanish; timed
// from the due time, every message due during it arrives late by what
// was left of it.
func TestLatencyCountsFromDueTime(t *testing.T) {
	spec, _ := findWorkload("match_heavy")
	spec = spec.quick()
	const stall = 300 * time.Millisecond
	stalled := false
	half := uint64(spec.OpenRate * planPhases(quickSeconds, false).OpenS / 2)
	hooks := &testHooks{stall: func(k uint64) {
		if !stalled && k >= half {
			stalled = true
			time.Sleep(stall)
		}
	}}
	res, err := runWorkload(spec, 2017, runOptions{seconds: quickSeconds}, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if !stalled {
		t.Fatal("the stall was never injected")
	}
	if got := res.Detail["lat_max_us"]; got < 0.9*float64(stall.Microseconds()) {
		t.Errorf("largest latency %.0f us hides a %v stall of the sender", got, stall)
	}
	if got := res.Detail["gen_late_max_us"]; got < 0.9*float64(stall.Microseconds()) {
		t.Errorf("generator lateness %.0f us does not report the %v stall", got, stall)
	}
	if got := res.Detail["on_time_share"]; got >= 1 {
		t.Errorf("on_time_share %g: nothing was late after a %v stall against a %d ms limit", got, stall, limitMs)
	}
}

// TestCheckCatchesBrokenDelivery breaks the callback three ways and
// expects the check to say which.
func TestCheckCatchesBrokenDelivery(t *testing.T) {
	spec, _ := findWorkload("match_heavy")
	spec = spec.quick()
	cases := []struct {
		name   string
		tamper func(n *int, d delivery) []delivery
		wrong  func(c checkResult) int64
	}{
		{"dropped", func(n *int, d delivery) []delivery {
			if *n++; *n%3 == 0 {
				return nil
			}
			return []delivery{d}
		}, func(c checkResult) int64 { return c.Missing }},
		{"duplicated", func(n *int, d delivery) []delivery {
			if *n++; *n%3 == 0 {
				return []delivery{d, d}
			}
			return []delivery{d}
		}, func(c checkResult) int64 { return c.Duplicated }},
		{"forged", func(n *int, d delivery) []delivery {
			if *n++; *n%3 == 0 {
				return []delivery{d, {sub: d.sub%uint64(spec.Standing) + 1, msg: d.msg}}
			}
			return []delivery{d}
		}, func(c checkResult) int64 { return c.Spurious }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// One merger's calls are serial, the two mergers' are not: each
			// gets its own counter.
			var n [topoMergers]int
			hooks := &testHooks{tamper: func(d delivery) []delivery { return tc.tamper(&n[mergerOf(d.sub, d.msg)], d) }}
			res, err := runWorkload(spec, 2017, runOptions{seconds: quickSeconds / 2}, hooks)
			if err != nil {
				t.Fatal(err)
			}
			if tc.wrong(res.Check) == 0 || res.Failed == 0 || res.FailedShare == 0 {
				t.Errorf("check %+v, failed %d: a %s delivery went unnoticed", res.Check, res.Failed, tc.name)
			}
		})
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := func(m float64) side { return side{median: m, spread: 0.01, n: 10} }
	cases := []struct {
		a, b   side
		better string
		bound  float64
		want   string
	}{
		{steady(100), steady(105), "lower", 0.10, "ok"},
		{steady(100), steady(111), "lower", 0.10, "worse"},
		{steady(100), steady(80), "lower", 0.10, "ok"},
		{steady(100), steady(95), "higher", 0.10, "ok"},
		{steady(100), steady(89), "higher", 0.10, "worse"},
		{steady(100), side{median: 100, spread: 0.3, n: 10}, "lower", 0.10, "unresolved"},
		{steady(100), side{median: 105, spread: math.NaN(), n: 1}, "lower", 0.10, "ok"},
		{steady(100), side{median: math.NaN(), n: 0}, "lower", 0.10, "unresolved"},
	}
	for i, tc := range cases {
		if _, got := verdict(tc.a, tc.b, tc.better, tc.bound); got != tc.want {
			t.Errorf("case %d: verdict %q, want %q", i, got, tc.want)
		}
	}
	a := &workloadResult{InputSHA: "x", Seed: 1, OpenRate: 10, OpenOps: 5, SegmentOps: 2}
	b := *a
	if err := comparable(a, &b); err != nil {
		t.Errorf("identical runs refused: %v", err)
	}
	b.InputSHA = "y"
	if err := comparable(a, &b); err == nil {
		t.Error("runs with different input_sha were compared")
	}
	b = *a
	b.OpenRate = 11
	if err := comparable(a, &b); err == nil {
		t.Error("runs at different rates were compared")
	}
}
