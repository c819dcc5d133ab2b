package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchmarkJSON is the part of BENCHMARK.json that -compare and the
// tests read.
type benchmarkJSON struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is how the driver takes a metric's spread.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// side is one report's view of one metric on one workload.
type side struct {
	median float64
	spread float64 // (q3-q1)/median; NaN with fewer than four runs
	n      int
}

func sideOf(runs []*workloadResult, metric string) side {
	var vals []float64
	for _, r := range runs {
		if v, ok := r.EndToEnd[metric]; ok {
			vals = append(vals, v.Value)
		}
	}
	s := side{median: median(vals), spread: math.NaN(), n: len(vals)}
	if len(vals) >= 4 {
		q1, q3 := quartiles(vals)
		s.spread = (q3 - q1) / s.median
	}
	return s
}

// comparable refuses two runs whose inputs or load differ: their
// numbers would not be measurements of the same thing.
func comparable(a, b *workloadResult) error {
	switch {
	case a.InputSHA != b.InputSHA:
		return fmt.Errorf("input_sha differs (%s, %s): the generated inputs changed", a.InputSHA, b.InputSHA)
	case a.Seed != b.Seed:
		return fmt.Errorf("seed differs (%d, %d)", a.Seed, b.Seed)
	case a.OpenRate != b.OpenRate:
		return fmt.Errorf("open-loop rate differs (%g, %g)", a.OpenRate, b.OpenRate)
	case a.OpenOps != b.OpenOps || a.SegmentOps != b.SegmentOps || a.Phases != b.Phases:
		return fmt.Errorf("operation counts or phases differ (%d/%d %+v, %d/%d %+v)",
			a.OpenOps, a.SegmentOps, a.Phases, b.OpenOps, b.SegmentOps, b.Phases)
	}
	return nil
}

// verdict judges b against a. The ratio's base is a: a metric is worse
// when b is on the wrong side of a by more than bound × a, and
// unresolved when either report's own runs spread wider than the bound.
func verdict(a, b side, better string, bound float64) (ratio float64, v string) {
	ratio = b.median / a.median
	loss := ratio - 1
	if better == "higher" {
		loss = 1 - ratio
	}
	switch {
	case math.IsNaN(ratio):
		return ratio, "unresolved"
	case a.spread > bound || b.spread > bound:
		return ratio, "unresolved"
	case loss > bound:
		return ratio, "worse"
	}
	return ratio, "ok"
}

func compareReports(files []string, benchPath string) error {
	if len(files) != 2 {
		return fmt.Errorf("-compare takes two report files, got %d", len(files))
	}
	var bj benchmarkJSON
	if err := readJSON(benchPath, &bj); err != nil {
		return err
	}
	var ra, rb report
	if err := readJSON(files[0], &ra); err != nil {
		return err
	}
	if err := readJSON(files[1], &rb); err != nil {
		return err
	}
	fmt.Printf("# a: %s  git %s dirty=%v  %s GOMAXPROCS=%d %q\n", files[0], ra.Provenance.GitHead, ra.Provenance.GitDirty,
		ra.Provenance.GoVersion, ra.Provenance.GOMAXPROCS, ra.Provenance.CPUModel)
	fmt.Printf("# b: %s  git %s dirty=%v  %s GOMAXPROCS=%d %q\n", files[1], rb.Provenance.GitHead, rb.Provenance.GitDirty,
		rb.Provenance.GoVersion, rb.Provenance.GOMAXPROCS, rb.Provenance.CPUModel)
	bByName := map[string]reportWorkload{}
	for _, w := range rb.Workloads {
		bByName[w.Name] = w
	}
	bad := 0
	fmt.Printf("%-12s %-15s %14s %14s %9s %6s  %s\n", "workload", "metric", "a (median)", "b (median)", "b/a", "bound", "verdict")
	for _, wa := range ra.Workloads {
		wb, ok := bByName[wa.Name]
		if !ok || len(wa.Runs) == 0 || len(wb.Runs) == 0 {
			return fmt.Errorf("workload %s is missing from one report", wa.Name)
		}
		if err := comparable(wa.Runs[0], wb.Runs[0]); err != nil {
			return fmt.Errorf("refusing to compare %s: %w", wa.Name, err)
		}
		for _, m := range bj.EndToEnd {
			a, b := sideOf(wa.Runs, m.Name), sideOf(wb.Runs, m.Name)
			ratio, v := verdict(a, b, m.Better, m.Bound)
			if v != "ok" {
				bad++
			}
			fmt.Printf("%-12s %-15s %14.6g %14.6g %9.4f %6.2f  %s (n=%d,%d spread %.3f,%.3f)\n",
				wa.Name, m.Name, a.median, b.median, ratio, m.Bound, v, a.n, b.n, a.spread, b.spread)
		}
		for i, r := range append(append([]*workloadResult(nil), wa.Runs...), wb.Runs...) {
			if r.Failed != 0 {
				bad++
				fmt.Printf("%-12s run %d failed_share %g\n", wa.Name, i, r.FailedShare)
			}
		}
		fmt.Printf("%-12s matches_total %d / %d, match_checksum %s / %s\n", wa.Name,
			wa.Runs[0].MatchesTotal, wb.Runs[0].MatchesTotal, wa.Runs[0].MatchChecksum, wb.Runs[0].MatchChecksum)
		// Exact counts are promised on the objects-only workloads; with
		// churn, which dispatcher runs first changes what reaches a worker.
		if spec, _ := findWorkload(wa.Name); spec.ChurnMu == 0 && wa.Traced != nil && wb.Traced != nil {
			for _, d := range perLayer {
				va, vb := wa.Traced.PerLayer[d.Name].Value, wb.Traced.PerLayer[d.Name].Value
				if d.Exact && va != vb {
					fmt.Printf("%-12s exact per-layer count %s differs: %.10g / %.10g\n", wa.Name, d.Name, va, vb)
				}
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) worse, unresolved or failed", bad)
	}
	return nil
}
