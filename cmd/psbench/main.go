// Command psbench runs the paper-reproduction experiments and prints the
// rows/series of the corresponding figures (internal/bench.Experiments
// maps ids to runners; docs/ARCHITECTURE.md, "Evaluation harness", maps
// the harness to the paper).
//
// Usage:
//
//	psbench -list
//	psbench -exp fig7
//	psbench -exp all -quick
//	psbench -exp fig6a -ops 100000 -mu 20000 -workers 8
//
// Compare mode gates a fresh -json report against a committed baseline
// (the CI perf smoke): every throughput and speedup value must reach at
// least (1 - tolerance) × the baseline, or psbench exits non-zero listing
// the regressions:
//
//	psbench -exp batch -quick -json new.json
//	psbench -compare BENCH_batch.json -against new.json -tolerance 0.35
//
// -min-wire-ratio additionally enforces an absolute floor on the
// candidate's wire experiment (tcp row speedup), independent of the
// baseline:
//
//	psbench -compare BENCH_wire.json -against new.json -min-wire-ratio 0.8
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ps2stream/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (fig6a..fig16, abl*) or 'all'")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		quick   = flag.Bool("quick", false, "use the quick (CI) scale")
		wireExp = flag.Bool("wire", false, "place all worker tasks behind loopback TCP where supported (adjust: migrations cross the wire)")
		ops     = flag.Int("ops", 0, "override stream operations per run")
		mu      = flag.Int("mu", 0, "override scaled µ (standing query count)")
		workers = flag.Int("workers", 0, "override worker count")
		seed    = flag.Int64("seed", 0, "override generator seed")
		outDir  = flag.String("out", "", "also write each experiment's tables to <dir>/<id>.txt")
		jsonOut = flag.String("json", "", "also write all experiments' tables to one JSON file")

		compare   = flag.String("compare", "", "baseline report (BENCH_*.json) to gate -against")
		against   = flag.String("against", "", "candidate report compared to -compare")
		tolerance = flag.Float64("tolerance", 0.35, "allowed fractional regression in compare mode")
		minRatio  = flag.Float64("min-wire-ratio", 0, "in compare mode, absolute floor for the candidate's wire tcp/inproc speedup (0 disables)")
	)
	flag.Parse()

	if *compare != "" || *against != "" {
		if *compare == "" || *against == "" {
			fmt.Fprintln(os.Stderr, "psbench: compare mode needs both -compare <baseline> and -against <candidate>")
			os.Exit(2)
		}
		os.Exit(runCompare(*compare, *against, *tolerance, *minRatio))
	}

	if *list {
		for _, id := range bench.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "psbench: -exp required (or -list); e.g. psbench -exp fig7")
		os.Exit(2)
	}
	sc := bench.DefaultScale()
	if *quick {
		sc = bench.QuickScale()
	}
	sc.Wire = *wireExp
	if *ops > 0 {
		sc.Ops = *ops
	}
	if *mu > 0 {
		sc.Mu1 = *mu
	}
	if *workers > 0 {
		sc.Workers = *workers
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	ids := []string{*exp}
	if strings.EqualFold(*exp, "all") {
		ids = bench.ExperimentIDs()
	}
	exps := bench.Experiments()
	var report []bench.ReportExperiment
	for _, id := range ids {
		runner, ok := exps[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "psbench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		tables := runner(sc)
		elapsed := time.Since(start)
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
		if *outDir != "" {
			if err := writeTables(*outDir, id, tables); err != nil {
				fmt.Fprintln(os.Stderr, "psbench:", err)
				os.Exit(1)
			}
		}
		if *jsonOut != "" {
			report = append(report, newJSONExperiment(id, tables, elapsed))
		}
		fmt.Printf("-- %s completed in %v --\n\n", id, elapsed.Round(time.Millisecond))
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, sc, report); err != nil {
			fmt.Fprintln(os.Stderr, "psbench:", err)
			os.Exit(1)
		}
	}
}

// runCompare loads two -json reports and applies the tolerance gate —
// plus, when minRatio > 0, the absolute wire tcp/inproc floor on the
// candidate — returning the process exit code.
func runCompare(basePath, curPath string, tol, minRatio float64) int {
	baseData, err := os.ReadFile(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psbench:", err)
		return 1
	}
	curData, err := os.ReadFile(curPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psbench:", err)
		return 1
	}
	base, err := bench.ParseReport(baseData)
	if err != nil {
		fmt.Fprintf(os.Stderr, "psbench: %s: %v\n", basePath, err)
		return 1
	}
	cur, err := bench.ParseReport(curData)
	if err != nil {
		fmt.Fprintf(os.Stderr, "psbench: %s: %v\n", curPath, err)
		return 1
	}
	regs, n, err := bench.CompareReports(base, cur, tol)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psbench:", err)
		return 1
	}
	if len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "psbench: %d of %d gated metrics regressed beyond %.0f%% of %s:\n",
			len(regs), n, tol*100, basePath)
		for _, r := range regs {
			fmt.Fprintln(os.Stderr, "  "+r.String())
		}
		return 1
	}
	if minRatio > 0 {
		if err := bench.CheckWireRatio(cur, minRatio); err != nil {
			fmt.Fprintln(os.Stderr, "psbench:", err)
			return 1
		}
		fmt.Printf("psbench: wire tcp/inproc ratio meets the %.2f floor\n", minRatio)
	}
	fmt.Printf("psbench: %d gated metrics within %.0f%% of %s\n", n, tol*100, basePath)
	return 0
}

func newJSONExperiment(id string, tables []bench.Table, elapsed time.Duration) bench.ReportExperiment {
	return bench.ReportExperiment{Experiment: id, ElapsedMS: elapsed.Milliseconds(), Tables: tables}
}

func writeJSON(path string, sc bench.Scale, report []bench.ReportExperiment) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(bench.Report{Scale: sc, Experiments: report}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTables persists one experiment's tables as <dir>/<id>.txt.
func writeTables(dir, id string, tables []bench.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".txt"))
	if err != nil {
		return err
	}
	for _, t := range tables {
		t.Fprint(f)
	}
	return f.Close()
}
