// Command benchmark is the one benchmark of PS2Stream: it generates four
// named workloads from a seed, drives each through the public ps2stream
// API, checks the deliveries, and prints end-to-end metrics (Publish to
// OnMatch latency, capacity, set-up, memory, CPU) or, with -trace 1, a
// per-layer table. See README.md beside this file.
//
//	bash benchmark/run.sh                                  every workload, human-readable, report under benchmark/out/
//	bash benchmark/run.sh -trace 1                         the same plus the traced run of each
//	bash benchmark/run.sh -workload match_heavy -seed 7 -seconds 20 -trace 0
//	                                                       one run; the last line is the result as one JSON object
//	bash benchmark/run.sh -compare a.json b.json           compare two reports against BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 24

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print the result as the last line (default: all four, each in a fresh process)")
		seed         = flag.Int64("seed", 2017, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", defaultSeconds, "seconds one run measures for")
		trace        = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics and a span file")
		quick        = flag.Bool("quick", false, "populations and rates ÷20: for the harness's own tests, not for results")
		inproc       = flag.Bool("inproc", false, "calibration only: run wire_remote's inputs with in-process workers")
		runs         = flag.Int("runs", 1, "all-workloads mode: timed runs per workload; the report keeps every one")
		out          = flag.String("out", filepath.Join("benchmark", "out", "report.json"), "all-workloads mode: where to write the report")
		resultPath   = flag.String("result", "", "also write this run's full result here as JSON (used by the all-workloads mode)")
		compare      = flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
		benchJSON    = flag.String("benchmark-json", "BENCHMARK.json", "where -compare reads the bounds from")
	)
	flag.Parse()
	// Set explicitly and recorded with every result: before Go 1.25 the
	// default ignores a container's CPU quota.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var err error
	switch {
	case *compare:
		err = compareReports(flag.Args(), *benchJSON)
	case *workloadName != "":
		err = runOne(*workloadName, *seed, *seconds, *trace != 0, *quick, *inproc, *resultPath)
	default:
		err = runAll(*seed, *seconds, *trace != 0, *quick, *runs, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// resultLine is the last line of a single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runOne(name string, seed int64, seconds float64, trace, quick, inproc bool, resultPath string) error {
	spec, ok := findWorkload(name)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.Name
		}
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %v", seconds)
	}
	if quick {
		spec = spec.quick()
	}
	if inproc && !spec.Remote {
		return fmt.Errorf("-inproc only applies to a workload with remote workers, not %s", name)
	}
	res, err := runWorkload(spec, seed, runOptions{
		seconds: seconds, trace: trace, inproc: inproc,
		traceDir: filepath.Join("benchmark", "out"),
	}, nil)
	if err != nil {
		return err
	}
	res.Quick = quick
	printResult(os.Stdout, spec, res)
	if resultPath != "" {
		data, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(resultPath, data, 0o644); err != nil {
			return err
		}
	}
	line := resultLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.EndToEnd}
	if trace {
		line.Metrics = res.PerLayer
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if res.Failed != 0 {
		return fmt.Errorf("%s: %d of %d operations or checked deliveries failed (%+v)", name, res.Failed, res.Attempted, res.Check)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printResult prints one run for a reader: a provenance header, the
// check, then every metric by name with its unit.
func printResult(w *os.File, spec workloadSpec, r *workloadResult) {
	fmt.Fprintf(w, "# workload %s\n", spec)
	fmt.Fprintf(w, "# %s GOMAXPROCS=%d nproc=%d seed=%d seconds=%g trace=%v inproc=%v quick=%v\n",
		r.GoVersion, r.GOMAXPROCS, r.NumCPU, r.Seed, r.Seconds, r.Trace, r.Inproc, r.Quick)
	fmt.Fprintf(w, "# phases: %d set-up(s), warm-up %.2fs, closed loop %d x %d ops, open loop %.2fs at %.0f ops/s (%d ops, sent in %.3fs)\n",
		r.Phases.Setups, r.Phases.WarmS, r.Phases.Segments, r.SegmentOps, r.Phases.OpenS, r.OpenRate, r.OpenOps, r.SentInS)
	fmt.Fprintf(w, "# input_sha %s\n", r.InputSHA)
	fmt.Fprintf(w, "# matches_total %d match_checksum %s churn_matches %d\n", r.MatchesTotal, r.MatchChecksum, r.ChurnMatches)
	fmt.Fprintf(w, "# check: %d object copies, %d deliveries expected, %d missing, %d spurious, %d duplicated, %d unchecked; failed_share %g (%d of %d)\n",
		r.Check.Objects, r.Check.Expected, r.Check.Missing, r.Check.Spurious, r.Check.Duplicated, r.Check.Overflow,
		r.FailedShare, r.Failed, r.Attempted)
	fmt.Fprintf(w, "# samples: %d latencies in %d windows (%d beyond p99, %d beyond p99.9), %d generator sends\n",
		r.Samples["lat"], r.Samples["lat_windows"], r.Samples["lat_beyond_p99"], r.Samples["lat_beyond_p999"], r.Samples["gen_late"])
	for _, k := range sortedKeys(r.Detail) {
		fmt.Fprintf(w, "# %s %.6g\n", k, r.Detail[k])
	}
	defs, vals := endToEnd, r.EndToEnd
	if r.Trace {
		defs, vals = perLayer, r.PerLayer
	}
	for _, d := range defs {
		exact := ""
		if d.Exact {
			exact = "  exact"
		}
		fmt.Fprintf(w, "%-34s %14.6g %-6s%s\n", d.Name, vals[d.Name].Value, d.Unit, exact)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "# spans written to %s\n", r.TraceFile)
	}
}

// provenance is the header of a report: enough to tell whether two
// reports may be compared at all.
type provenance struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GitHead    string  `json:"git_head"`
	GitDirty   bool    `json:"git_dirty"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick,omitempty"`
}

// reportWorkload is one workload's part of a report.
type reportWorkload struct {
	Name   string            `json:"name"`
	Runs   []*workloadResult `json:"runs"`
	Traced *workloadResult   `json:"traced,omitempty"`
	// TraceOverheadShare is how much closed-loop capacity the traced run
	// lost against the timed runs' median.
	TraceOverheadShare *float64 `json:"trace_overhead_share,omitempty"`
}

type report struct {
	Provenance provenance       `json:"provenance"`
	Workloads  []reportWorkload `json:"workloads"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitHead() (head string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), err == nil && len(strings.TrimSpace(string(status))) > 0
}

// runAll runs every workload, each run in a fresh process so that heap
// and GC state do not leak from one into the next, and writes a report.
func runAll(seed int64, seconds float64, trace, quick bool, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	head, dirty := gitHead()
	rep := report{Provenance: provenance{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), GitHead: head, GitDirty: dirty, Seed: seed, Seconds: seconds, Quick: quick,
	}}
	p := rep.Provenance
	fmt.Printf("# %s GOMAXPROCS=%d nproc=%d cpu=%q git=%s dirty=%v seed=%d seconds=%g\n",
		p.GoVersion, p.GOMAXPROCS, p.NumCPU, p.CPUModel, p.GitHead, p.GitDirty, p.Seed, p.Seconds)
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	tmp := out + ".run"
	defer os.Remove(tmp)
	child := func(name string, traced bool) (*workloadResult, error) {
		args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-result", tmp}
		if traced {
			args = append(args, "-trace", "1")
		}
		if quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		data, err := os.ReadFile(tmp)
		if err != nil {
			return nil, err
		}
		var res workloadResult
		return &res, json.Unmarshal(data, &res)
	}
	for _, w := range workloads {
		rw := reportWorkload{Name: w.Name}
		var caps []float64
		for i := 0; i < runs; i++ {
			res, err := child(w.Name, false)
			if err != nil {
				return err
			}
			rw.Runs = append(rw.Runs, res)
			caps = append(caps, res.EndToEnd["capacity_ops_s"].Value)
		}
		if trace {
			res, err := child(w.Name, true)
			if err != nil {
				return err
			}
			rw.Traced = res
			share := 1 - res.Detail["capacity_ops_s_traced"]/median(caps)
			rw.TraceOverheadShare = &share
			fmt.Printf("# %s trace_overhead_share %.4f (capacity %.0f traced against %.0f timed)\n",
				w.Name, share, res.Detail["capacity_ops_s_traced"], median(caps))
		}
		rep.Workloads = append(rep.Workloads, rw)
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("# report written to %s\n", out)
	return nil
}
