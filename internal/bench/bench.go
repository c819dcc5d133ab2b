// Package bench is the experiment harness for the paper's evaluation (§VI):
// Figures 7–11 and 16, which run the hybrid strategy, and the ablation and
// extension experiments. Each experiment id maps to a Runner producing
// printable tables with the same rows/series the paper reports;
// cmd/psbench and the root bench_test.go drive them. Figures 6 and 12–15
// compare baselines the system does not run; their results are recorded
// in docs/PAPER_RESULTS.md.
//
// Scale note: the paper runs 32 EC2 nodes, 280M tweets and 5M–20M standing
// queries; this harness runs goroutine workers on one machine with the
// workload linearly scaled down (docs/PAPER_RESULTS.md records one run's
// Scale). Comparisons between strategies — who wins, by what factor, where
// crossovers fall — are the reproduction target, not absolute numbers.
package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"ps2stream/internal/core"
	"ps2stream/internal/hybrid"
	"ps2stream/internal/load"
	"ps2stream/internal/model"
	"ps2stream/internal/partition"
	"ps2stream/internal/workload"
)

// Scale groups the knobs every experiment shares. The zero value is
// replaced by DefaultScale.
type Scale struct {
	// SampleObjects/SampleQueries size the partitioning sample.
	SampleObjects int
	SampleQueries int
	// Mu1 is the scaled-down stand-in for the paper's µ=5M; Mu2 for
	// µ=10M (double Mu1).
	Mu1 int
	// Ops is the number of stream operations per throughput run.
	Ops int
	// PacedRate is the "moderate input speed" (tuples/sec) for latency
	// experiments.
	PacedRate float64
	// Workers mirrors the paper's 8 workers.
	Workers int
	// PerTupleWork is the simulated per-received-tuple cluster cost
	// (network receive + deserialisation) charged at workers; see
	// core.Config.PerTupleWork.
	PerTupleWork time.Duration
	// Seed drives all generators.
	Seed int64
	// Wire places every worker task behind a loopback-TCP psnode serve
	// loop (real sockets, wire protocol) for the experiments that
	// support it — `adjust`, whose migrations then cross the wire via
	// the cell-migration control frames, and `topk`, whose membership
	// updates then arrive through the WindowDeltaBatch delta stream
	// (psbench -wire).
	Wire bool
}

// DefaultScale is sized for minutes-per-experiment on a laptop.
func DefaultScale() Scale {
	return Scale{
		SampleObjects: 20000,
		SampleQueries: 4000,
		Mu1:           10000,
		Ops:           60000,
		PacedRate:     15000,
		Workers:       8,
		PerTupleWork:  3 * time.Microsecond,
		Seed:          2017,
	}
}

// QuickScale is sized for CI smoke tests of the harness itself.
func QuickScale() Scale {
	return Scale{
		SampleObjects: 3000,
		SampleQueries: 600,
		Mu1:           1500,
		Ops:           8000,
		PacedRate:     8000,
		Workers:       4,
		PerTupleWork:  2 * time.Microsecond,
		Seed:          2017,
	}
}

func (s Scale) orDefault() Scale {
	if s == (Scale{}) {
		return DefaultScale()
	}
	return s
}

// Mu2 is the stand-in for the paper's doubled query count.
func (s Scale) Mu2() int { return 2 * s.Mu1 }

// Table is a printable experiment result; the json tags shape psbench's
// machine-readable baseline files (e.g. BENCH_topk.json).
type Table struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	line := make([]string, len(t.Header))
	for i, h := range t.Header {
		line[i] = pad(h, widths[i])
	}
	fmt.Fprintln(w, strings.Join(line, "  "))
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) {
				line[i] = pad(c, widths[i])
			}
		}
		fmt.Fprintln(w, strings.Join(line[:len(r)], "  "))
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Runner executes one experiment.
type Runner func(Scale) []Table

// Experiments maps experiment ids (psbench -list) to runners.
func Experiments() map[string]Runner {
	return map[string]Runner{
		"fig7":    Fig7Throughput,
		"fig8":    Fig8Latency,
		"fig9":    Fig9DispatcherMemory,
		"fig10":   Fig10WorkerMemory,
		"fig11":   Fig11Scalability,
		"fig16":   Fig16AdjustEffect,
		"ablrate": AblLatencyVsRate,
		"topk":    TopKThroughput,
		"batch":   BatchThroughput,
		"adjust":  AdjustRecovery,
		"wire":    WireThroughput,
		"obs":     ObsOverhead,
	}
}

// ExperimentIDs returns the ids in presentation order.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(Experiments()))
	for id := range Experiments() {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		// Figure numbers compare numerically: fig9 < fig10.
		na, sa := splitID(ids[i])
		nb, sb := splitID(ids[j])
		if na != nb {
			return na < nb
		}
		return sa < sb
	})
	return ids
}

func splitID(id string) (int, string) {
	if !strings.HasPrefix(id, "fig") {
		return 1 << 30, id // ablations list after the paper figures
	}
	n := 0
	i := 3
	for i < len(id) && id[i] >= '0' && id[i] <= '9' {
		n = n*10 + int(id[i]-'0')
		i++
	}
	return n, id[i:]
}

// builderByName resolves the three strategies.
func builderByName(name string) partition.Builder {
	if name == "hybrid" {
		return hybrid.Builder{}
	}
	return partition.Builders()[name]
}

// buildSystem assembles a system over the dataset/family with the given
// strategy and worker count, prewarmed to mu standing queries.
func buildSystem(spec workload.DatasetSpec, kind workload.QueryKind, builderName string,
	sc Scale, workers, mu int, adjust core.AdjustConfig) (*core.System, *workload.Stream, error) {
	sample := workload.Sample(spec, kind, sc.SampleObjects, sc.SampleQueries, sc.Seed)
	sys, err := core.New(core.Config{
		Workers:      workers,
		Builder:      builderByName(builderName),
		Adjust:       adjust,
		PerTupleWork: sc.PerTupleWork,
	}, sample)
	if err != nil {
		return nil, nil, err
	}
	st := workload.NewStream(spec, kind, workload.StreamConfig{Mu: mu, Seed: sc.Seed})
	return sys, st, nil
}

// waitProcessed polls until the system has routed n tuples.
func waitProcessed(sys *core.System, n int64) {
	for sys.Processed() < n {
		time.Sleep(2 * time.Millisecond)
	}
}

// measureThroughput runs the capacity experiment: prewarm µ queries, then
// drive sc.Ops operations at full speed and report tuples/second. The
// clock runs from a drained system to the drain of the last timed
// operation, so it counts matching, not only routing.
func measureThroughput(spec workload.DatasetSpec, kind workload.QueryKind,
	builderName string, sc Scale, workers, mu int) (float64, error) {
	sys, st, err := buildSystem(spec, kind, builderName, sc, workers, mu, core.AdjustConfig{})
	if err != nil {
		return 0, err
	}
	if err := sys.Start(context.Background()); err != nil {
		return 0, err
	}
	defer sys.Abort()
	sys.SubmitAll(st.Prewarm(mu))
	if err := sys.Drain(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	for i := 0; i < sc.Ops; i++ {
		sys.Submit(st.Next())
	}
	if err := sys.Drain(); err != nil {
		return 0, err
	}
	el := time.Since(t0)
	if err := sys.Close(); err != nil {
		return 0, err
	}
	return float64(sc.Ops) / el.Seconds(), nil
}

// measureLatency drives the stream at the moderate PacedRate and reports
// the mean tuple latency.
func measureLatency(spec workload.DatasetSpec, kind workload.QueryKind,
	builderName string, sc Scale, workers, mu int) (time.Duration, error) {
	sys, st, err := buildSystem(spec, kind, builderName, sc, workers, mu, core.AdjustConfig{})
	if err != nil {
		return 0, err
	}
	if err := sys.Start(context.Background()); err != nil {
		return 0, err
	}
	warm := st.Prewarm(mu)
	sys.SubmitAll(warm)
	waitProcessed(sys, int64(len(warm)))
	// Drop the prewarm burst's latencies: the figure measures steady
	// state at a moderate input rate.
	sys.ResetLatencyStats()
	interval := time.Duration(float64(time.Second) / sc.PacedRate)
	ticker := time.NewTicker(interval)
	n := sc.Ops / 4
	for i := 0; i < n; i++ {
		<-ticker.C
		sys.Submit(st.Next())
	}
	ticker.Stop()
	if err := sys.Close(); err != nil {
		return 0, err
	}
	return sys.Snapshot().Latency.Mean, nil
}

// measureMemory prewarns µ queries plus a slice of objects and reports
// dispatcher and worker footprints.
func measureMemory(spec workload.DatasetSpec, kind workload.QueryKind,
	builderName string, sc Scale, workers, mu int) (dispatcherB int64, workerAvgB int64, err error) {
	sys, st, err := buildSystem(spec, kind, builderName, sc, workers, mu, core.AdjustConfig{})
	if err != nil {
		return 0, 0, err
	}
	if err := sys.Start(context.Background()); err != nil {
		return 0, 0, err
	}
	sys.SubmitAll(st.Prewarm(mu))
	sys.SubmitAll(st.Take(sc.Ops / 4))
	if err := sys.Close(); err != nil {
		return 0, 0, err
	}
	snap := sys.Snapshot()
	var sum int64
	for _, b := range snap.WorkerBytes {
		sum += b
	}
	return snap.DispatcherBytes, sum / int64(len(snap.WorkerBytes)), nil
}

// modelThroughput estimates capacity from the workload model instead of
// wall time: all ops are routed through the assignment, per-worker
// Definition 1 loads accumulate, and throughput scales with the inverse of
// the bottleneck worker's load. Used for the scalability sweep (Figure
// 11), where a single box cannot provide more physical cores per added
// worker; the load model preserves the strategies' relative scaling.
func modelThroughput(spec workload.DatasetSpec, kind workload.QueryKind,
	builderName string, sc Scale, workers, mu int) (float64, error) {
	sample := workload.Sample(spec, kind, sc.SampleObjects, sc.SampleQueries, sc.Seed)
	a, err := builderByName(builderName).Build(sample, workers)
	if err != nil {
		return 0, err
	}
	st := workload.NewStream(spec, kind, workload.StreamConfig{Mu: mu, Seed: sc.Seed})
	costs := load.DefaultCosts
	// Standing population: route µ inserts first.
	objs := make([]float64, workers)
	ins := make([]float64, workers)
	dels := make([]float64, workers)
	queriesHeld := make([]float64, workers)
	for _, op := range st.Prewarm(mu) {
		for _, w := range a.RouteQuery(op.Query, true) {
			queriesHeld[w]++
		}
	}
	nOps := sc.Ops
	for i := 0; i < nOps; i++ {
		op := st.Next()
		switch op.Kind {
		case model.OpObject:
			for _, w := range a.RouteObject(op.Obj) {
				objs[w]++
			}
		case model.OpInsert:
			for _, w := range a.RouteQuery(op.Query, true) {
				ins[w]++
				queriesHeld[w]++
			}
		case model.OpDelete:
			for _, w := range a.RouteQuery(op.Query, false) {
				dels[w]++
				queriesHeld[w]--
			}
		}
	}
	var maxLoad float64
	for w := 0; w < workers; w++ {
		// Matching work scales with the worker's standing queries, the
		// dominant c1 term of Definition 1.
		l := costs.C1*objs[w]*queriesHeld[w] + costs.C2*objs[w] +
			costs.C3*ins[w] + costs.C4*dels[w]
		if l > maxLoad {
			maxLoad = l
		}
	}
	if maxLoad <= 0 {
		return 0, fmt.Errorf("bench: degenerate model load for %s", builderName)
	}
	// tuples/sec ∝ ops per unit of bottleneck load.
	return float64(nOps) / maxLoad * 1e4, nil
}

func f0(v float64) string { return fmt.Sprintf("%.0f", v) }

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}
