package ps2stream

// Benchmark entry points: one per paper figure (delegating to the
// experiment harness in internal/bench), micro-benchmarks for the core
// data structures, and the ablation benches (docs/ARCHITECTURE.md,
// "Evaluation harness").
//
// The figure benches run the experiment at QuickScale per iteration and
// report the harness's key number via b.ReportMetric; run cmd/psbench for
// the full paper-style tables at DefaultScale.

import (
	"io"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ps2stream/internal/bench"
	"ps2stream/internal/dedup"
	"ps2stream/internal/geo"
	"ps2stream/internal/gi2"
	"ps2stream/internal/hybrid"
	"ps2stream/internal/load"
	"ps2stream/internal/migrate"
	"ps2stream/internal/model"
	"ps2stream/internal/partition"
	"ps2stream/internal/workload"
)

// runExperiment executes one harness experiment per iteration and reports
// the first numeric cell it finds (throughput, time, ...) as a metric.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	runner := bench.Experiments()[id]
	if runner == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	sc := bench.QuickScale()
	var metric float64
	for i := 0; i < b.N; i++ {
		tables := runner(sc)
		for _, t := range tables {
			t.Fprint(io.Discard)
		}
		metric = firstNumeric(tables)
	}
	b.ReportMetric(metric, "result")
}

func firstNumeric(tables []bench.Table) float64 {
	for _, t := range tables {
		for _, r := range t.Rows {
			for _, c := range r {
				v := strings.TrimSuffix(strings.TrimSuffix(c, "ms"), "%")
				if f, err := strconv.ParseFloat(v, 64); err == nil {
					return f
				}
			}
		}
	}
	return 0
}

func BenchmarkFig06TextQ1(b *testing.B)           { runExperiment(b, "fig6a") }
func BenchmarkFig06TextQ2(b *testing.B)           { runExperiment(b, "fig6b") }
func BenchmarkFig06SpaceQ1(b *testing.B)          { runExperiment(b, "fig6c") }
func BenchmarkFig06SpaceQ2(b *testing.B)          { runExperiment(b, "fig6d") }
func BenchmarkFig07Throughput(b *testing.B)       { runExperiment(b, "fig7") }
func BenchmarkFig08Latency(b *testing.B)          { runExperiment(b, "fig8") }
func BenchmarkFig09DispatcherMemory(b *testing.B) { runExperiment(b, "fig9") }
func BenchmarkFig10WorkerMemory(b *testing.B)     { runExperiment(b, "fig10") }
func BenchmarkFig11Scalability(b *testing.B)      { runExperiment(b, "fig11") }
func BenchmarkFig12SelectionTime(b *testing.B)    { runExperiment(b, "fig12a") }
func BenchmarkFig12MigrationCost(b *testing.B)    { runExperiment(b, "fig12b") }
func BenchmarkFig12LatencyBuckets(b *testing.B)   { runExperiment(b, "fig12c") }
func BenchmarkFig13SelectionScaling(b *testing.B) { runExperiment(b, "fig13") }
func BenchmarkFig14MigrationScaling(b *testing.B) { runExperiment(b, "fig14") }
func BenchmarkFig15LatencyScaling(b *testing.B)   { runExperiment(b, "fig15") }
func BenchmarkFig16AdjustEffect(b *testing.B)     { runExperiment(b, "fig16") }

// BenchmarkAblationLatencyVsRate runs the saturation sweep behind
// Figure 8's "moderate input speed" setting.
func BenchmarkAblationLatencyVsRate(b *testing.B) { runExperiment(b, "ablrate") }

// --- Micro-benchmarks -------------------------------------------------

func microSample(n, q int) *partition.Sample {
	return workload.Sample(workload.TweetsUS(), workload.Q1, n, q, 99)
}

// BenchmarkGI2Match measures worker-side object matching against a loaded
// index (the c1 term of Definition 1).
func BenchmarkGI2Match(b *testing.B) {
	s := microSample(5000, 2000)
	ix := gi2.New(s.Bounds, 64, s.Stats)
	for _, q := range s.Queries {
		ix.Insert(q)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Match(s.Objects[i%len(s.Objects)], func(*model.Query) {})
	}
}

// BenchmarkGI2Insert measures query registration cost (the c3 term).
// Deletion of the same id keeps the index from growing without bound, so
// steady-state insert cost is measured.
func BenchmarkGI2Insert(b *testing.B) {
	s := microSample(2000, 1)
	qg := workload.NewQueryGenerator(workload.TweetsUS(), workload.Q1, 7)
	queries := make([]*model.Query, 4096)
	for i := range queries {
		queries[i] = qg.Query()
	}
	ix := gi2.New(s.Bounds, 64, s.Stats)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		ix.Insert(q)
		if i%len(queries) == len(queries)-1 {
			b.StopTimer()
			for _, d := range queries {
				ix.Delete(d.ID)
			}
			ix.Purge()
			b.StartTimer()
		}
	}
}

// gridtCases are the two densities the gridt benchmarks run at: the
// sample's 2k subscriptions, where every cell's H2 holds a handful of
// keys, and match_heavy's 100k standing Q1 subscriptions.
var gridtCases = []struct {
	name     string
	standing int
}{{"sparse", 0}, {"dense", 100000}}

// gridtAt builds the hybrid partitioner over the sample and registers
// standing generated Q1 subscriptions. Each case builds it once and keeps
// it across the rounds the benchmark runs.
func gridtAt(b *testing.B, s *partition.Sample, standing int) partition.Assignment {
	b.Helper()
	a, err := hybrid.Builder{}.Build(s, 8)
	if err != nil {
		b.Fatal(err)
	}
	qg := workload.NewQueryGenerator(workload.TweetsUS(), workload.Q1, 17)
	for i := 0; i < standing; i++ {
		a.RouteQuery(qg.Query(), true)
	}
	return a
}

// BenchmarkGridTRouteObject measures dispatcher-side object routing, with
// the sample's queries registered beside the standing ones.
func BenchmarkGridTRouteObject(b *testing.B) {
	s := microSample(8000, 2000)
	for _, c := range gridtCases {
		var a partition.Assignment
		b.Run(c.name, func(b *testing.B) {
			if a == nil {
				a = gridtAt(b, s, c.standing)
				for _, q := range s.Queries {
					a.RouteQuery(q, true)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.RouteObject(s.Objects[i%len(s.Objects)])
			}
		})
	}
}

// BenchmarkGridTRouteQuery measures dispatcher-side query routing: the
// sample's queries, alternately inserted and deleted.
func BenchmarkGridTRouteQuery(b *testing.B) {
	s := microSample(8000, 2000)
	for _, c := range gridtCases {
		var a partition.Assignment
		b.Run(c.name, func(b *testing.B) {
			if a == nil {
				a = gridtAt(b, s, c.standing)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.RouteQuery(s.Queries[i%len(s.Queries)], i%2 == 0)
			}
		})
	}
}

// BenchmarkExprMatch measures boolean expression evaluation.
func BenchmarkExprMatch(b *testing.B) {
	e := model.Expr{Conj: [][]string{{"alpha", "beta"}, {"gamma"}}}
	terms := []string{"delta", "beta", "alpha", "epsilon", "zeta"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MatchesSlice(terms)
	}
}

// BenchmarkDedupObserve measures the merger's duplicate window in its real
// case: the engine's window size and a stream in which every key is new,
// so each Observe also evicts the oldest key.
func BenchmarkDedupObserve(b *testing.B) {
	w := dedup.NewWindow(1 << 15)
	key := func(i int) [2]uint64 { return [2]uint64{uint64(i) * 7919 % 100003, uint64(i)} }
	for i := 0; i < 1<<16; i++ {
		w.Observe(key(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !w.Observe(key(1<<16 + i)) {
			b.Fatal("a key never observed before reported as a duplicate")
		}
	}
}

// BenchmarkSelection compares the four cell-selection algorithms on one
// realistic inventory (the per-op cost behind Figure 12(a)).
func BenchmarkSelection(b *testing.B) {
	cells := make([]migrate.Cell, 1000)
	for i := range cells {
		cells[i] = migrate.Cell{
			ID:   i,
			Load: float64(1 + (i*7919)%100),
			Size: int64(64 + (i*104729)%4096),
		}
	}
	var total float64
	for _, c := range cells {
		total += c.Load
	}
	tau := total * 0.25
	for _, alg := range migrate.Algorithms() {
		b.Run(string(alg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				migrate.Select(alg, cells, tau, nil)
			}
		})
	}
}

// BenchmarkHybridBuild measures Algorithm 1 end to end.
func BenchmarkHybridBuild(b *testing.B) {
	s := microSample(8000, 1600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (hybrid.Builder{}).Build(s, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---------------------------------------------------------

// routedTuples counts total routed tuples for an assignment over a fresh
// op stream: the duplication-sensitive part of the total workload.
func routedTuples(a partition.Assignment, spec workload.DatasetSpec, kind workload.QueryKind, n int) int {
	st := workload.NewStream(spec, kind, workload.StreamConfig{Mu: 2000, Seed: 5})
	for _, op := range st.Prewarm(2000) {
		a.RouteQuery(op.Query, true)
	}
	total := 0
	for i := 0; i < n; i++ {
		op := st.Next()
		switch op.Kind {
		case model.OpObject:
			total += len(a.RouteObject(op.Obj))
		case model.OpInsert:
			total += len(a.RouteQuery(op.Query, true))
		case model.OpDelete:
			total += len(a.RouteQuery(op.Query, false))
		}
	}
	return total
}

// BenchmarkAblationHybridDelta sweeps the δ similarity threshold of
// Algorithm 1 and reports total routed tuples (lower = less duplication).
func BenchmarkAblationHybridDelta(b *testing.B) {
	s := microSample(8000, 1600)
	for _, delta := range []float64{0.2, 0.5, 0.8} {
		cfg := hybrid.DefaultConfig()
		cfg.Delta = delta
		b.Run("delta="+strconv.FormatFloat(delta, 'f', 1, 64), func(b *testing.B) {
			var routed int
			for i := 0; i < b.N; i++ {
				a, err := hybrid.Builder{Config: cfg}.Build(s, 8)
				if err != nil {
					b.Fatal(err)
				}
				routed = routedTuples(a, workload.TweetsUS(), workload.Q3, 5000)
			}
			b.ReportMetric(float64(routed), "routed_tuples")
		})
	}
}

// BenchmarkAblationGI2Granularity sweeps the worker grid resolution; the
// paper fixes 2^6 empirically.
func BenchmarkAblationGI2Granularity(b *testing.B) {
	s := microSample(5000, 2000)
	for _, gran := range []int{16, 64, 128} {
		b.Run("g="+strconv.Itoa(gran), func(b *testing.B) {
			ix := gi2.New(s.Bounds, gran, s.Stats)
			for _, q := range s.Queries {
				ix.Insert(q)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Match(s.Objects[i%len(s.Objects)], func(*model.Query) {})
			}
		})
	}
}

// BenchmarkAblationLazyVsEagerDeletion compares the paper's lazy deletion
// against eager purging under a delete-heavy stream.
func BenchmarkAblationLazyVsEagerDeletion(b *testing.B) {
	s := microSample(2000, 1)
	qg := workload.NewQueryGenerator(workload.TweetsUS(), workload.Q1, 8)
	queries := make([]*model.Query, 2048)
	for i := range queries {
		queries[i] = qg.Query()
	}
	obj := s.Objects[0]
	run := func(b *testing.B, eager bool) {
		ix := gi2.New(s.Bounds, 64, s.Stats)
		for _, q := range queries {
			ix.Insert(q)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			ix.Delete(q.ID)
			if eager {
				ix.Purge()
			}
			ix.Match(obj, func(*model.Query) {})
			ix.Insert(q)
		}
	}
	b.Run("lazy", func(b *testing.B) { run(b, false) })
	b.Run("eager", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationDispatcherIndex compares gridt cell lookup against the
// O(log m) kdt-tree walk it replaces (here: kd-tree assignment without the
// grid raster is approximated by the R-tree baseline's search path).
func BenchmarkAblationDispatcherIndex(b *testing.B) {
	s := microSample(8000, 1600)
	builders := map[string]partition.Builder{
		"gridt(hybrid)": hybrid.Builder{},
		"grid":          partition.GridBuilder{},
		"kdtree+grid":   partition.KDTreeBuilder{},
	}
	for name, bd := range builders {
		a, err := bd.Build(s, 8)
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range s.Queries {
			a.RouteQuery(q, true)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.RouteObject(s.Objects[i%len(s.Objects)])
			}
		})
	}
}

// BenchmarkEndToEnd measures full-topology tuple throughput via the public
// API (sanity ceiling for the figure benches).
func BenchmarkEndToEnd(b *testing.B) {
	og := workload.NewGenerator(workload.TweetsUS(), 3)
	sys, err := Open(Options{
		Region:  NewRegion(-125, 24, -66, 49),
		Workers: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	sub := Subscription{ID: 1, Query: "us00000", Region: RegionAround(37, -95, 2000, 2000)}
	if err := sys.Subscribe(sub); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := og.Object()
		sys.Publish(Message{ID: o.ID, Text: strings.Join(o.Terms, " "), Lat: o.Loc.Y, Lon: o.Loc.X})
	}
	b.StopTimer()
	sys.Flush()
}

// BenchmarkTopKPublish measures publish throughput against a standing
// population of sliding-window top-k subscriptions at k ∈ {1, 10, 50}
// (the SubscribeTopK hot path: match → offer → skyband → global
// reconcile), and reports the skyband length per subscription (mean and
// max over the workers' bands) and the window state's share of the
// workers' footprint. cmd/psbench -exp topk records the paper-style
// table; BENCH_topk.json holds the committed baseline.
func BenchmarkTopKPublish(b *testing.B) {
	for _, k := range []int{1, 10, 50} {
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			og := workload.NewGenerator(workload.TweetsUS(), 3)
			qg := workload.NewQueryGenerator(workload.TweetsUS(), workload.Q1, 7)
			var updates atomic.Int64
			sys, err := Open(Options{
				Region:  NewRegion(-125, 24, -66, 49),
				Workers: 4,
				OnTopK:  func(TopKUpdate) { updates.Add(1) },
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			for i := 0; i < 200; i++ {
				q := qg.Query()
				err := sys.SubscribeTopK(Subscription{
					ID:         q.ID,
					Query:      q.Expr.String(),
					Region:     Region{MinLat: q.Region.Min.Y, MinLon: q.Region.Min.X, MaxLat: q.Region.Max.Y, MaxLon: q.Region.Max.X},
					Subscriber: q.Subscriber,
				}, k, 30*time.Second)
				if err != nil {
					b.Fatal(err)
				}
			}
			sys.Flush()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := og.Object()
				sys.Publish(Message{ID: o.ID, Text: strings.Join(o.Terms, " "), Lat: o.Loc.Y, Lon: o.Loc.X})
			}
			b.StopTimer()
			sys.Flush()
			b.ReportMetric(float64(updates.Load()), "topk_updates")
			winBytes, bands := sys.inner.WindowStats()
			sum, most := 0, 0
			for _, n := range bands {
				sum, most = sum+n, max(most, n)
			}
			var workerBytes int64
			for _, wb := range sys.inner.Snapshot().WorkerBytes {
				workerBytes += wb
			}
			b.ReportMetric(float64(sum)/float64(max(len(bands), 1)), "band_mean")
			b.ReportMetric(float64(most), "band_max")
			b.ReportMetric(float64(winBytes)/float64(max(workerBytes, 1)), "window_share")
		})
	}
}

// Guard: geo must stay allocation-free on the hot path.
func BenchmarkRectContains(b *testing.B) {
	r := geo.NewRect(0, 0, 10, 10)
	p := geo.Point{X: 5, Y: 5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Contains(p)
	}
}

// Guard: Definition 1 evaluation is trivially cheap.
func BenchmarkLoadWorker(b *testing.B) {
	c := load.DefaultCosts
	for i := 0; i < b.N; i++ {
		c.Worker(float64(i), float64(i/5), float64(i/5))
	}
}

// BenchmarkPublishBatched measures the publish hot path at several
// transfer batch sizes through the public API: batch=1 is the unbatched
// baseline (one channel send, one lock acquisition per message), batch=64
// is the Options.BatchSize default. Messages are pre-generated so the
// timed region covers only Publish → dispatch → match → merge.
// cmd/psbench -exp batch records the paper-style table; BENCH_batch.json
// holds the committed baseline.
func BenchmarkPublishBatched(b *testing.B) {
	for _, bs := range []int{1, 8, 64, 256} {
		b.Run("batch="+strconv.Itoa(bs), func(b *testing.B) {
			og := workload.NewGenerator(workload.TweetsUS(), 3)
			qg := workload.NewQueryGenerator(workload.TweetsUS(), workload.Q1, 7)
			sys, err := Open(Options{
				Region:    NewRegion(-125, 24, -66, 49),
				Workers:   4,
				BatchSize: bs,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			for i := 0; i < 500; i++ {
				q := qg.Query()
				err := sys.Subscribe(Subscription{
					ID:         q.ID,
					Query:      q.Expr.String(),
					Region:     Region{MinLat: q.Region.Min.Y, MinLon: q.Region.Min.X, MaxLat: q.Region.Max.Y, MaxLon: q.Region.Max.X},
					Subscriber: q.Subscriber,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			sys.Flush()
			msgs := make([]Message, b.N)
			for i := range msgs {
				o := og.Object()
				msgs[i] = Message{ID: o.ID, Text: strings.Join(o.Terms, " "), Lat: o.Loc.Y, Lon: o.Loc.X}
			}
			b.ResetTimer()
			for i := range msgs {
				sys.Publish(msgs[i])
			}
			sys.Flush()
			b.StopTimer()
		})
	}
}
