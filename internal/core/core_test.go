package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"ps2stream/internal/geo"
	"ps2stream/internal/hybrid"
	"ps2stream/internal/model"
	"ps2stream/internal/partition"
	"ps2stream/internal/workload"
)

// matchSet collects merger output thread-safely.
type matchSet struct {
	mu   sync.Mutex
	seen map[[2]uint64]bool
}

func newMatchSet() *matchSet { return &matchSet{seen: make(map[[2]uint64]bool)} }

func (ms *matchSet) add(m model.Match) {
	ms.mu.Lock()
	ms.seen[[2]uint64{m.QueryID, m.ObjectID}] = true
	ms.mu.Unlock()
}

func (ms *matchSet) has(q, o uint64) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.seen[[2]uint64{q, o}]
}

func (ms *matchSet) len() int {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return len(ms.seen)
}

// oracle replays the op stream sequentially and records every true match.
func oracleMatches(ops []model.Op) map[[2]uint64]bool {
	live := make(map[uint64]*model.Query)
	out := make(map[[2]uint64]bool)
	for _, op := range ops {
		switch op.Kind {
		case model.OpInsert:
			live[op.Query.ID] = op.Query
		case model.OpDelete:
			delete(live, op.Query.ID)
		case model.OpObject:
			for _, q := range live {
				if q.Matches(op.Obj) {
					out[[2]uint64{q.ID, op.Obj.ID}] = true
				}
			}
		}
	}
	return out
}

// runExact drives ops through a single-dispatcher system (FIFO order
// preserved end to end) and returns the delivered match set.
func runExact(t *testing.T, builder partition.Builder, sample *partition.Sample, ops []model.Op, workers int) *matchSet {
	t.Helper()
	ms := newMatchSet()
	sys, err := New(Config{
		Dispatchers: 1,
		Workers:     workers,
		Mergers:     2,
		Builder:     builder,
		OnMatch:     ms.add,
	}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	sys.SubmitAll(ops)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	return ms
}

func smallWorkload(t testing.TB, kind workload.QueryKind, seed int64, nOps int) (*partition.Sample, []model.Op) {
	t.Helper()
	spec := workload.TweetsUS()
	spec.VocabSize = 2000 // denser matches at test scale
	sample := workload.Sample(spec, kind, 2000, 400, seed)
	st := workload.NewStream(spec, kind, workload.StreamConfig{Mu: 300, Seed: seed})
	ops := st.Prewarm(300)
	ops = append(ops, st.Take(nOps)...)
	return sample, ops
}

func allBuilders() map[string]partition.Builder {
	bs := partition.Builders()
	bs["hybrid"] = hybrid.Builder{}
	return bs
}

// The system must deliver exactly the oracle match set for every
// distribution strategy: no false negatives (routing invariant) and no
// false positives (region+expression checked at workers, dedup at
// mergers).
func TestEndToEndExactAllStrategies(t *testing.T) {
	sample, ops := smallWorkload(t, workload.Q1, 42, 4000)
	want := oracleMatches(ops)
	if len(want) == 0 {
		t.Fatal("vacuous: oracle produced no matches")
	}
	for name, b := range allBuilders() {
		t.Run(name, func(t *testing.T) {
			ms := runExact(t, b, sample, ops, 4)
			ms.mu.Lock()
			defer ms.mu.Unlock()
			missing, extra := 0, 0
			for k := range want {
				if !ms.seen[k] {
					missing++
				}
			}
			for k := range ms.seen {
				if !want[k] {
					extra++
				}
			}
			if missing > 0 || extra > 0 {
				t.Errorf("%s: %d missing, %d extra of %d oracle matches",
					name, missing, extra, len(want))
			}
		})
	}
}

func TestEndToEndQ2Hybrid(t *testing.T) {
	sample, ops := smallWorkload(t, workload.Q2, 43, 3000)
	want := oracleMatches(ops)
	if len(want) == 0 {
		t.Skip("no oracle matches for this seed")
	}
	ms := runExact(t, hybrid.Builder{}, sample, ops, 4)
	if ms.len() != len(want) {
		t.Errorf("got %d matches, oracle %d", ms.len(), len(want))
	}
}

func TestDeletionStopsDelivery(t *testing.T) {
	spec := workload.TweetsUS()
	sample := workload.Sample(spec, workload.Q1, 500, 100, 7)
	center := spec.Bounds.Center()
	q := &model.Query{ID: 900001, Expr: model.And(sample.Objects[0].Terms[0]),
		Region: geo.RectAround(center, 200, 200)}
	objHit := &model.Object{ID: 800001, Terms: q.Expr.Terms(), Loc: center}
	objLate := &model.Object{ID: 800002, Terms: q.Expr.Terms(), Loc: center}
	ops := []model.Op{
		{Kind: model.OpInsert, Query: q},
		{Kind: model.OpObject, Obj: objHit},
		{Kind: model.OpDelete, Query: q},
		{Kind: model.OpObject, Obj: objLate},
	}
	ms := runExact(t, hybrid.Builder{}, sample, ops, 4)
	if !ms.has(q.ID, objHit.ID) {
		t.Error("match before deletion not delivered")
	}
	if ms.has(q.ID, objLate.ID) {
		t.Error("match delivered after deletion")
	}
}

func TestDiscardedObjectsCounted(t *testing.T) {
	spec := workload.TweetsUS()
	sample := workload.Sample(spec, workload.Q1, 500, 100, 8)
	sys, err := New(Config{Dispatchers: 1, Workers: 4, Builder: hybrid.Builder{}}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// No queries registered: every object is discarded at the dispatcher.
	for i := 0; i < 50; i++ {
		sys.Submit(model.Op{Kind: model.OpObject, Obj: &model.Object{
			ID: uint64(i), Terms: []string{"nomatch"}, Loc: spec.Bounds.Center(),
		}})
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	snap := sys.Snapshot()
	if snap.Discarded != 50 {
		t.Errorf("Discarded = %d, want 50", snap.Discarded)
	}
	if snap.Processed != 50 {
		t.Errorf("Processed = %d, want 50", snap.Processed)
	}
}

func TestSnapshotMetrics(t *testing.T) {
	sample, ops := smallWorkload(t, workload.Q1, 9, 2000)
	ms := newMatchSet()
	sys, err := New(Config{Dispatchers: 2, Workers: 4, Builder: hybrid.Builder{}, OnMatch: ms.add}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	sys.SubmitAll(ops)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	snap := sys.Snapshot()
	if snap.Processed != int64(len(ops)) {
		t.Errorf("Processed = %d, want %d", snap.Processed, len(ops))
	}
	if snap.Latency.Count == 0 {
		t.Error("no latency observations")
	}
	if snap.DispatcherBytes <= 0 {
		t.Error("DispatcherBytes <= 0")
	}
	if len(snap.WorkerBytes) != 4 {
		t.Errorf("WorkerBytes len %d", len(snap.WorkerBytes))
	}
	var anyWorkerBytes bool
	for _, b := range snap.WorkerBytes {
		anyWorkerBytes = anyWorkerBytes || b > 0
	}
	if !anyWorkerBytes {
		t.Error("all worker footprints zero")
	}
	if snap.ThroughputTPS <= 0 {
		t.Error("throughput not measured")
	}
	if int64(ms.len()) != snap.Matches {
		t.Errorf("callback saw %d matches, counter %d", ms.len(), snap.Matches)
	}
}

func TestAdjustRequiresHybrid(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 10, 10)
	_, err := New(Config{
		Builder: partition.GridBuilder{},
		Adjust:  AdjustConfig{Enabled: true},
	}, sample)
	if err != ErrAdjustNeedsHybrid {
		t.Errorf("err = %v, want ErrAdjustNeedsHybrid", err)
	}
}

func TestLifecycleErrors(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 11, 10)
	sys, err := New(Config{Builder: hybrid.Builder{}}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err == nil {
		t.Error("Close before Start should error")
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err == nil {
		t.Error("double Start should error")
	}
	if err := sys.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := sys.Close(); err == nil {
		t.Error("double Close should error")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Error("nil sample accepted")
	}
}

func waitProcessed(t *testing.T, sys *System, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for sys.processed.Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %d processed (at %d)", n, sys.processed.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Give workers a moment to drain their queues.
	time.Sleep(50 * time.Millisecond)
}

func TestGlobalRepartitionKeepsMatching(t *testing.T) {
	spec := workload.TweetsUS()
	spec.VocabSize = 2000
	sample := workload.Sample(spec, workload.Q1, 2000, 400, 12)
	st := workload.NewStream(spec, workload.Q1, workload.StreamConfig{Mu: 200, Seed: 12})
	batch1 := st.Prewarm(200)
	batch1 = append(batch1, st.Take(1500)...)
	batch2 := st.Take(1500)
	batch3 := st.Take(1500)
	all := append(append(append([]model.Op{}, batch1...), batch2...), batch3...)
	want := oracleMatches(all)

	ms := newMatchSet()
	sys, err := New(Config{
		Dispatchers: 1, Workers: 4,
		Builder: partition.KDTreeBuilder{},
		OnMatch: ms.add,
	}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	sys.SubmitAll(batch1)
	waitProcessed(t, sys, int64(len(batch1)))
	// Switch strategies mid-stream.
	sample2 := workload.Sample(spec, workload.Q1, 2000, 400, 13)
	if err := sys.GlobalRepartition(sample2, hybrid.Builder{}); err != nil {
		t.Fatal(err)
	}
	if got := sys.Assignment().Name(); got != "dual(kdtree->hybrid)" {
		t.Errorf("assignment = %q during transition", got)
	}
	sys.SubmitAll(batch2)
	waitProcessed(t, sys, int64(len(batch1)+len(batch2)))
	moved := sys.FinishGlobalRepartition()
	t.Logf("relocated %d old queries", moved)
	if got := sys.Assignment().Name(); got != "hybrid" {
		t.Errorf("assignment = %q after finish", got)
	}
	sys.SubmitAll(batch3)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	missing := 0
	for k := range want {
		if !ms.seen[k] {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d/%d oracle matches missing across the repartition", missing, len(want))
	}
}

func TestGlobalRepartitionErrors(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 14, 10)
	sys, err := New(Config{Builder: hybrid.Builder{}}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.GlobalRepartition(nil, nil); err == nil {
		t.Error("nil sample accepted")
	}
	if err := sys.GlobalRepartition(sample, nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.GlobalRepartition(sample, nil); err == nil {
		t.Error("second concurrent repartition accepted")
	}
	if sys.FinishGlobalRepartition() != 0 {
		t.Error("nothing should move in an idle system")
	}
}

// TestAdjustmentUnderSkew drives a spatially skewed object stream at a
// system built for a uniform one; the controller must detect the
// imbalance, migrate cells, and never lose a match.
func TestAdjustmentUnderSkew(t *testing.T) {
	spec := workload.TweetsUS()
	spec.VocabSize = 1000
	sample := workload.Sample(spec, workload.Q1, 3000, 500, 15)

	ms := newMatchSet()
	sys, err := New(Config{
		Dispatchers: 1, Workers: 4,
		Builder: hybrid.Builder{},
		OnMatch: ms.add,
		Adjust: AdjustConfig{
			Enabled:      true,
			Sigma:        1.2,
			Interval:     30 * time.Millisecond,
			MinWindowOps: 64,
		},
	}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Insert-only query stream (deletes would make stale-positive
	// accounting ambiguous) plus objects concentrated in one corner.
	og := workload.NewGenerator(spec, 16)
	qg := workload.NewQueryGenerator(spec, workload.Q1, 16)
	hot := geo.Point{
		X: spec.Bounds.Min.X + spec.Bounds.Width()*0.2,
		Y: spec.Bounds.Min.Y + spec.Bounds.Height()*0.2,
	}
	var ops []model.Op
	for i := 0; i < 400; i++ {
		q := qg.Query()
		// Bias half the queries onto the hotspot so its cells carry load.
		if i%2 == 0 {
			q.Region = geo.RectAround(hot, 80, 80).Clip(spec.Bounds)
		}
		ops = append(ops, model.Op{Kind: model.OpInsert, Query: q})
	}
	for i := 0; i < 12000; i++ {
		o := og.Object()
		o.Loc = geo.Point{X: hot.X + float64(i%7)*0.01, Y: hot.Y + float64(i%11)*0.01}
		ops = append(ops, model.Op{Kind: model.OpObject, Obj: o})
	}
	want := oracleMatches(ops)

	for _, op := range ops {
		sys.Submit(op)
		if op.Kind == model.OpObject && op.Obj.ID%500 == 0 {
			time.Sleep(10 * time.Millisecond) // give the controller windows to observe
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	migs := sys.Migrations()
	if len(migs) == 0 {
		t.Error("no migrations under heavy skew")
	}
	for _, m := range migs {
		if m.Bytes < 0 || m.Cells <= 0 {
			t.Errorf("malformed migration stat %+v", m)
		}
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	missing := 0
	for k := range want {
		if !ms.seen[k] {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d/%d matches lost across migrations", missing, len(want))
	}
	t.Logf("migrations: %d, matches: %d", len(migs), len(ms.seen))
}

func TestWorkerQueryCounts(t *testing.T) {
	sample, ops := smallWorkload(t, workload.Q1, 17, 500)
	sys, err := New(Config{Dispatchers: 1, Workers: 4, Builder: hybrid.Builder{}}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	sys.SubmitAll(ops)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	counts := sys.WorkerQueryCounts()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		t.Error("no queries stored on any worker")
	}
}

func TestMergerDeduplicates(t *testing.T) {
	// An OR query spanning two text-partition shares can be stored on
	// two workers; a matching object routed to both must be delivered
	// once. Construct this explicitly via the frequency text builder.
	spec := workload.TweetsUS()
	sample := workload.Sample(spec, workload.Q1, 2000, 200, 18)
	stats := sample.Stats
	// Find two terms owned by different workers under frequency
	// partitioning.
	a, err := partition.FrequencyBuilder{}.Build(sample, 4)
	if err != nil {
		t.Fatal(err)
	}
	ta := a.(*partition.TextAssignment)
	terms := stats.TopTerms(50)
	var t1, t2 string
	for _, x := range terms {
		for _, y := range terms {
			if x != y && ta.Owner(x) != ta.Owner(y) {
				t1, t2 = x, y
				break
			}
		}
		if t1 != "" {
			break
		}
	}
	if t1 == "" {
		t.Skip("no cross-worker term pair")
	}
	ms := newMatchSet()
	sys, err := New(Config{
		Dispatchers: 1, Workers: 4,
		Builder: partition.FrequencyBuilder{},
		OnMatch: ms.add,
	}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	center := spec.Bounds.Center()
	q := &model.Query{ID: 1, Expr: model.Or(t1, t2), Region: geo.RectAround(center, 500, 500)}
	o := &model.Object{ID: 2, Terms: []string{t1, t2}, Loc: center}
	sys.Submit(model.Op{Kind: model.OpInsert, Query: q})
	sys.Submit(model.Op{Kind: model.OpObject, Obj: o})
	if err := sys.Drain(2); err != nil {
		t.Fatal(err)
	}
	snap := sys.Snapshot()
	if got := ms.len(); got != 1 {
		t.Errorf("delivered %d matches, want 1 (dup counter %d)", got, snap.Duplicates)
	}
	if snap.Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1 (query stored on workers %v and %v)",
			snap.Duplicates, ta.Owner(t1), ta.Owner(t2))
	}
	if snap.SoloMatches != 0 {
		t.Errorf("SoloMatches = %d for an object routed to two workers, want 0", snap.SoloMatches)
	}
	// An object carrying one of the two terms has one target: its match
	// is delivered without a window probe.
	sys.Submit(model.Op{Kind: model.OpObject, Obj: &model.Object{ID: 3, Terms: []string{t1}, Loc: center}})
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	snap = sys.Snapshot()
	if !ms.has(1, 3) || snap.Matches != 2 || snap.SoloMatches != 1 || snap.Duplicates != 1 {
		t.Errorf("after the one-term object: delivered %v, Matches %d, SoloMatches %d, Duplicates %d; want true, 2, 1, 1",
			ms.has(1, 3), snap.Matches, snap.SoloMatches, snap.Duplicates)
	}
}

func TestThroughputUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sample, ops := smallWorkload(t, workload.Q1, 19, 20000)
	sys, err := New(Config{Workers: 4, Builder: hybrid.Builder{}}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	sys.SubmitAll(ops)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	el := time.Since(start)
	tps := float64(len(ops)) / el.Seconds()
	t.Logf("throughput: %.0f tuples/sec over %d ops", tps, len(ops))
	if tps < 1000 {
		t.Errorf("throughput %.0f tuples/sec implausibly low", tps)
	}
}

func TestConfigDefaults(t *testing.T) {
	var cfg Config
	cfg.fillDefaults()
	if cfg.Dispatchers != 4 || cfg.Workers != 8 || cfg.Mergers != 2 {
		t.Errorf("defaults: %d/%d/%d", cfg.Dispatchers, cfg.Workers, cfg.Mergers)
	}
	if cfg.Builder == nil {
		t.Error("no default builder")
	}
	if fmt.Sprint(cfg.Costs) == fmt.Sprint(Config{}.Costs) {
		t.Error("costs not defaulted")
	}
}
