package core

import (
	"context"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"ps2stream/internal/geo"
	"ps2stream/internal/hybrid"
	"ps2stream/internal/model"
	"ps2stream/internal/wire"
	"ps2stream/internal/workload"
)

// matchPathSystem starts a system in which each of the returned objects
// matches three standing queries: the publish path with every stage doing
// its work — routing, a towork batch, gi2.Match, a matches batch, delivery.
func matchPathSystem(tb testing.TB, onMatch func(model.Match)) (*System, []model.Op) {
	tb.Helper()
	sample, _ := smallWorkload(tb, workload.Q1, 71, 0)
	sys, err := New(Config{Dispatchers: 1, Workers: 2, Mergers: 2, Builder: hybrid.Builder{}, OnMatch: onMatch}, sample)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		tb.Fatal(err)
	}
	at := sys.Bounds().Center()
	for i := 0; i < 3; i++ {
		sys.Submit(model.Op{Kind: model.OpInsert, Query: &model.Query{
			ID: uint64(1 + i), Expr: model.And("matchpathterm"), Region: geo.RectAround(at, 50, 50)}})
	}
	sys.Quiesce(3)
	objs := make([]model.Op, 64)
	for i := range objs {
		objs[i] = objectOp(uint64(100+i), "matchpathterm", at)
	}
	return sys, objs
}

// TestMatchPathAllocs is the allocation gate of the typed batches: in
// steady state a 64-object batch whose every object matches three queries
// goes from Submit to OnMatch without an allocation: the batches are
// pooled and a channel send moves one pointer. The boxed path allocated
// three times per object here, one envelope box per hop.
func TestMatchPathAllocs(t *testing.T) {
	var delivered atomic.Int64
	sys, objs := matchPathSystem(t, func(model.Match) { delivered.Add(1) })
	defer sys.Abort()
	var target int64
	publish := func() {
		sys.SubmitAll(objs)
		target += 3 * int64(len(objs))
		for delivered.Load() < target {
			runtime.Gosched()
		}
	}
	// The rounds re-publish the same 64 message ids, so that the only
	// allocations are the pipeline's: every match must be Solo (checked
	// below), a windowed pair would be dropped as a repeat.
	for i := 0; i < 200; i++ { // warm the pools, the scratch and the histograms
		publish()
	}
	perBatch := testing.AllocsPerRun(300, publish)
	t.Logf("%v allocations per 64-object, 192-match batch", perBatch)
	budget := 1.0
	if raceEnabled {
		budget = 64 // the race detector makes sync.Pool drop batches at random
	}
	if perBatch >= budget {
		t.Errorf("%v allocations per 64-object batch (%.2f per operation), want under %v", perBatch, perBatch/64, budget)
	}
	if snap := sys.Snapshot(); snap.SoloMatches != snap.Matches || snap.Matches != delivered.Load() {
		t.Errorf("SoloMatches %d, Matches %d, delivered %d: the path under test is the one-target path",
			snap.SoloMatches, snap.Matches, delivered.Load())
	}
}

// BenchmarkMatchPath publishes matching objects through a started system:
// per operation, one Submit, one routed envelope, one gi2.Match with three
// hits and three deliveries. The one allocation per operation is the
// caller's: its object, under a fresh message id.
func BenchmarkMatchPath(b *testing.B) {
	sys, objs := matchPathSystem(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := *objs[i%len(objs)].Obj
		o.ID = uint64(1000 + i)
		sys.Submit(model.Op{Kind: model.OpObject, Obj: &o})
	}
	if err := sys.Drain(3 + int64(b.N)); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if got, want := sys.MatchCount(), 3*int64(b.N); got != want {
		b.Fatalf("delivered %d matches, want %d", got, want)
	}
	if err := sys.Close(); err != nil {
		b.Fatal(err)
	}
}

// TestTypedBatchFanout: a batch is sent when it holds BatchSize envelopes
// and on flush, never empty, on the channel of the task it was filled for,
// and each task's channel yields the producer's envelopes in order (the
// per-task FIFO every ordering argument in core rests on); a recycled
// batch comes back empty and cleared.
func TestTypedBatchFanout(t *testing.T) {
	pool := batchPool[wire.MatchEnv]{size: 4}
	queues := newQueues[wire.MatchEnv](3, &Config{QueueCap: 16, BatchSize: pool.size})
	f := newFanout(&pool, queues, nil)
	for i := 0; i < 11; i++ {
		me := wire.MatchEnv{M: model.Match{QueryID: uint64(i)}}
		f.add(i%2, &me) // tasks 0 and 1; task 2 stays empty
	}
	if len(queues[0]) != 1 || len(queues[1]) != 1 || len(queues[2]) != 0 {
		t.Fatalf("before flush: %d, %d, %d batches queued, want one full batch each for tasks 0 and 1",
			len(queues[0]), len(queues[1]), len(queues[2]))
	}
	f.flush()
	f.flush() // nothing left
	want := [][]uint64{{0, 2, 4, 6, 8, 10}, {1, 3, 5, 7, 9}, nil}
	for task, q := range queues {
		close(q)
		var got []uint64
		for b := range q {
			if len(*b) == 0 || len(*b) > pool.size {
				t.Errorf("task %d: a batch holds %d envelopes, want 1..%d", task, len(*b), pool.size)
			}
			for _, me := range *b {
				got = append(got, me.M.QueryID)
			}
		}
		if !slices.Equal(got, want[task]) {
			t.Errorf("task %d received %v, want %v", task, got, want[task])
		}
	}

	p := pool.get()
	*p = append(*p, wire.MatchEnv{M: model.Match{QueryID: 7}, Solo: true})
	pool.put(p)
	if len(*p) != 0 || (*p)[:1][0] != (wire.MatchEnv{}) {
		t.Errorf("a recycled batch holds %v (len %d), want it cleared", (*p)[:1], len(*p))
	}
}

// seriesValue reads one counter or gauge of the system's registry; labels
// are name, value pairs that must all be on the series.
func seriesValue(t *testing.T, sys *System, name string, labels ...string) float64 {
	t.Helper()
next:
	for _, js := range sys.Registry().Gather() {
		if js.Name != name || js.Value == nil {
			continue
		}
		for i := 0; i < len(labels); i += 2 {
			if js.Labels[labels[i]] != labels[i+1] {
				continue next
			}
		}
		return *js.Value
	}
	t.Fatalf("no series %s %v", name, labels)
	return 0
}

// TestTypedBatchSeriesCountOperations: the channels move one batch per
// send, and the per-bolt series still count what an operator reads them
// for — operations into the workers, matches out of them and into
// the mergers — while the queue gauges count batches.
func TestTypedBatchSeriesCountOperations(t *testing.T) {
	sys, objs := matchPathSystem(t, nil)
	defer sys.Abort()
	const rounds = 50
	for i := 0; i < rounds; i++ {
		sys.SubmitAll(objs)
	}
	ops := int64(3 + rounds*len(objs))
	if err := sys.Drain(ops); err != nil {
		t.Fatal(err)
	}
	bolt := func(name, b string) float64 {
		t.Helper()
		return seriesValue(t, sys, name, "bolt", b)
	}
	matches := float64(3 * rounds * len(objs))
	for _, c := range []struct {
		name, bolt string
		want       float64
	}{
		{"ps2_bolt_processed_total", "worker", float64(ops)},
		{"ps2_bolt_emitted_total", "worker", matches},
		{"ps2_bolt_processed_total", "merger", matches},
		{"ps2_bolt_emitted_total", "merger", 0},
	} {
		if got := bolt(c.name, c.bolt); got != c.want {
			t.Errorf("%s{bolt=%q} = %v, want %v", c.name, c.bolt, got, c.want)
		}
	}
	if got := seriesValue(t, sys, "ps2_matches_solo_total"); got != matches {
		t.Errorf("ps2_matches_solo_total = %v, want %v", got, matches)
	}
	wantCap := float64(sys.cfg.QueueCap / sys.cfg.BatchSize * sys.totalSlots())
	if got := bolt("ps2_queue_cap_batches", "worker"); got != wantCap {
		t.Errorf("ps2_queue_cap_batches{worker} = %v, want %v (QueueCap / BatchSize per task)", got, wantCap)
	}
	// One stage observation per batch: far fewer than operations, and at
	// least operations / BatchSize.
	work := sys.StageSnapshots()[StageWorker].Count
	if min := ops / int64(sys.cfg.BatchSize); work < min || work >= ops {
		t.Errorf("%d worker stage observations for %d operations, want between %d and %d", work, ops, min, ops)
	}
}
