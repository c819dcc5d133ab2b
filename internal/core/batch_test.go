package core

import (
	"context"
	"sort"
	"testing"

	"ps2stream/internal/geo"
	"ps2stream/internal/model"
	"ps2stream/internal/wire"
	"ps2stream/internal/workload"
)

// runBatched drives a fixed seeded workload — µ standing subscriptions,
// then a burst of published objects — through a system with the given
// batch size and returns the delivered match set.
func runBatched(t *testing.T, batchSize int) ([][2]uint64, int) {
	t.Helper()
	spec := workload.TweetsUS()
	const mu, nObjects = 600, 3000
	sample := workload.Sample(spec, workload.Q1, 2000, 400, 77)
	ms := newMatchSet()
	sys, err := New(Config{
		Dispatchers: 2,
		Workers:     4,
		Mergers:     2,
		BatchSize:   batchSize,
		OnMatch:     ms.add,
	}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := workload.NewStream(spec, workload.Q1, workload.StreamConfig{Mu: mu, Seed: 77})
	warm := st.Prewarm(mu)
	sys.SubmitAll(warm)
	// Barrier: all subscriptions must be applied on the workers before
	// any object is published, so matching is deterministic across runs
	// regardless of batch size. A stuck pipeline surfaces as the package
	// test timeout.
	sys.Quiesce(int64(len(warm)))
	gen := workload.NewGenerator(spec, 770)
	submitted := int64(len(warm))
	for i := 0; i < nObjects; i++ {
		sys.Submit(model.Op{Kind: model.OpObject, Obj: gen.Object()})
		submitted++
	}
	sys.Quiesce(submitted)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make([][2]uint64, 0, len(ms.seen))
	for k := range ms.seen {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out, len(out)
}

// TestBatchedPublishMatchesUnbatched pins the batched pipeline's
// correctness: the same seeded workload must produce the identical match
// set whether tuples move one at a time (BatchSize 1) or in batches.
func TestBatchedPublishMatchesUnbatched(t *testing.T) {
	base, nBase := runBatched(t, 1)
	for _, bs := range []int{8, DefaultBatchSize} {
		got, n := runBatched(t, bs)
		if n != nBase {
			t.Fatalf("BatchSize %d delivered %d distinct matches, unbatched delivered %d", bs, n, nBase)
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("BatchSize %d match set diverges at %d: got %v, want %v", bs, i, got[i], base[i])
			}
		}
	}
	if nBase == 0 {
		t.Fatal("workload produced no matches; the equivalence check is vacuous")
	}
}

// opBatch fills a pooled towork batch with ops, as a dispatcher does.
func opBatch(sys *System, ops ...wire.OpEnv) *[]wire.OpEnv {
	batch := sys.opBatches.get()
	*batch = append(*batch, ops...)
	return batch
}

// TestWorkerBoltNoMatchBatchAllocs pins the in-process hot path: a
// 64-object typed batch that meets a standing query it does not satisfy
// goes through the local worker bolt — the slot lock, the engine, the
// board, latency accounting, the batch's return to its pool — without
// allocating.
func TestWorkerBoltNoMatchBatchAllocs(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 1, 10)
	sys, err := New(Config{Dispatchers: 1, Workers: 2}, sample)
	if err != nil {
		t.Fatal(err)
	}
	bolt := &workerBolt{s: sys, task: 0, local: sys.slots[0].(*localWorker),
		split: newFanout(&sys.matchBatches, sys.toMerge, nil)}
	at := sample.Bounds.Center()
	q := &model.Query{ID: 1, Expr: model.And("nomatchterm"), Region: geo.RectAround(at, 50, 50)}
	bolt.process(opBatch(sys, wire.OpEnv{Op: model.Op{Kind: model.OpInsert, Query: q}, T0: sys.now()}))
	ops := make([]wire.OpEnv, 64)
	for i := range ops {
		o := &model.Object{ID: uint64(100 + i), Terms: []string{"alpha", "beta"}, Loc: at}
		ops[i] = wire.OpEnv{Op: model.Op{Kind: model.OpObject, Obj: o}, T0: sys.now()}
	}
	bolt.process(opBatch(sys, ops...)) // warm the pool
	if n := testing.AllocsPerRun(200, func() { bolt.process(opBatch(sys, ops...)) }); n > 0 {
		t.Errorf("a 64-object no-match batch through the worker bolt allocates %v times, want 0", n)
	}
	if got := sys.slots[0].LastStats(); got.Objects != 64*202 || got.Inserts != 1 {
		t.Errorf("engine counted %d objects and %d inserts, want %d and 1", got.Objects, got.Inserts, 64*202)
	}
}
