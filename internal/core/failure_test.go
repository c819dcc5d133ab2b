package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"ps2stream/internal/geo"
	"ps2stream/internal/hybrid"
	"ps2stream/internal/model"
	"ps2stream/internal/wire"
	"ps2stream/internal/workload"
)

// TestPerTupleWorkSlowsWorkers verifies the simulated per-tuple cluster
// cost is actually charged (the harness depends on it). A slot
// busy-waits PerTupleWork for every operation it processes, one after
// the other, so the run lasts at least its busiest slot's processed
// operations times PerTupleWork. Contention can only lengthen the run,
// so the bound holds on any machine; a run that ignored PerTupleWork
// would finish far inside it.
func TestPerTupleWorkSlowsWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const work = 100 * time.Microsecond
	sample, ops := smallWorkload(t, workload.Q1, 31, 6000)
	sys, err := New(Config{
		Workers:      2,
		Builder:      hybrid.Builder{},
		PerTupleWork: work,
	}, sample)
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
	took := time.Since(start)
	var busiest int64
	for i := range sys.doneOps {
		busiest = max(busiest, sys.doneOps[i].Load())
	}
	if busiest < 500 {
		t.Fatalf("the busiest slot processed %d operations: too few to tell the charge from the run's own cost", busiest)
	}
	want := time.Duration(busiest) * work
	t.Logf("run %v; the busiest slot's %d operations spin %v", took, busiest, want)
	if took < want {
		t.Errorf("PerTupleWork not charged: the run took %v, less than the %v its busiest slot's %d operations spin", took, want, busiest)
	}
}

// TestBackpressureUnderSlowMatchCallback injects a slow OnMatch consumer:
// the system must not drop or duplicate deliveries, just slow down.
func TestBackpressureUnderSlowMatchCallback(t *testing.T) {
	spec := workload.TweetsUS()
	sample := workload.Sample(spec, workload.Q1, 500, 100, 32)
	ms := newMatchSet()
	sys, err := New(Config{
		Workers: 2, Mergers: 1,
		QueueCap: 8, // tiny queues: backpressure engages immediately
		Builder:  hybrid.Builder{},
		OnMatch: func(m model.Match) {
			time.Sleep(100 * time.Microsecond)
			ms.add(m)
		},
	}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	center := spec.Bounds.Center()
	q := &model.Query{ID: 1, Expr: model.And("hot"), Region: geo.RectAround(center, 500, 500)}
	sys.Submit(model.Op{Kind: model.OpInsert, Query: q})
	const n = 500
	for i := 0; i < n; i++ {
		sys.Submit(model.Op{Kind: model.OpObject, Obj: &model.Object{
			ID: uint64(i + 1), Terms: []string{"hot"}, Loc: center,
		}})
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ms.len(); got != n {
		t.Errorf("delivered %d matches, want %d", got, n)
	}
}

// TestMigrationWithConcurrentDeletes exercises the documented migration
// gap: deletions racing a migration may leave a brief stale copy (false
// positives) but must never cause a missed match for live queries.
func TestMigrationWithConcurrentDeletes(t *testing.T) {
	spec := workload.TweetsUS()
	spec.VocabSize = 1000
	sample := workload.Sample(spec, workload.Q1, 3000, 500, 33)
	ms := newMatchSet()
	sys, err := New(Config{
		Workers: 4,
		Builder: hybrid.Builder{},
		OnMatch: ms.add,
		Adjust: AdjustConfig{
			Enabled:      true,
			Sigma:        1.2,
			Interval:     20 * time.Millisecond,
			MinWindowOps: 64,
		},
	}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}

	st := workload.NewStream(spec, workload.Q1, workload.StreamConfig{Mu: 400, Seed: 33})
	warm := st.Prewarm(400)
	hot := geo.Point{
		X: spec.Bounds.Min.X + spec.Bounds.Width()*0.25,
		Y: spec.Bounds.Min.Y + spec.Bounds.Height()*0.25,
	}
	var ops []model.Op
	ops = append(ops, warm...)
	for i := 0; i < 10000; i++ {
		op := st.Next() // includes deletes
		if op.Kind == model.OpObject {
			op.Obj.Loc = geo.Point{X: hot.X + float64(i%5)*0.02, Y: hot.Y + float64(i%9)*0.02}
		}
		ops = append(ops, op)
	}
	want := oracleMatches(ops)
	for i, op := range ops {
		sys.Submit(op)
		if i%1000 == 999 {
			time.Sleep(15 * time.Millisecond)
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	migs := sys.Migrations()
	t.Logf("migrations: %d, oracle matches: %d, delivered: %d", len(migs), len(want), ms.len())
	ms.mu.Lock()
	defer ms.mu.Unlock()
	missing := 0
	for k := range want {
		if ms.seen[k] == 0 {
			missing++
		}
	}
	// No false negatives, ever.
	if missing > 0 {
		t.Errorf("%d/%d oracle matches missing", missing, len(want))
	}
	// False positives are tolerated only for recently-deleted queries —
	// they must stay a tiny fraction.
	extra := 0
	for k := range ms.seen {
		if !want[k] {
			extra++
		}
	}
	if float64(extra) > 0.01*float64(len(want))+5 {
		t.Errorf("%d stale deliveries vs %d oracle matches", extra, len(want))
	}
}

// TestStalledWorkerDoesNotLoseMatches degrades one worker by 200µs per
// object — a stand-in for a CPU-starved or swapping worker. Backpressure
// must slow the pipeline, not drop tuples: the delivered match set stays
// exactly the oracle set.
func TestStalledWorkerDoesNotLoseMatches(t *testing.T) {
	sample, ops := smallWorkload(t, workload.Q1, 35, 3000)
	want := oracleMatches(ops)
	if len(want) == 0 {
		t.Fatal("vacuous workload")
	}
	ms := newMatchSet()
	sys, err := New(Config{
		Workers: 4, Mergers: 1,
		QueueCap: 64,
		Builder:  hybrid.Builder{},
		OnMatch:  ms.add,
	}, sample)
	if err != nil {
		t.Fatal(err)
	}
	var slowed int // objects the degraded worker slept on; its task alone writes it
	beforeBatch(0, func(ops []wire.OpEnv) {
		for i := range ops {
			if ops[i].Op.Kind == model.OpObject {
				slowed++
				time.Sleep(200 * time.Microsecond)
			}
		}
	})(sys)
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	sys.SubmitAll(ops)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if slowed == 0 {
		t.Fatal("vacuous: the degraded worker was handed no objects")
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	missing := 0
	for k := range want {
		if ms.seen[k] == 0 {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d/%d oracle matches missing with a stalled worker", missing, len(want))
	}
}

// TestTinyDedupWindowKeepsSetSemantics shrinks the merger window to 16
// pairs: duplicate deliveries may then slip through (the window is a
// bounded-memory filter, not an exact one), but the delivered *set* must
// still be exactly the oracle set.
func TestTinyDedupWindowKeepsSetSemantics(t *testing.T) {
	sample, ops := smallWorkload(t, workload.Q2, 36, 3000)
	want := oracleMatches(ops)
	if len(want) == 0 {
		t.Fatal("vacuous workload")
	}
	ms := newMatchSet()
	var delivered atomic.Int64
	sys, err := New(Config{
		Workers: 4, Mergers: 1,
		DedupWindow: 16,
		Builder:     hybrid.Builder{},
		OnMatch: func(m model.Match) {
			delivered.Add(1)
			ms.add(m)
		},
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
	ms.mu.Lock()
	defer ms.mu.Unlock()
	for k := range want {
		if ms.seen[k] == 0 {
			t.Fatalf("oracle match %v missing", k)
		}
	}
	for k := range ms.seen {
		if !want[k] {
			t.Fatalf("spurious match %v delivered", k)
		}
	}
}

// TestLiveQueriesExactAfterDrain checks the checkpoint source of truth:
// after the stream drains, LiveQueries is exactly inserted − deleted,
// deduplicated across workers, sorted by id.
func TestLiveQueriesExactAfterDrain(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 37, 0)
	// The subtest names the worker index; GI2 is the only one.
	t.Run("gi2", func(t *testing.T) {
		// Every delete follows its insert in Submit order; the one ingest
		// must keep that order through routing and every worker.
		sys, err := New(Config{
			Workers: 4,
			Builder: hybrid.Builder{},
		}, sample)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		gen := workload.NewQueryGenerator(workload.TweetsUS(), workload.Q1, 37)
		inserted := make([]*model.Query, 0, 300)
		for i := 0; i < 300; i++ {
			q := gen.Query()
			q.ID = uint64(i + 1)
			inserted = append(inserted, q)
			sys.Submit(model.Op{Kind: model.OpInsert, Query: q})
		}
		for i := 0; i < 300; i += 3 {
			sys.Submit(model.Op{Kind: model.OpDelete, Query: inserted[i]})
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		live, err := sys.LiveQueries()
		if err != nil {
			t.Fatal(err)
		}
		wantN := 300 - 100
		if len(live) != wantN {
			t.Fatalf("LiveQueries = %d, want %d", len(live), wantN)
		}
		for i := 1; i < len(live); i++ {
			if live[i-1].ID >= live[i].ID {
				t.Fatalf("LiveQueries not strictly sorted at %d: %d >= %d",
					i, live[i-1].ID, live[i].ID)
			}
		}
		for _, q := range live {
			if (q.ID-1)%3 == 0 {
				t.Fatalf("deleted query %d still live", q.ID)
			}
		}
	})
}

// TestLiveQueriesUnderChurn takes snapshots while the stream is flowing:
// the set may lag the stream but must only ever contain inserted ids,
// deduplicated and sorted.
func TestLiveQueriesUnderChurn(t *testing.T) {
	sample, ops := smallWorkload(t, workload.Q1, 38, 6000)
	sys, err := New(Config{
		Workers: 4,
		Builder: hybrid.Builder{},
	}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	valid := make(map[uint64]bool)
	for _, op := range ops {
		if op.Kind == model.OpInsert {
			valid[op.Query.ID] = true
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sys.SubmitAll(ops)
	}()
	for i := 0; i < 20; i++ {
		live, err := sys.LiveQueries()
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[uint64]bool, len(live))
		for j, q := range live {
			if !valid[q.ID] {
				t.Errorf("snapshot %d: unknown query id %d", i, q.ID)
			}
			if seen[q.ID] {
				t.Errorf("snapshot %d: duplicate id %d", i, q.ID)
			}
			seen[q.ID] = true
			if j > 0 && live[j-1].ID >= q.ID {
				t.Errorf("snapshot %d: unsorted at %d", i, j)
			}
		}
		time.Sleep(time.Millisecond)
	}
	<-done
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteNeverOvertakesInsert is the regression test for a real bug:
// an Unsubscribe that overtakes its Subscribe on the way to a worker
// leaks the query (and its gridt H2 counts) forever. The one ingest routes
// both in Submit order, and each worker's input keeps that order.
func TestDeleteNeverOvertakesInsert(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 39, 0)
	sys, err := New(Config{
		Workers: 8,
		Builder: hybrid.Builder{},
	}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewQueryGenerator(workload.TweetsUS(), workload.Q1, 39)
	// Insert immediately followed by delete, hundreds of times: any
	// reordering between Submit and a worker shows up as a leak.
	for i := 0; i < 500; i++ {
		q := gen.Query()
		q.ID = uint64(i + 1)
		sys.Submit(model.Op{Kind: model.OpInsert, Query: q})
		sys.Submit(model.Op{Kind: model.OpDelete, Query: q})
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	live, err := sys.LiveQueries()
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 0 {
		t.Errorf("%d queries leaked after insert+delete pairs (first: %d)",
			len(live), live[0].ID)
	}
}

// TestAbort ensures Abort tears the topology down without draining.
func TestAbort(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 34, 10)
	sys, err := New(Config{Workers: 2, Builder: hybrid.Builder{}}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		sys.Abort()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Abort did not return")
	}
}
