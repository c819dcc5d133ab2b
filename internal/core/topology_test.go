package core

import (
	"context"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ps2stream/internal/geo"
	"ps2stream/internal/hybrid"
	"ps2stream/internal/index/grid"
	"ps2stream/internal/model"
	"ps2stream/internal/wire"
	"ps2stream/internal/workload"
)

// TestTaskPanicStopsRun: one panicking task — here a subscriber's OnMatch
// on every task that delivers a match — stops the whole run instead of leaving the rest of the
// pipeline to fill its queues behind it. A publisher parked on the full
// ingest returns, the Drain barrier fails instead of waiting on a stopped
// topology, and Close reports the panic.
func TestTaskPanicStopsRun(t *testing.T) {
	sys := startIngestSystem(t, Config{
		Workers: 4, Mergers: 2, QueueCap: 64, Builder: hybrid.Builder{},
		OnMatch: func(model.Match) { panic("subscriber bug") },
	})
	at := sys.Bounds().Center()
	q := &model.Query{ID: 1, Expr: model.And("hot"), Region: geo.RectAround(at, 100, 100)}
	sys.Submit(model.Op{Kind: model.OpInsert, Query: q})
	sys.Drain()
	const objects = 20000
	published := make(chan struct{})
	go func() {
		defer close(published)
		for i := 0; i < objects; i++ {
			sys.Submit(objectOp(uint64(i+1), "hot", at))
		}
	}()
	within(t, 5*time.Second, "publishing after a task panicked", published)

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		if err := sys.Drain(); err == nil {
			t.Error("Drain returned nil after a task panicked")
		}
	}()
	within(t, 5*time.Second, "Drain returning after a task panicked", drained)

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		err := sys.Close()
		if err == nil || !strings.Contains(err.Error(), "subscriber bug") {
			t.Errorf("Close = %v, want an error naming the panic", err)
		}
	}()
	within(t, 5*time.Second, "Close returning after a task panicked", closed)
}

// TestTaskPanicUnderMergerLock: a match that can repeat is deduplicated
// and delivered under its merger's lock by the worker task that found it,
// so a panic in OnMatch is raised there with the lock held. On a cell
// split by text, both owners report the matches of an object carrying
// both keys to the one merger. The test holds the merger's lock until
// both owners have matched such an object and so wait on it; the first to
// take it panics, and the lock is released on the way out, so the other
// takes it too and does not hang. Close returns both panics, and no
// goroutine is left behind.
func TestTaskPanicUnderMergerLock(t *testing.T) {
	before := runtime.NumGoroutine()
	sample, _ := smallWorkload(t, workload.Q1, 62, 0)
	const bug = "two-key subscriber bug"
	sys, err := New(Config{Workers: 4, Mergers: 1, Builder: hybrid.Builder{}, OnMatch: func(m model.Match) {
		if m.ObjectID == 5000 {
			panic(bug)
		}
	}}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	gt := sys.gridT.Load()
	center := sample.Bounds.Center()
	cell := gt.Grid().CellOf(center)
	if gt.IsTextCell(cell) {
		t.Skip("sample produced a text cell at the centre; space cell needed")
	}
	region := geo.RectAround(center, 5, 5)
	for i := 0; i < 10; i++ {
		sys.Submit(model.Op{Kind: model.OpInsert, Query: &model.Query{ID: uint64(1 + i), Expr: model.And("splitkeya"), Region: region}})
		sys.Submit(model.Op{Kind: model.OpInsert, Query: &model.Query{ID: uint64(101 + i), Expr: model.And("splitkeyb"), Region: region}})
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	wo := gt.CellWorkers(cell)[0]
	wl := (wo + 1) % 4
	if moved, _, ok := sys.migrateSplit(wo, wl, cell, []string{"splitkeya"}); !ok || moved != 10 {
		t.Fatalf("migrateSplit moved %d queries (ok %v), want 10", moved, ok)
	}

	shard := &sys.shards[0]
	shard.mu.Lock()
	seen := func(w int) int64 { return sys.lastStats(w).Objects }
	fromO, fromL := seen(wo), seen(wl)
	sys.Submit(model.Op{Kind: model.OpObject, Obj: &model.Object{ID: 5000, Terms: []string{"splitkeya", "splitkeyb"}, Loc: center}})
	deadline := time.Now().Add(5 * time.Second)
	for seen(wo) == fromO || seen(wl) == fromL {
		if time.Now().After(deadline) {
			shard.mu.Unlock()
			t.Fatalf("the two-key object did not reach both owners (workers %d and %d)", wo, wl)
		}
		time.Sleep(time.Millisecond)
	}
	shard.mu.Unlock()

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		err := sys.Close()
		for _, w := range []int{wo, wl} {
			if want := "worker[" + strconv.Itoa(w) + "]: " + bug; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("Close = %v, want an error naming %q", err, want)
			}
		}
	}()
	within(t, 5*time.Second, "Close returning after a panic under a merger's lock", closed)
	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before New:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunLeavesNoGoroutines: every goroutine the run starts is gone after
// Close, and after an Abort that finds a publisher parked on full queues
// behind a stalled subscriber.
func TestRunLeavesNoGoroutines(t *testing.T) {
	for _, shutdown := range []string{"Close", "Abort"} {
		t.Run(shutdown, func(t *testing.T) {
			before := runtime.NumGoroutine()
			release := make(chan struct{})
			sys := startIngestSystem(t, Config{
				Workers: 2, Mergers: 1, QueueCap: 16, BatchSize: 4,
				Builder: hybrid.Builder{},
				OnMatch: func(model.Match) { <-release },
			})
			at := sys.Bounds().Center()
			q := &model.Query{ID: 1, Expr: model.And("hot"), Region: geo.RectAround(at, 100, 100)}
			sys.Submit(model.Op{Kind: model.OpInsert, Query: q})
			if shutdown == "Close" {
				close(release)
				for id := uint64(1); id <= 1000; id++ {
					sys.Submit(objectOp(id, "hot", at))
				}
				if err := sys.Close(); err != nil {
					t.Fatal(err)
				}
			} else {
				var returned atomic.Int64
				var stop atomic.Bool
				published := make(chan struct{})
				go func() {
					defer close(published)
					for id := uint64(1); !stop.Load(); id++ {
						sys.Submit(objectOp(id, "hot", at))
						returned.Add(1)
					}
				}()
				waitParked(t, sys, &returned)
				stop.Store(true)
				aborted := make(chan struct{})
				go func() {
					defer close(aborted)
					sys.Abort()
				}()
				within(t, time.Second, "the parked Submit returning", published)
				close(release) // the callback is the one thing Abort cannot interrupt
				within(t, time.Second, "Abort returning", aborted)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines after %s, %d before New:\n%s",
						runtime.NumGoroutine(), shutdown, before, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestAdvanceRouteWaitsForRoutingChunks pins where a migration's cut falls
// in the stream. Object 1 stalls mid-route under the old table before
// handOff starts: the cut, and so the routing flip, waits for it. The
// source then stalls before applying object 1: the extraction, handed to
// the source through its hold, waits for it. Object 2, submitted once
// handOff has started, routes under the new table and reaches the
// destination only after the install, so it matches the moved query there.
func TestAdvanceRouteWaitsForRoutingChunks(t *testing.T) {
	type stall struct{ reached, release chan struct{} }
	routing := stall{make(chan struct{}), make(chan struct{})}
	applying := stall{make(chan struct{}), make(chan struct{})}
	var target atomic.Int64  // the routing table: every operation goes here
	var heldAt2 atomic.Int64 // queries the destination held when object 2 reached it
	heldAt2.Store(-1)
	ms := newMatchSet()
	sys := startIngestSystem(t, Config{Workers: 2, OnMatch: ms.add, Builder: &idRouter{route: func(id uint64) int {
		w := int(target.Load())
		if id == 1 {
			close(routing.reached)
			<-routing.release // the chunk stalls mid-route, its target already read
		}
		return w
	}}}, beforeBatch(0, func(ops []wire.OpEnv) {
		for _, env := range ops {
			if env.Op.Kind == model.OpObject && env.Op.Obj.ID == 1 {
				close(applying.reached)
				<-applying.release // the source holds the operation before applying it
			}
		}
	}), func(sys *System) {
		sys.bolts[1].beforeBatch = func(ops []wire.OpEnv) {
			for _, env := range ops {
				if env.Op.Kind == model.OpObject && env.Op.Obj.ID == 2 {
					heldAt2.Store(sys.bolts[1].eng.Stats().Queries)
				}
			}
		}
	})
	g := grid.New(sys.Bounds(), sys.cfg.Granularity, sys.cfg.Granularity)
	cell := g.CellOf(sys.Bounds().Center())
	at := g.CellRect(cell).Center()
	q := &model.Query{ID: 7, Expr: model.And("x"), Region: geo.RectAround(at, 1, 1).Clip(g.CellRect(cell))}
	sys.Submit(model.Op{Kind: model.OpInsert, Query: q})
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	sys.Submit(objectOp(1, "x", at))
	within(t, 5*time.Second, "the dispatcher routing object 1", routing.reached)
	flipped := make(chan struct{})
	watchFlip := (<-chan struct{})(flipped)
	type result struct {
		moved int
		ok    bool
	}
	handed := make(chan result, 1)
	go func() {
		moved, _, ok := sys.handOff(0, 1, cell, nil, func() {
			close(flipped)
			target.Store(1)
		})
		handed <- result{moved, ok}
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		sys.ingest.mu.Lock()
		queued := len(sys.ingest.marks)
		sys.ingest.mu.Unlock()
		if queued > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("handOff's cut never reached the ingest")
		}
	}
	sys.Submit(objectOp(2, "x", at))
	notYet := func(what, while string) {
		t.Helper()
		select {
		case <-watchFlip:
			t.Fatalf("the migration flipped routing while %s", while)
		case <-handed:
			t.Fatalf("the migration %s while %s", what, while)
		case <-time.After(20 * time.Millisecond):
		}
	}
	notYet("finished", "object 1, routed under the old table, was still routing")
	close(routing.release)
	within(t, 5*time.Second, "the routing flip", flipped)
	watchFlip = nil // the cut has run; only the extraction is left to wait
	within(t, 5*time.Second, "the source receiving object 1", applying.reached)
	notYet("finished", "the source had not applied object 1")
	if n := heldAt2.Load(); n >= 0 {
		t.Fatalf("object 2 reached the destination before the hand-off finished (it held %d queries)", n)
	}
	close(applying.release)
	select {
	case r := <-handed:
		if !r.ok || r.moved != 1 {
			t.Fatalf("handOff moved %d queries, ok %v; want the one query", r.moved, r.ok)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handOff still waiting after the source applied object 1")
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	if n := heldAt2.Load(); n != 1 {
		t.Errorf("the destination held %d queries when object 2 reached it, want the installed one", n)
	}
	for _, o := range []uint64{1, 2} {
		if !ms.has(q.ID, o) {
			t.Errorf("missed the match of object %d", o)
		}
	}
	if n := sys.bolts[0].eng.Stats().Objects; n != 1 {
		t.Errorf("the source applied %d objects, want only object 1", n)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAdvanceRouteEpochRisesOnePerCall: a fresh system is at route epoch 0,
// and every migration's routing flip moves it up by exactly one.
func TestAdvanceRouteEpochRisesOnePerCall(t *testing.T) {
	var target atomic.Int64
	sys := startIngestSystem(t, Config{Workers: 2, Builder: &idRouter{route: func(uint64) int {
		return int(target.Load())
	}}})
	if e := sys.RouteEpoch(); e != 0 {
		t.Fatalf("a fresh system is at route epoch %d, want 0", e)
	}
	for want := uint64(1); want <= 3; want++ {
		wo, wl := int(target.Load()), 1-int(target.Load())
		if _, _, ok := sys.handOff(wo, wl, 0, nil, func() { target.Store(int64(wl)) }); !ok {
			t.Fatalf("handOff %d failed", want)
		}
		if e := sys.RouteEpoch(); e != want {
			t.Fatalf("route epoch %d after %d migrations", e, want)
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainReturnsUnderSustainedPublish: Drain waits for the operations
// accepted before it, not for the system to go quiet. One publisher never
// pauses and worker 0 is slowed; Drain still returns promptly, and every
// operation whose Submit returned before the call has been applied.
func TestDrainReturnsUnderSustainedPublish(t *testing.T) {
	const workers = 2
	var applied [workers]atomic.Uint64 // the last object id each worker's engine was handed
	record := func(w int, slow time.Duration) func(*System) {
		return beforeBatch(w, func(ops []wire.OpEnv) {
			time.Sleep(slow)
			applied[w].Store(ops[len(ops)-1].Op.Obj.ID)
		})
	}
	sys := startIngestSystem(t, Config{Workers: workers, Mergers: 1,
		Builder: &idRouter{route: func(id uint64) int { return int(id % workers) }}},
		record(0, 100*time.Microsecond), record(1, 0))
	at := sys.Bounds().Center()
	var returned atomic.Uint64
	var stop atomic.Bool
	published := make(chan struct{})
	go func() {
		defer close(published)
		for id := uint64(1); !stop.Load(); id++ {
			sys.Submit(objectOp(id, "x", at))
			returned.Store(id)
		}
	}()
	for returned.Load() < 4000 {
		time.Sleep(time.Millisecond)
	}
	accepted := returned.Load()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		if err := sys.Drain(); err != nil {
			t.Errorf("Drain: %v", err)
		}
	}()
	within(t, 5*time.Second, "Drain returning while the publisher keeps going", drained)
	after := returned.Load()
	for id := accepted - 1; id <= accepted; id++ {
		if got := applied[id%workers].Load(); got < id {
			t.Errorf("after Drain, worker %d has applied up to object %d; object %d was accepted before the call",
				id%workers, got, id)
		}
	}
	stop.Store(true)
	within(t, 5*time.Second, "the publisher stopping", published)
	if after == accepted {
		t.Error("nothing was published while Drain waited: the test did not drain under load")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFanoutDeliversToAddressedTask: every envelope a producer adds for a
// task reaches that task's consumer and no other, with each consumer on its
// own goroutine as in the run.
func TestFanoutDeliversToAddressedTask(t *testing.T) {
	const tasks, perTask = 3, 30
	pool := batchPool{size: 16}
	queues := newQueues(tasks, &Config{QueueCap: 64, BatchSize: pool.size})
	done := make(chan struct{})
	f := newFanout(&pool, queues, done)
	counts := make([]atomic.Int64, tasks)
	var wg sync.WaitGroup
	for task, q := range queues {
		wg.Add(1)
		go func() {
			defer wg.Done()
			consume(q, done, func(b *[]wire.OpEnv) {
				for _, env := range *b {
					if id := env.Op.Obj.ID; int(id%tasks) != task {
						t.Errorf("object %d delivered to task %d", id, task)
					}
					counts[task].Add(1)
				}
				pool.put(b)
			}, nil, nil)
		}()
	}
	for i := 0; i < tasks*perTask; i++ {
		env := wire.OpEnv{Op: objectOp(uint64(i), "x", geo.Point{})}
		f.add(i%tasks, &env)
	}
	f.flush()
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	for task := range counts {
		if got := counts[task].Load(); got != perTask {
			t.Errorf("task %d received %d, want %d", task, got, perTask)
		}
	}
}

// TestWorkerSeesPerKeyPublishOrder: operations sharing a routing key reach
// their worker's engine in publish order, through the dispatcher,
// odd-sized batches and the partial batches flushed at the end — the
// FIFO a subscription's delete relies on never to overtake its insert.
func TestWorkerSeesPerKeyPublishOrder(t *testing.T) {
	const keys, perKey, workers = 8, 200, 4 // keys*perKey is no multiple of BatchSize
	route := func(id uint64) int { return int(id % workers) }
	var mu sync.Mutex
	task := make(map[uint64]int)
	seqs := make(map[uint64][]string)
	// Every worker records each object its engine is handed, in order.
	var record []func(*System)
	for w := 0; w < workers; w++ {
		record = append(record, beforeBatch(w, func(ops []wire.OpEnv) {
			mu.Lock()
			defer mu.Unlock()
			for i := range ops {
				if o := ops[i].Op.Obj; o != nil {
					task[o.ID] = w
					seqs[o.ID] = append(seqs[o.ID], o.Terms[0])
				}
			}
		}))
	}
	sys := startIngestSystem(t, Config{Workers: workers, QueueCap: 64, BatchSize: 7,
		Builder: &idRouter{route: route}}, record...)
	at := sys.Bounds().Center()
	for i := 0; i < keys*perKey; i++ {
		sys.Submit(objectOp(uint64(i%keys), strconv.Itoa(i/keys), at))
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != keys {
		t.Fatalf("workers saw %d keys, want %d", len(seqs), keys)
	}
	for key, seq := range seqs {
		if task[key] != route(key) {
			t.Errorf("key %d reached worker %d, want %d", key, task[key], route(key))
		}
		if len(seq) != perKey {
			t.Errorf("key %d: worker saw %d operations, want %d (partial batch dropped?)", key, len(seq), perKey)
			continue
		}
		for at, s := range seq {
			if s != strconv.Itoa(at) {
				t.Errorf("key %d: operation %s reached the worker in position %d", key, s, at)
				break
			}
		}
	}
}

// TestRemoteForwarderClosesItsHop: the forwarder of an out-of-process
// worker slot closes its hop once its task ends after the drain, so the
// node ends the slot's match stream, the slot's reader stops, and Close
// returns instead of waiting on a stream nothing would end.
func TestRemoteForwarderClosesItsHop(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 51, 0)
	cfg := Config{Workers: 2, Mergers: 1,
		Builder: &idRouter{route: func(id uint64) int { return int(id % 2) }}}
	if err := cfg.ConnectRemoteWorkers(startWorkerNodes(t, 2), sample, wire.Backoff{Attempts: 5}); err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	at := sys.Bounds().Center()
	for id := uint64(1); id <= 100; id++ {
		sys.Submit(objectOp(id, "x", at))
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		if err := sys.Close(); err != nil {
			t.Errorf("Close = %v", err)
		}
	}()
	within(t, 5*time.Second, "Close returning", closed)
	for i := 0; i < cfg.Workers; i++ {
		// gone with no cause: reached through closing, not failed.
		if st, cause := sys.hop(i).status(); st != stateGone || cause != nil {
			t.Errorf("hop %d after Close: %v (cause %v), want gone, reached through closing", i, st, cause)
		}
	}
}
