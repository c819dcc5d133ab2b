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
	"ps2stream/internal/model"
	"ps2stream/internal/wire"
	"ps2stream/internal/workload"
)

// TestTaskPanicStopsRun: one panicking task — here a subscriber's OnMatch
// on every merger — stops the whole run instead of leaving the rest of the
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
	sys.Quiesce(1)
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
		if err := sys.Drain(1 + objects); err == nil {
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
				close(release) // the merger's callback is the one thing Abort cannot interrupt
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

// TestAdvanceRouteWaitsForRoutingChunks pins the route fence handOff relies
// on: advanceRoute returns only once a dispatcher chunk that was routing
// when it was called has finished and counted its operations in enqueued.
func TestAdvanceRouteWaitsForRoutingChunks(t *testing.T) {
	routing, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	sys := startIngestSystem(t, Config{Workers: 2, Builder: &idRouter{route: func(uint64) int {
		once.Do(func() {
			close(routing)
			<-release // the chunk stalls mid-route, under routeMu's read side
		})
		return 0
	}}})
	sys.Submit(objectOp(1, "x", sys.Bounds().Center()))
	within(t, 5*time.Second, "the dispatcher routing the object", routing)
	advanced := make(chan struct{})
	go func() {
		defer close(advanced)
		sys.advanceRoute()
	}()
	select {
	case <-advanced:
		t.Fatal("advanceRoute returned while a chunk routed under the old epoch was still routing")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	within(t, 5*time.Second, "advanceRoute returning once the chunk finished", advanced)
	if n := sys.enqueued[0].Load(); n != 1 {
		t.Errorf("after advanceRoute, enqueued covers %d operations of the old-epoch chunk, want 1", n)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAdvanceRouteEpochRisesOnePerCall: a fresh system is at route epoch 0,
// and every advanceRoute moves it up by exactly one.
func TestAdvanceRouteEpochRisesOnePerCall(t *testing.T) {
	sys := startIngestSystem(t, Config{Workers: 2, Builder: hybrid.Builder{}})
	if e := sys.RouteEpoch(); e != 0 {
		t.Fatalf("a fresh system is at route epoch %d, want 0", e)
	}
	for want := uint64(1); want <= 3; want++ {
		sys.advanceRoute()
		if e := sys.RouteEpoch(); e != want {
			t.Fatalf("route epoch %d after %d advances", e, want)
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAdvanceRouteUnderConcurrentRouting hammers the fence: advances race
// the dispatcher routing a steady stream (run under -race in CI). Every
// advance counts once in the epoch, and every published operation is
// routed and counted exactly once.
func TestAdvanceRouteUnderConcurrentRouting(t *testing.T) {
	const workers, advances = 4, 200
	sys := startIngestSystem(t, Config{Workers: workers, QueueCap: 64, BatchSize: 8,
		Builder: &idRouter{route: func(id uint64) int { return int(id % workers) }}})
	at := sys.Bounds().Center()
	var stop atomic.Bool
	var submitted int64
	published := make(chan struct{})
	go func() {
		defer close(published)
		for id := uint64(1); !stop.Load(); id++ {
			sys.Submit(objectOp(id, "x", at))
			submitted++
		}
	}()
	for i := 0; i < advances; i++ {
		sys.advanceRoute()
	}
	stop.Store(true)
	within(t, 5*time.Second, "the publisher stopping", published)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if e := sys.RouteEpoch(); e != advances {
		t.Errorf("route epoch %d after %d advances", e, advances)
	}
	var enqueued int64
	for w := range workers {
		enqueued += sys.enqueued[w].Load()
	}
	if p := sys.Snapshot().Processed; p != submitted || enqueued != submitted {
		t.Errorf("%d operations published, %d routed, %d enqueued", submitted, p, enqueued)
	}
}

// TestFanoutDeliversToAddressedTask: every envelope a producer adds for a
// task reaches that task's consumer and no other, with each consumer on its
// own goroutine as in the run.
func TestFanoutDeliversToAddressedTask(t *testing.T) {
	const tasks, perTask = 3, 30
	pool := batchPool[wire.OpEnv]{size: 16}
	queues := newQueues[wire.OpEnv](tasks, &Config{QueueCap: 64, BatchSize: pool.size})
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
			})
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
		h := sys.hop(i)
		h.mu.Lock()
		closing, exited := h.closing, h.exited
		h.mu.Unlock()
		if !closing || !exited {
			t.Errorf("hop %d after Close: closing %v, reader exited %v, want both", i, closing, exited)
		}
	}
}
