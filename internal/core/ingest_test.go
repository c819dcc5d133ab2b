package core

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ps2stream/internal/geo"
	"ps2stream/internal/gi2"
	"ps2stream/internal/hybrid"
	"ps2stream/internal/model"
	"ps2stream/internal/partition"
	"ps2stream/internal/qindex"
	"ps2stream/internal/textutil"
	"ps2stream/internal/workload"
)

// idRouter is a distribution strategy for the ingest tests: objects and
// queries alike go to the one worker route names for their id, and every
// call a dispatcher makes is recorded per id — an object by its first
// term, a query as "I" or "D" — so a test can read the order in which the
// dispatchers saw each id's operations.
type idRouter struct {
	workers int
	route   func(id uint64) int

	mu   sync.Mutex
	seen map[uint64][]string
}

func (r *idRouter) Name() string { return "by-id" }

func (r *idRouter) Build(_ *partition.Sample, m int) (partition.Assignment, error) {
	r.workers = m
	r.seen = make(map[uint64][]string)
	return r, nil
}

func (r *idRouter) record(id uint64, what string) []int {
	r.mu.Lock()
	r.seen[id] = append(r.seen[id], what)
	r.mu.Unlock()
	return []int{r.route(id)}
}

func (r *idRouter) RouteObject(o *model.Object) []int { return r.record(o.ID, o.Terms[0]) }

func (r *idRouter) RouteQuery(q *model.Query, insert bool) []int {
	if insert {
		return r.record(q.ID, "I")
	}
	return r.record(q.ID, "D")
}

func (r *idRouter) NumWorkers() int  { return r.workers }
func (r *idRouter) Footprint() int64 { return 0 }

// hookIndex is a worker index that calls onMatch before every Match: a
// hook that blocks makes a worker that is alive but stalled.
type hookIndex struct {
	qindex.Index
	onMatch func()
}

func (h *hookIndex) Match(o *model.Object, fn func(q *model.Query)) {
	h.onMatch()
	h.Index.Match(o, fn)
}

// indexForWorker builds GI2 for every worker and wraps the given worker's
// with wrap (New builds the slots in task order).
func indexForWorker(task int, wrap func(qindex.Index) qindex.Index) IndexFactory {
	built := 0
	return func(bounds geo.Rect, granularity int, stats *textutil.Stats) qindex.Index {
		ix := qindex.Index(gi2.New(bounds, granularity, stats))
		if built++; built-1 == task {
			return wrap(ix)
		}
		return ix
	}
}

func startIngestSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	sample, _ := smallWorkload(t, workload.Q1, 51, 0)
	sys, err := New(cfg, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	return sys
}

func objectOp(id uint64, term string, at geo.Point) model.Op {
	return model.Op{Kind: model.OpObject, Obj: &model.Object{ID: id, Terms: []string{term}, Loc: at}}
}

// waitParked returns once a publisher has parked on a full shard and the
// count of returned Submits has stopped moving, which is the stalled
// pipeline's final state.
func waitParked(t *testing.T, sys *System, returned *atomic.Int64) int64 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		before := returned.Load()
		time.Sleep(50 * time.Millisecond)
		if sys.ingestBlocked.Value() > 0 && returned.Load() == before {
			return before
		}
		if time.Now().After(deadline) {
			t.Fatalf("no publisher parked: %d Submits returned, %d waits", before, sys.ingestBlocked.Value())
		}
	}
}

func within(t *testing.T, d time.Duration, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not happen within %v", what, d)
	}
}

// (a) Order: operations with equal RouteHash reach one dispatcher in
// Submit order, whatever the other publishers do.
func TestIngestKeepsSubmitOrderPerID(t *testing.T) {
	router := &idRouter{route: func(id uint64) int { return int(id % 4) }}
	sys := startIngestSystem(t, Config{Dispatchers: 4, Workers: 4, QueueCap: 256, BatchSize: 8, Builder: router})
	at := sys.Bounds().Center()
	const publishers, pairs, rounds = 4, 200, 25
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			base := uint64(p+1) * 10000
			for i := 0; i < pairs; i++ {
				q := &model.Query{ID: base + uint64(i), Expr: model.And("x"), Region: geo.RectAround(at, 10, 10)}
				sys.Submit(model.Op{Kind: model.OpInsert, Query: q})
				// The same object ids again and again, numbered by round.
				sys.Submit(objectOp(base+5000+uint64(i%8), strconv.Itoa(i/8), at))
				sys.Submit(model.Op{Kind: model.OpDelete, Query: q})
			}
		}(p)
	}
	wg.Wait()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if live := sys.LiveQueries(); len(live) != 0 {
		t.Errorf("%d queries live after every pair was deleted (first: %d)", len(live), live[0].ID)
	}
	router.mu.Lock()
	defer router.mu.Unlock()
	if want := publishers * (pairs + 8); len(router.seen) != want {
		t.Fatalf("dispatchers saw %d ids, want %d", len(router.seen), want)
	}
	for id, seq := range router.seen {
		if id%10000 < 5000 {
			if len(seq) != 2 || seq[0] != "I" || seq[1] != "D" {
				t.Errorf("query %d: dispatcher saw %v, want [I D]", id, seq)
			}
			continue
		}
		if len(seq) != rounds {
			t.Errorf("object %d: dispatcher saw %d publications, want %d", id, len(seq), rounds)
			continue
		}
		for at, round := range seq {
			if round != strconv.Itoa(at) {
				t.Errorf("object %d: publication %s arrived in position %d (%v)", id, round, at, seq)
				break
			}
		}
	}
}

// (b) Bound: with worker 0 stalled, Submit parks after a number of
// accepted operations bounded by the queues between it and the worker,
// and goes on when the stall lifts.
func TestIngestBlocksAtItsBound(t *testing.T) {
	const queueCap, batch = 256, 16
	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	sys := startIngestSystem(t, Config{
		Dispatchers: 1, Workers: 1, Mergers: 1, QueueCap: queueCap, BatchSize: batch,
		Builder: &idRouter{route: func(uint64) int { return 0 }},
		IndexFactory: indexForWorker(0, func(ix qindex.Index) qindex.Index {
			return &hookIndex{Index: ix, onMatch: func() {
				once.Do(func() { close(entered) })
				<-gate
			}}
		}),
	})
	shard := sys.ingest[0].limit
	if shard != queueCap {
		t.Fatalf("shard accepts %d operations, want QueueCap / Dispatchers = %d", shard, queueCap)
	}
	const total = 8 * queueCap
	at := sys.Bounds().Center()
	var returned atomic.Int64
	published := make(chan struct{})
	go func() {
		defer close(published)
		for i := 0; i < total; i++ {
			sys.Submit(objectOp(uint64(i+1), "x", at))
			returned.Add(1)
		}
	}()
	within(t, 5*time.Second, "the worker's first Match", entered)
	// What can be accepted and not processed: the shard and the buffer its
	// dispatcher took (QueueCap / Dispatchers each), what its open towork
	// batch kept of earlier buffers (under one batch), the worker's queue and
	// the batch the worker holds. The parent's channel, spout, dispatcher
	// queue and dispatcher held queueCap + 2*batch more than the ingest's
	// second buffer does.
	workerQueue := cap(sys.towork[0]) * batch
	if workerQueue != queueCap {
		t.Fatalf("the worker's queue holds %d operations, want QueueCap = %d", workerQueue, queueCap)
	}
	bound := int64(2*shard + (batch - 1) + workerQueue + batch)
	accepted := waitParked(t, sys, &returned)
	if accepted < int64(shard) || accepted > bound {
		t.Errorf("Submit parked after %d accepted operations, want between %d (one shard) and %d", accepted, shard, bound)
	}
	if depth := sys.ingest[0].depth(); depth != shard {
		t.Errorf("the full shard holds %d operations, want %d", depth, shard)
	}
	close(gate)
	within(t, 10*time.Second, "publishing the rest after the stall lifted", published)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sys.Processed(); got != total {
		t.Errorf("routed %d operations, want %d", got, total)
	}
}

// (c) Promptness: an idle system routes a single operation at once; no
// Flush, no timer.
func TestIngestDeliversOneOperationPromptly(t *testing.T) {
	delivered := make(chan model.Match, 1)
	sys := startIngestSystem(t, Config{
		Dispatchers: 2, Workers: 4, Builder: hybrid.Builder{},
		OnMatch: func(m model.Match) { delivered <- m },
	})
	defer sys.Abort()
	at := sys.Bounds().Center()
	q := &model.Query{ID: 7, Expr: model.And("hot"), Region: geo.RectAround(at, 100, 100)}
	sys.Submit(model.Op{Kind: model.OpInsert, Query: q})
	sys.Quiesce(1)
	sys.Submit(objectOp(99, "hot", at))
	select {
	case m := <-delivered:
		if m.QueryID != 7 || m.ObjectID != 99 {
			t.Errorf("delivered %+v, want query 7 object 99", m)
		}
	case <-time.After(time.Second):
		t.Fatal("a single Submit into an idle system was not delivered within 1s")
	}
}

// (d) Forced flush: a dispatcher whose shard never runs empty still pushes
// out a partial batch for a worker it rarely targets.
func TestIngestFlushesRareWorkerUnderSaturation(t *testing.T) {
	const rare = 1 << 40
	seen := make(chan struct{})
	var once sync.Once
	sys := startIngestSystem(t, Config{
		Dispatchers: 1, Workers: 4, QueueCap: 64, BatchSize: 64,
		// Routing is slow, so the publishers refill the shard long before
		// the dispatcher comes back to it: it never finds it empty.
		Builder: &idRouter{route: func(id uint64) int {
			time.Sleep(10 * time.Microsecond)
			if id == rare {
				return 3
			}
			return 0
		}},
		IndexFactory: indexForWorker(3, func(ix qindex.Index) qindex.Index {
			return &hookIndex{Index: ix, onMatch: func() { once.Do(func() { close(seen) }) }}
		}),
	})
	at := sys.Bounds().Center()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for id := uint64(p + 1); !stop.Load(); id += 4 {
				sys.Submit(objectOp(id, "x", at))
			}
		}(p)
	}
	waitSaturated(t, sys)
	sys.Submit(objectOp(rare, "x", at))
	within(t, 5*time.Second, "worker 3 processing its one operation under saturation", seen)
	stop.Store(true)
	wg.Wait()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// waitSaturated returns once publishers have parked on a full shard twenty
// times: they outrun the dispatcher, so its shard stays non-empty.
func waitSaturated(t *testing.T, sys *System) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for sys.ingestBlocked.Value() < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("publishers parked only %d times: the input is not saturated", sys.ingestBlocked.Value())
		}
		time.Sleep(time.Millisecond)
	}
}

// (e) End of input: Close, with no barrier before it, delivers exactly the
// matches of everything accepted, from every shard.
func TestIngestCloseDrainsWhatWasAccepted(t *testing.T) {
	sample, stream := smallWorkload(t, workload.Q1, 52, 6000)
	const standing = 300 // smallWorkload's prewarm: insertions only
	// Nothing orders a query operation against the objects of another
	// shard, so the tail behind the standing queries is objects only.
	ops := stream[:standing:standing]
	for _, op := range stream[standing:] {
		if op.Kind == model.OpObject {
			ops = append(ops, op)
		}
	}
	want := oracleMatches(ops)
	if len(want) == 0 {
		t.Fatal("vacuous workload")
	}
	for _, bs := range []int{1, 64} {
		ms := newMatchSet()
		sys, err := New(Config{Dispatchers: 4, Workers: 4, BatchSize: bs, Builder: hybrid.Builder{}, OnMatch: ms.add}, sample)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		sys.SubmitAll(ops[:standing])
		sys.Quiesce(standing)
		sys.SubmitAll(ops[standing:])
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		if got := sys.Processed(); got != int64(len(ops)) {
			t.Errorf("BatchSize %d: routed %d operations, want %d", bs, got, len(ops))
		}
		ms.mu.Lock()
		for k := range want {
			if !ms.seen[k] {
				t.Errorf("BatchSize %d: oracle match %v not delivered", bs, k)
				break
			}
		}
		if len(ms.seen) != len(want) {
			t.Errorf("BatchSize %d: delivered %d distinct matches, oracle has %d", bs, len(ms.seen), len(want))
		}
		ms.mu.Unlock()
	}
}

// (f) Submit allocates nothing of its own: the envelope is stored in the
// shard's buffer, and a discarded object is never boxed.
func TestIngestSubmitDiscardedObjectAllocs(t *testing.T) {
	sys := startIngestSystem(t, Config{Dispatchers: 2, Workers: 4, Builder: hybrid.Builder{}})
	defer sys.Abort()
	op := objectOp(1, "nobody-subscribed-to-this", sys.Bounds().Center())
	const warm = 20000
	for i := 0; i < warm; i++ { // grow the shard buffers and the scratch
		sys.Submit(op)
	}
	sys.Quiesce(warm)
	if n := testing.AllocsPerRun(5000, func() { sys.Submit(op) }); n > 0 {
		t.Errorf("Submit of a discarded object allocates %v times, want 0", n)
	}
	sys.Quiesce(warm + 5001)
	if got := sys.Snapshot().Discarded; got != warm+5001 {
		t.Errorf("discarded %d objects, want %d", got, warm+5001)
	}
}

// A publisher parked in backpressure when the system shuts down returns
// without enqueuing (the parent's channel send panicked), and Close still
// drains everything accepted before it.
func TestIngestShutdownWithParkedPublisher(t *testing.T) {
	for _, shutdown := range []string{"Abort", "Close"} {
		t.Run(shutdown, func(t *testing.T) {
			release := make(chan struct{})
			var delivered atomic.Int64
			sys := startIngestSystem(t, Config{
				Dispatchers: 1, Workers: 2, Mergers: 1, QueueCap: 16, BatchSize: 4,
				Builder: hybrid.Builder{},
				OnMatch: func(model.Match) {
					<-release
					delivered.Add(1)
				},
			})
			at := sys.Bounds().Center()
			q := &model.Query{ID: 1, Expr: model.And("hot"), Region: geo.RectAround(at, 100, 100)}
			sys.Submit(model.Op{Kind: model.OpInsert, Query: q})
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
			closed := make(chan struct{})
			go func() {
				defer close(closed)
				if shutdown == "Abort" {
					sys.Abort()
				} else if err := sys.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			}()
			// The callback still blocks: only the shutdown can have woken
			// the publisher.
			within(t, time.Second, "the parked Submit returning", published)
			close(release)
			within(t, time.Second, shutdown+" returning", closed)
			if shutdown == "Close" {
				// The parked operation was not enqueued; every one before
				// it was, and matches the standing query once.
				n := returned.Load()
				if got := delivered.Load(); got != n-1 {
					t.Errorf("Close delivered %d matches, want %d (every Submit that returned but the parked one)", got, n-1)
				}
				// A barrier that counts the dropped Submit fails; it must
				// not wait for an operation nothing will route.
				drained := make(chan struct{})
				go func() {
					defer close(drained)
					if err := sys.Drain(n + 1); err == nil {
						t.Error("Drain over a dropped Submit returned nil on a closed system")
					}
				}()
				within(t, time.Second, "Drain on the closed system returning", drained)
			}
		})
	}
}

// BenchmarkSubmit publishes discarded objects through a started system:
// the cost of Submit plus, on the other core, one dispatcher pulling and
// routing them — the path every operation pays before any worker sees it.
func BenchmarkSubmit(b *testing.B) {
	sample, _ := smallWorkload(b, workload.Q1, 51, 0)
	sys, err := New(Config{Dispatchers: 2, Workers: 4, Builder: hybrid.Builder{}}, sample)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	at := sys.Bounds().Center()
	ops := make([]model.Op, 1024)
	for i := range ops {
		ops[i] = objectOp(uint64(i+1), "nobody-subscribed-to-this", at)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Submit(ops[i%len(ops)])
	}
	sys.Quiesce(int64(b.N))
	b.StopTimer()
	if err := sys.Close(); err != nil {
		b.Fatal(err)
	}
}
