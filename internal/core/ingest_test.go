package core

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ps2stream/internal/geo"
	"ps2stream/internal/hybrid"
	"ps2stream/internal/model"
	"ps2stream/internal/partition"
	"ps2stream/internal/wire"
	"ps2stream/internal/workload"
)

// idRouter is a distribution strategy for the ingest tests: objects and
// queries alike go to the one worker route names for their id, and every
// call the dispatcher makes is recorded in order — an object by its id and
// first term, a query by its id and "I" or "D" — so a test can read the
// order in which the dispatcher routed the operations.
type idRouter struct {
	workers int
	route   func(id uint64) int

	mu     sync.Mutex
	routed []routerCall
}

// routerCall is one recorded routing call of idRouter.
type routerCall struct {
	id   uint64
	what string
}

func (r *idRouter) Name() string { return "by-id" }

func (r *idRouter) Build(_ *partition.Sample, m int) (partition.Assignment, error) {
	r.workers = m
	return r, nil
}

func (r *idRouter) record(id uint64, what string) []int {
	r.mu.Lock()
	r.routed = append(r.routed, routerCall{id, what})
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

// beforeBatch installs fn as in-process worker task's pre-engine hook
// (workerBolt.beforeBatch): a hook that blocks makes a worker that is
// alive but stalled.
func beforeBatch(task int, fn func(ops []wire.OpEnv)) func(*System) {
	return func(sys *System) { sys.bolts[task].beforeBatch = fn }
}

// startIngestSystem builds a system over a small sample, applies setup to
// it and starts it.
func startIngestSystem(t *testing.T, cfg Config, setup ...func(*System)) *System {
	t.Helper()
	sample, _ := smallWorkload(t, workload.Q1, 51, 0)
	sys, err := New(cfg, sample)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range setup {
		f(sys)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	return sys
}

func objectOp(id uint64, term string, at geo.Point) model.Op {
	return model.Op{Kind: model.OpObject, Obj: &model.Object{ID: id, Terms: []string{term}, Loc: at}}
}

// waitParked returns once a publisher has parked on a full ingest and the
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

// (a) Order: the dispatcher routes each publisher's operations in that
// publisher's Submit order across ids — an insert, an object, the insert's
// delete, the next insert — whatever the other publishers do.
func TestIngestKeepsSubmitOrderPerID(t *testing.T) {
	router := &idRouter{route: func(id uint64) int { return int(id % 4) }}
	sys := startIngestSystem(t, Config{Workers: 4, QueueCap: 256, BatchSize: 8, Builder: router})
	at := sys.Bounds().Center()
	const publishers, pairs = 4, 200
	want := make([][]routerCall, publishers)
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		base := uint64(p+1) * 10000
		ops := make([]model.Op, 0, 3*pairs)
		for i := 0; i < pairs; i++ {
			q := &model.Query{ID: base + uint64(i), Expr: model.And("x"), Region: geo.RectAround(at, 10, 10)}
			// The same object ids again and again, numbered by round.
			obj, round := base+5000+uint64(i%8), strconv.Itoa(i/8)
			ops = append(ops, model.Op{Kind: model.OpInsert, Query: q}, objectOp(obj, round, at),
				model.Op{Kind: model.OpDelete, Query: q})
			want[p] = append(want[p], routerCall{q.ID, "I"}, routerCall{obj, round}, routerCall{q.ID, "D"})
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sys.SubmitAll(ops)
		}()
	}
	wg.Wait()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	live, err := sys.LiveQueries()
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 0 {
		t.Errorf("%d queries live after every pair was deleted (first: %d)", len(live), live[0].ID)
	}
	router.mu.Lock()
	defer router.mu.Unlock()
	got := make([][]routerCall, publishers)
	for _, c := range router.routed {
		p := int(c.id/10000) - 1
		got[p] = append(got[p], c)
	}
	for p := range want {
		if len(got[p]) != len(want[p]) {
			t.Errorf("publisher %d: dispatcher routed %d operations, want %d", p, len(got[p]), len(want[p]))
			continue
		}
		for i := range want[p] {
			if got[p][i] != want[p][i] {
				t.Errorf("publisher %d: operation %d routed as %v, want %v (Submit order)", p, i, got[p][i], want[p][i])
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
		Workers: 1, Mergers: 1, QueueCap: queueCap, BatchSize: batch,
		Builder: &idRouter{route: func(uint64) int { return 0 }},
	}, beforeBatch(0, func([]wire.OpEnv) {
		once.Do(func() { close(entered) })
		<-gate
	}))
	limit := sys.ingest.limit
	if limit != queueCap {
		t.Fatalf("the ingest accepts %d operations, want QueueCap = %d", limit, queueCap)
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
	within(t, 5*time.Second, "the worker's first batch", entered)
	// What can be accepted and not processed: the ingest and the buffer the
	// dispatcher took (QueueCap each), what its open towork batch kept of
	// earlier buffers (under one batch), the worker's queue and the batch the
	// worker holds.
	workerQueue := cap(sys.towork[0]) * batch
	if workerQueue != queueCap {
		t.Fatalf("the worker's queue holds %d operations, want QueueCap = %d", workerQueue, queueCap)
	}
	bound := int64(2*limit + (batch - 1) + workerQueue + batch)
	accepted := waitParked(t, sys, &returned)
	if accepted < int64(limit) || accepted > bound {
		t.Errorf("Submit parked after %d accepted operations, want between %d (a full ingest) and %d", accepted, limit, bound)
	}
	if depth := sys.ingest.depth(); depth != limit {
		t.Errorf("the full ingest holds %d operations, want %d", depth, limit)
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
		Workers: 4, Builder: hybrid.Builder{},
		OnMatch: func(m model.Match) { delivered <- m },
	})
	defer sys.Abort()
	at := sys.Bounds().Center()
	q := &model.Query{ID: 7, Expr: model.And("hot"), Region: geo.RectAround(at, 100, 100)}
	sys.Submit(model.Op{Kind: model.OpInsert, Query: q})
	sys.Drain()
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

// (d) Forced flush: a dispatcher whose ingest never runs empty still pushes
// out a partial batch for a worker it rarely targets.
func TestIngestFlushesRareWorkerUnderSaturation(t *testing.T) {
	const rare = 1 << 40
	seen := make(chan struct{})
	var once sync.Once
	sys := startIngestSystem(t, Config{
		Workers: 4, QueueCap: 64, BatchSize: 64,
		// Routing is slow, so the publishers refill the ingest long before
		// the dispatcher comes back to it: it never finds it empty.
		Builder: &idRouter{route: func(id uint64) int {
			time.Sleep(10 * time.Microsecond)
			if id == rare {
				return 3
			}
			return 0
		}},
	}, beforeBatch(3, func([]wire.OpEnv) { once.Do(func() { close(seen) }) }))
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

// waitSaturated returns once publishers have parked on a full ingest twenty
// times: they outrun the dispatcher, so the ingest stays non-empty.
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
// matches of everything accepted.
func TestIngestCloseDrainsWhatWasAccepted(t *testing.T) {
	// The mixed stream: subscriptions arrive and leave among the objects.
	sample, ops := smallWorkload(t, workload.Q1, 52, 6000)
	want := oracleMatches(ops)
	if len(want) == 0 {
		t.Fatal("vacuous workload")
	}
	for _, bs := range []int{1, 64} {
		ms := newMatchSet()
		sys, err := New(Config{Workers: 4, BatchSize: bs, Builder: hybrid.Builder{}, OnMatch: ms.add}, sample)
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
// ingest's buffer, and a discarded object is never boxed.
func TestIngestSubmitDiscardedObjectAllocs(t *testing.T) {
	sys := startIngestSystem(t, Config{Workers: 4, Builder: hybrid.Builder{}})
	defer sys.Abort()
	op := objectOp(1, "nobody-subscribed-to-this", sys.Bounds().Center())
	const warm = 20000
	for i := 0; i < warm; i++ { // grow the ingest buffers and the scratch
		sys.Submit(op)
	}
	sys.Drain()
	if n := testing.AllocsPerRun(5000, func() { sys.Submit(op) }); n > 0 {
		t.Errorf("Submit of a discarded object allocates %v times, want 0", n)
	}
	sys.Drain()
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
				Workers: 2, Mergers: 1, QueueCap: 16, BatchSize: 4,
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
				// Drain on the closed system fails at once: nothing
				// will route its marker.
				drained := make(chan struct{})
				go func() {
					defer close(drained)
					if err := sys.Drain(); err == nil {
						t.Error("Drain returned nil on a closed system")
					}
				}()
				within(t, time.Second, "Drain on the closed system returning", drained)
			}
		})
	}
}

// BenchmarkSubmit publishes discarded objects through a started system:
// the cost of Submit plus, on the other core, the dispatcher pulling and
// routing them — the path every operation pays before any worker sees it.
func BenchmarkSubmit(b *testing.B) {
	sample, _ := smallWorkload(b, workload.Q1, 51, 0)
	sys, err := New(Config{Workers: 4, Builder: hybrid.Builder{}}, sample)
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
	sys.Drain()
	b.StopTimer()
	if err := sys.Close(); err != nil {
		b.Fatal(err)
	}
}
