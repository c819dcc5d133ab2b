package core

import (
	"context"
	"sync"
	"time"

	"ps2stream/internal/dedup"
	"ps2stream/internal/model"
	"ps2stream/internal/stream"
	"ps2stream/internal/wire"
)

// Stream names of the PS2Stream topology (Figure 1). A tuple on towork
// carries one *[]wire.OpEnv, a tuple on matches one *[]wire.MatchEnv:
// pooled batches of up to Config.BatchSize of the envelopes a socket hop
// carries. The stream engine runs at batch size 1 and moves them; core
// fills them, addresses them and returns them to their pool.
const (
	streamToWork  = "towork"  // dispatchers -> workers (direct)
	streamMatches = "matches" // workers -> mergers (direct, by mergerOf)
)

// forcedFlushFactor bounds how long a dispatcher whose shard never runs
// empty may keep a partial batch open: every forcedFlushFactor × BatchSize
// routed operations it emits them all, so a towork batch for a
// rarely-targeted worker cannot be parked behind a saturated input
// (handOff's drain barrier and Drain wait on such batches).
const forcedFlushFactor = 4

// batchPool recycles the typed batches of one stream. A batch travels as
// a *[]T: a pointer in a stream.Tuple's interface allocates nothing.
type batchPool[T any] struct {
	pool sync.Pool
	size int // capacity of a batch (Config.BatchSize)
}

func (bp *batchPool[T]) get() *[]T {
	if p, ok := bp.pool.Get().(*[]T); ok {
		return p
	}
	b := make([]T, 0, bp.size)
	return &b
}

// put takes a batch back from the task that consumed it. Nothing may
// retain the slice past this call; it is cleared because envelopes pin
// objects and queries.
func (bp *batchPool[T]) put(p *[]T) {
	clear(*p)
	*p = (*p)[:0]
	bp.pool.Put(p)
}

// fanout is one producing task's open batches on a direct stream, one per
// downstream task. A batch is emitted when it is full and on flush, in
// the order it was filled, so each downstream task sees the producer's
// envelopes in order.
type fanout[T any] struct {
	pool   *batchPool[T]
	stream string
	open   []*[]T
}

func newFanout[T any](pool *batchPool[T], streamName string, tasks int) fanout[T] {
	return fanout[T]{pool: pool, stream: streamName, open: make([]*[]T, tasks)}
}

// add appends *v to the batch open for task.
func (f *fanout[T]) add(c stream.Collector, task int, v *T) {
	p := f.open[task]
	if p == nil {
		p = f.pool.get()
		f.open[task] = p
	}
	*p = append(*p, *v)
	if len(*p) >= f.pool.size {
		f.open[task] = nil
		c.EmitDirect(f.stream, task, stream.Tuple{Value: p})
	}
}

// flush emits every open batch.
func (f *fanout[T]) flush(c stream.Collector) {
	for task, p := range f.open {
		if p != nil {
			f.open[task] = nil
			c.EmitDirect(f.stream, task, stream.Tuple{Value: p})
		}
	}
}

// mergerOf picks the merger task of a match: every report of one (query,
// object) pair, from whichever worker, meets the same dedup window.
func mergerOf(m *model.Match, mergers int) int {
	return int((m.QueryID*0x9E3779B97F4A7C15 ^ m.ObjectID) % uint64(mergers))
}

// emitMatches splits ms by merger and emits the batches. Matches are not
// held across calls, so a producer of matches needs no idle flush.
func emitMatches(out *fanout[wire.MatchEnv], ms []wire.MatchEnv, c stream.Collector) {
	mergers := len(out.open)
	for i := range ms {
		out.add(c, mergerOf(&ms[i].M, mergers), &ms[i])
	}
	out.flush(c)
}

// buildTopology assembles dispatcher → worker → merger. The dispatchers
// are the sources: each pulls typed []wire.OpEnv buffers from its ingest
// shard (ingest.go), where Submit put them. Every hop behind them moves
// one typed batch per tuple: dispatchers fill one batch per target
// worker, workers take their index/window locks once per batch, and
// mergers deduplicate batch-wise.
func (s *System) buildTopology(ctx context.Context) *stream.Topology {
	// The stream engine's queue capacity counts tuples, here batches;
	// divide so Config.QueueCap keeps bounding in-flight operations and
	// matches per task queue regardless of BatchSize.
	qc := s.cfg.QueueCap / s.cfg.BatchSize
	if qc < 1 {
		qc = 1
	}
	t := stream.NewTopology(qc)

	// Dispatchers: route by the current assignment, one task per ingest
	// shard. Submit shards on the op's routing hash so an insert and a
	// later delete of the same query always pass through the same
	// dispatcher in order — spread any other way a delete can overtake
	// its insert on another dispatcher task, leaking the query (and its
	// H2 counts) forever. Objects carry no ordering constraint and spread
	// by id.
	t.AddSpout("dispatcher", func(task int) stream.Spout {
		return &dispatcher{
			s:     s,
			shard: s.ingest[task],
			out:   newFanout(&s.opBatches, streamToWork, s.totalSlots()),
			enq:   make([]int64, s.totalSlots()),
			objs:  make([]int64, s.totalSlots()),
		}
	}, s.cfg.Dispatchers, streamToWork)

	// Workers: maintain GI2, match objects. An in-process slot's bolt
	// runs the slot's engine; an out-of-process slot
	// (Config.RemoteWorkers, or a spare slot claimable by AddWorker)
	// gets a hop-backed bolt that forwards op batches across the wire,
	// and its matches re-enter through the companion spout below.
	// Parallelism covers the spare slots so a runtime join needs no
	// topology change.
	t.AddBolt("worker", func(task int) stream.Bolt {
		if h := s.hop(task); h != nil {
			return &remoteWorkerBolt{s: s, task: task, hop: h}
		}
		return &workerBolt{
			s:     s,
			task:  task,
			local: s.slots[task].(*localWorker),
			split: newFanout(&s.matchBatches, streamMatches, s.cfg.Mergers),
		}
	}, s.totalSlots(), streamMatches).Direct(streamToWork)

	// Remote workers' return streams: one spout task per out-of-process
	// slot (including unclaimed spares, whose spouts sleep until
	// AddWorker installs a session), feeding the wire's match batches
	// into the merger stream.
	if remote := s.remoteWorkerTasks(); len(remote) > 0 {
		t.AddSpout("wmatches", func(task int) stream.Spout {
			return &remoteMatchSpout{
				s:     s,
				task:  remote[task],
				hop:   s.hops[remote[task]],
				ctx:   ctx,
				split: newFanout(&s.matchBatches, streamMatches, s.cfg.Mergers),
			}
		}, len(remote), streamMatches)
	}

	// Mergers: deduplicate and deliver. A task listed in
	// Config.RemoteMergers forwards its hash share across the wire
	// instead; the remote node dedups and delivers.
	t.AddBolt("merger", func(task int) stream.Bolt {
		if cl := s.cfg.RemoteMergers[task]; cl != nil {
			return &remoteMergerBolt{s: s, task: task, cl: cl}
		}
		return newMerger(s)
	}, s.cfg.Mergers).Direct(streamMatches)
	return t
}

// dispatcher is one dispatcher task, a source of the topology: it takes
// whatever its ingest shard has accepted and routes it in chunks of up to
// BatchSize operations, so batches fill by themselves under load (the
// shard accumulates while the dispatcher works) and an idle system routes
// a single operation at once.
type dispatcher struct {
	s     *System
	shard *ingestShard
	// spare is the routed buffer the next take hands back to the shard.
	spare []wire.OpEnv
	// out holds the open towork batch of every worker.
	out fanout[wire.OpEnv]
	// sinceFlush counts operations routed since out was last flushed (see
	// forcedFlushFactor).
	sinceFlush int
	// Per-chunk scratch of dispatchBatch: the (operation, worker) pairs
	// routed so far and the per-worker counts they add up to.
	routed    []routedOp
	enq, objs []int64
}

// routedOp addresses operation op of the chunk to worker w.
type routedOp struct{ op, w int }

// Next implements stream.Spout.
func (d *dispatcher) Next(c stream.Collector) bool {
	// Nothing is waiting: push out partial batches before parking.
	ops := d.shard.take(d.spare, func() { d.flush(c) })
	if len(ops) == 0 {
		d.flush(c)
		return false // closed and drained
	}
	bs := d.s.cfg.BatchSize
	for i := 0; i < len(ops); i += bs {
		chunk := ops[i:min(i+bs, len(ops))]
		// Every chunk routes inside a routeFence read-side section so
		// migrations can fence out in-flight chunks before snapshotting
		// drain barriers (see handOff).
		d.s.routeFence.Enter()
		d.dispatchBatch(chunk, c)
		d.s.routeFence.Exit()
		if d.sinceFlush += len(chunk); d.sinceFlush >= forcedFlushFactor*bs {
			d.flush(c)
		}
	}
	clear(ops) // the buffer is reused; do not pin routed objects and queries
	d.spare = ops
	return true
}

// flush emits every partial towork batch.
func (d *dispatcher) flush(c stream.Collector) {
	d.out.flush(c)
	d.sinceFlush = 0
}

// dispatchBatch routes one chunk of operations. The routing structures
// are re-read per operation — they are single atomic loads, and holding
// one snapshot across a whole chunk would stretch the migration-flip race
// window from one tuple to BatchSize tuples of stale routing.
//
// It runs in two passes so that the counters two dispatchers share are
// touched once per chunk: the first routes and counts, the second appends
// each envelope to the open batch of every worker it is routed to.
// enqueued must cover an operation before the worker can count it in
// doneOps and before processed covers it (Quiesce and Drain compare the
// three), hence before the batch holding it can be emitted.
//
// An object whose target set has exactly one member is marked Solo,
// whatever assignment computed the set: only that worker's engine sees
// it, an engine reports a query at most once per object (qindex.Index),
// so no (query, object) pair of it can reach the mergers twice.
func (d *dispatcher) dispatchBatch(ops []wire.OpEnv, c stream.Collector) {
	s := d.s
	// Stage timing uses the wall clock, not cfg.Clock: it measures real
	// processing cost per chunk, and tests' fake clocks must not skew it.
	stageStart := time.Now()
	d.routed = d.routed[:0]
	var discarded int64
	for i := range ops {
		op := &ops[i].Op
		a := s.Assignment()
		var targets []int
		switch op.Kind {
		case model.OpObject:
			targets = a.RouteObject(op.Obj)
			ops[i].Solo = len(targets) == 1
			if gt := s.gridT.Load(); gt != nil && s.cellObjects != nil {
				if id := gt.Grid().CellOf(op.Obj.Loc); id < len(s.cellObjects) {
					s.cellObjects[id].Add(1)
				}
			}
			if len(targets) == 0 {
				discarded++
			}
			for _, w := range targets {
				d.objs[w]++
			}
		case model.OpInsert:
			// Register before the fan-out: the ingest shards on the query
			// id, so an insert and its later delete pass through here in
			// order, and every delta a worker can produce postdates the
			// registration.
			if op.Query.IsTopK() {
				s.board.register(op.Query.ID)
			}
			targets = a.RouteQuery(op.Query, true)
			for _, w := range targets {
				s.winInserts[w].Add(1)
			}
		case model.OpDelete:
			s.board.unregister(op.Query.ID)
			targets = a.RouteQuery(op.Query, false)
			for _, w := range targets {
				s.winDeletes[w].Add(1)
			}
		}
		for _, w := range targets {
			d.enq[w]++
			d.routed = append(d.routed, routedOp{op: i, w: w})
		}
	}
	for w, n := range d.enq {
		if n > 0 {
			s.enqueued[w].Add(n)
			s.winObjects[w].Add(d.objs[w])
			d.enq[w], d.objs[w] = 0, 0
		}
	}
	// Counted as routed only now: a barrier that has seen Processed reach
	// its target must find these operations in enqueued (and discarded)
	// already, however long the routing above took (an insert over a wide
	// region visits thousands of cells).
	s.discarded.Add(discarded)
	s.processed.Add(int64(len(ops)))
	s.tput.Add(int64(len(ops)))

	// "The object can be discarded if it contains no terms in H2" — still
	// count its latency as handled, under one clock read for the chunk.
	// Latency is measured on the configured clock, the same domain the
	// envelopes were stamped in.
	end := s.now()
	lat := s.latency.Load()
	r := 0
	for i := range ops {
		if r == len(d.routed) || d.routed[r].op != i {
			if ops[i].Op.Kind == model.OpObject {
				lat.Observe(end.Sub(ops[i].T0))
			}
			continue
		}
		for ; r < len(d.routed) && d.routed[r].op == i; r++ {
			d.out.add(c, d.routed[r].w, &ops[i])
		}
	}
	s.stageDisp.Observe(time.Since(stageStart))
}

// workerBolt runs an in-process worker slot: it feeds the slot's engine
// from its own task goroutine, a whole batch per call. The engine does the
// matching; the bolt keeps what belongs to the topology — the simulated
// per-operation cost, the stage histogram, match emission and latency
// accounting.
type workerBolt struct {
	s     *System
	task  int
	local *localWorker
	// out is the engine's match scratch, reused across batches; split
	// holds the matches batches being filled from it, one per merger.
	out   []wire.MatchEnv
	split fanout[wire.MatchEnv]
}

// Process implements stream.Bolt: one towork batch.
func (w *workerBolt) Process(tu stream.Tuple, c stream.Collector) {
	s := w.s
	stageStart := time.Now() // wall clock; see dispatchBatch
	batch := tu.Value.(*[]wire.OpEnv)
	ops := *batch
	if s.cfg.PerTupleWork > 0 {
		spin(time.Duration(len(ops)) * s.cfg.PerTupleWork)
	}
	w.out = w.local.process(ops, w.out[:0])
	emitMatches(&w.split, w.out, c)
	if n := len(w.out); n > 0 {
		// Counted before doneOps so the Drain barrier's emitted total is
		// final once the worker queues read as drained.
		s.matchesEmitted.Add(int64(n))
	}
	s.doneOps[w.task].Add(int64(len(ops)))
	s.observeLatency(ops)
	s.opBatches.put(batch)
	s.stageWork.Observe(time.Since(stageStart))
}

// observeLatency records the publish-to-processed latency of a finished
// batch under one clock read.
func (s *System) observeLatency(ops []wire.OpEnv) {
	end := s.now()
	h := s.latency.Load()
	for i := range ops {
		h.Observe(end.Sub(ops[i].T0))
	}
}

// spin busy-waits for roughly d; sleeping is too coarse at microsecond
// scale and would yield the worker's core.
func spin(d time.Duration) {
	start := time.Now()
	for time.Since(start) < d {
	}
}

// merger deduplicates matches with a bounded FIFO window and delivers
// them, a batch at a time. One instance per merger task; no locking needed
// for its own state.
type merger struct {
	s   *System
	win *dedup.Window
}

func newMerger(s *System) *merger {
	return &merger{s: s, win: dedup.NewWindow(s.cfg.DedupWindow)}
}

// Process implements stream.Bolt: one matches batch, deduplicated and
// delivered under one clock read. A Solo match is delivered without a
// window probe: its object went to one worker only (dispatchBatch), so
// the pair cannot arrive again. The shared counters move once per batch,
// after the deliveries they count: the Drain barrier reads them, so a
// Flush returning guarantees the callbacks have completed.
func (m *merger) Process(tu stream.Tuple, _ stream.Collector) {
	s := m.s
	stageStart := time.Now() // wall clock; see dispatchBatch
	batch := tu.Value.(*[]wire.MatchEnv)
	now := s.now()
	lat := s.matchLat.Load()
	var solo, dups int64
	for i := range *batch {
		me := &(*batch)[i]
		if me.Solo {
			solo++
		} else if !m.win.Observe([2]uint64{me.M.QueryID, me.M.ObjectID}) {
			dups++
			continue
		}
		lat.Observe(now.Sub(me.T0))
		if s.cfg.OnMatch != nil {
			s.cfg.OnMatch(me.M)
		}
	}
	n := int64(len(*batch))
	s.mergerIn.Add(n)
	s.soloMatches.Add(solo)
	s.duplicates.Add(dups)
	s.matches.Add(n - dups)
	s.matchBatches.put(batch)
	s.stageMerge.Observe(time.Since(stageStart))
}
