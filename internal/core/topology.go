package core

import (
	"context"
	"time"

	"ps2stream/internal/dedup"
	"ps2stream/internal/model"
	"ps2stream/internal/stream"
	"ps2stream/internal/wire"
)

// Stream names of the PS2Stream topology (Figure 1). Tuples on towork
// carry a wire.OpEnv, tuples on matches a wire.MatchEnv: the same
// envelopes whether a hop is a channel or a socket.
const (
	streamToWork  = "towork"  // dispatchers -> workers (direct)
	streamMatches = "matches" // workers -> mergers (fields)
)

// forcedFlushFactor is the bound stream.Topology.Run applies to bolts,
// applied to the dispatchers (which are sources): a dispatcher whose
// shard never runs empty still flushes its collector every
// forcedFlushFactor × BatchSize routed operations, so a partial towork
// batch for a rarely-targeted worker cannot be parked behind a saturated
// input (handOff's drain barrier and Drain wait on such batches).
const forcedFlushFactor = 4

// buildTopology assembles dispatcher → worker → merger. The dispatchers
// are the sources: each pulls typed []wire.OpEnv buffers from its ingest
// shard (ingest.go), where Submit put them. Every hop behind them moves
// batches of up to Config.BatchSize tuples: dispatchers fan out one batch
// per target worker, workers take their index/window locks once per
// batch, and mergers deduplicate batch-wise.
func (s *System) buildTopology(ctx context.Context) *stream.Topology {
	// The stream engine's queue capacity is denominated in batches; divide
	// so Config.QueueCap keeps bounding in-flight *tuples* per task queue
	// regardless of BatchSize.
	qc := s.cfg.QueueCap / s.cfg.BatchSize
	if qc < 1 {
		qc = 1
	}
	t := stream.NewTopology(qc)
	t.SetBatchSize(s.cfg.BatchSize)

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
		return &workerBolt{s: s, task: task, local: s.slots[task].(*localWorker)}
	}, s.totalSlots(), streamMatches).Direct(streamToWork)

	// Remote workers' return streams: one spout task per out-of-process
	// slot (including unclaimed spares, whose spouts sleep until
	// AddWorker installs a session), feeding the wire's match batches
	// into the merger stream.
	if remote := s.remoteWorkerTasks(); len(remote) > 0 {
		t.AddSpout("wmatches", func(task int) stream.Spout {
			return &remoteMatchSpout{s: s, task: remote[task], hop: s.hops[remote[task]], ctx: ctx}
		}, len(remote), streamMatches)
	}

	// Mergers: deduplicate and deliver. A task listed in
	// Config.RemoteMergers forwards its hash share across the wire
	// instead; the remote node dedups and delivers.
	t.AddBolt("merger", func(task int) stream.Bolt {
		if cl := s.cfg.RemoteMergers[task]; cl != nil {
			return &remoteMergerBolt{task: task, cl: cl}
		}
		return newMerger(s)
	}, s.cfg.Mergers).Fields(streamMatches, func(tu stream.Tuple) uint64 {
		me := tu.Value.(wire.MatchEnv)
		return me.M.QueryID*0x9E3779B97F4A7C15 ^ me.M.ObjectID
	})
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
	// sinceFlush counts operations routed since the collector was last
	// flushed (see forcedFlushFactor).
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
	ops := d.shard.take(d.spare, func() {
		// Nothing is waiting: push out partial batches before parking.
		c.Flush()
		d.sinceFlush = 0
	})
	if len(ops) == 0 {
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
			c.Flush()
			d.sinceFlush = 0
		}
	}
	clear(ops) // the buffer is reused; do not pin routed objects and queries
	d.spare = ops
	return true
}

// dispatchBatch routes one chunk of operations. The routing structures
// are re-read per operation — they are single atomic loads, and holding
// one snapshot across a whole chunk would stretch the migration-flip race
// window from one tuple to BatchSize tuples of stale routing.
//
// It runs in two passes so that the counters two dispatchers share are
// touched once per chunk: the first routes and counts, the second boxes
// an envelope into a stream.Tuple — only if some worker receives it — and
// emits. enqueued must cover a tuple before the worker can count it in
// doneOps and before processed covers its operation (Quiesce and Drain
// compare the three), hence before its emit.
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
		tu := stream.Tuple{Value: ops[i]}
		for ; r < len(d.routed) && d.routed[r].op == i; r++ {
			c.EmitDirect(streamToWork, d.routed[r].w, tu)
		}
	}
	s.stageDisp.Observe(time.Since(stageStart))
}

// workerBolt runs an in-process worker slot: it feeds the slot's engine
// from its own task goroutine, a whole batch per call. The engine does the
// matching; the bolt keeps what belongs to the topology — the simulated
// per-tuple cost, the stage histogram, match emission and latency
// accounting.
type workerBolt struct {
	s     *System
	task  int
	local *localWorker
	// Envelope scratch reused across batches, so the hot path allocates
	// nothing per batch beyond the emitted match tuples.
	ops []wire.OpEnv
	out []wire.MatchEnv
}

// ProcessBatch implements stream.BatchBolt.
func (w *workerBolt) ProcessBatch(ts []stream.Tuple, c stream.Collector) {
	s := w.s
	stageStart := time.Now() // wall clock; see dispatchBatch
	defer func() { s.stageWork.Observe(time.Since(stageStart)) }()
	if s.cfg.PerTupleWork > 0 {
		spin(time.Duration(len(ts)) * s.cfg.PerTupleWork)
	}
	w.ops = unpackOps(w.ops[:0], ts)
	w.out = w.local.process(w.ops, w.out[:0])
	for i := range w.out {
		c.Emit(streamMatches, stream.Tuple{Value: w.out[i]})
	}
	if n := len(w.out); n > 0 {
		// Counted before doneOps so the Drain barrier's emitted total is
		// final once the worker queues read as drained.
		s.matchesEmitted.Add(int64(n))
	}
	s.doneOps[w.task].Add(int64(len(ts)))
	s.observeLatency(w.ops)
}

// unpackOps appends the op envelopes a towork batch carries to dst.
func unpackOps(dst []wire.OpEnv, ts []stream.Tuple) []wire.OpEnv {
	for i := range ts {
		dst = append(dst, ts[i].Value.(wire.OpEnv))
	}
	return dst
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

// Process implements stream.Bolt (single-tuple fallback; the engine
// prefers ProcessBatch).
func (w *workerBolt) Process(tu stream.Tuple, c stream.Collector) {
	w.ProcessBatch([]stream.Tuple{tu}, c)
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

// ProcessBatch implements stream.BatchBolt: the whole batch is deduped
// under one clock read.
func (m *merger) ProcessBatch(ts []stream.Tuple, _ stream.Collector) {
	stageStart := time.Now() // wall clock; see dispatchBatch
	now := m.s.now()
	for i := range ts {
		m.processOne(ts[i].Value.(wire.MatchEnv), now)
	}
	m.s.stageMerge.Observe(time.Since(stageStart))
}

// Process implements stream.Bolt (single-tuple fallback; the engine
// prefers ProcessBatch). It shares ProcessBatch's code path so the
// clock is read at the same point regardless of which path the engine
// picks — a fallback that re-read the clock per tuple would skew the
// latency histogram against batched runs.
func (m *merger) Process(tu stream.Tuple, c stream.Collector) {
	m.ProcessBatch([]stream.Tuple{tu}, c)
}

func (m *merger) processOne(me wire.MatchEnv, now time.Time) {
	if !m.win.Observe([2]uint64{me.M.QueryID, me.M.ObjectID}) {
		m.s.duplicates.Inc()
		return
	}
	m.s.matchLat.Load().Observe(now.Sub(me.T0))
	if m.s.cfg.OnMatch != nil {
		// Deliver before counting: the Drain barrier reads the counter,
		// so a Flush returning guarantees the callback has completed.
		m.s.cfg.OnMatch(me.M)
	}
	m.s.matches.Inc()
}
