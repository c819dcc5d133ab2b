package core

import (
	"context"
	"time"

	"ps2stream/internal/dedup"
	"ps2stream/internal/model"
	"ps2stream/internal/stream"
	"ps2stream/internal/wire"
)

// Stream names of the PS2Stream topology (Figure 1). Tuples on ops and
// towork carry a wire.OpEnv, tuples on matches a wire.MatchEnv: the same
// envelopes whether a hop is a channel or a socket.
const (
	streamInput   = "ops"     // spout -> dispatchers
	streamToWork  = "towork"  // dispatchers -> workers (direct)
	streamMatches = "matches" // workers -> mergers (fields)
)

// buildTopology assembles spout → dispatcher → worker → merger. Every hop
// moves batches of up to Config.BatchSize tuples: the spout drains
// whatever Submit has queued into one collector pass, dispatchers fan out
// one batch per target worker, workers take their index/window locks once
// per batch, and mergers deduplicate batch-wise.
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

	// Input spout: drains the Submit channel. After a blocking read it
	// greedily takes whatever else is already queued (up to one batch) and
	// flushes, so batches fill under load without holding tuples back
	// while the spout waits for input — Flush() latency semantics are
	// unchanged from the unbatched engine.
	t.AddSpout("input", func(task int) stream.Spout {
		return stream.SpoutFunc(func(c stream.Collector) bool {
			select {
			case env, ok := <-s.input:
				if !ok {
					return false
				}
				c.Emit(streamInput, stream.Tuple{Value: env})
				alive := true
			drain:
				for n := 1; n < s.cfg.BatchSize; n++ {
					select {
					case env, ok := <-s.input:
						if !ok {
							alive = false
							break drain
						}
						c.Emit(streamInput, stream.Tuple{Value: env})
					default:
						break drain
					}
				}
				c.Flush()
				return alive
			case <-ctx.Done():
				return false
			}
		})
	}, 1, streamInput)

	// Dispatchers: route by the current assignment. The input stream is
	// fields-grouped on the subscription id so an insert and a later
	// delete of the same query always pass through the same dispatcher in
	// order — under shuffle grouping a delete can overtake its insert on
	// another dispatcher task, leaking the query (and its H2 counts)
	// forever. Objects carry no ordering constraint and spread by id.
	t.AddBolt("dispatcher", func(task int) stream.Bolt {
		return dispatcherBolt{s: s}
	}, s.cfg.Dispatchers, streamToWork).Fields(streamInput, func(tu stream.Tuple) uint64 {
		env := tu.Value.(wire.OpEnv)
		return env.Op.RouteHash()
	})

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

// dispatcherBolt routes operations batch-wise: the assignment is loaded
// once per received batch and the collector accumulates one outgoing
// batch per target worker. Every batch routes inside a routeFence
// read-side section so migrations can fence out in-flight batches before
// snapshotting drain barriers (see handOff).
type dispatcherBolt struct{ s *System }

// ProcessBatch implements stream.BatchBolt.
func (d dispatcherBolt) ProcessBatch(ts []stream.Tuple, c stream.Collector) {
	d.s.routeFence.Enter()
	d.s.dispatchBatch(ts, c)
	d.s.routeFence.Exit()
}

// Process implements stream.Bolt (single-tuple fallback; the engine
// prefers ProcessBatch).
func (d dispatcherBolt) Process(tu stream.Tuple, c stream.Collector) {
	d.s.routeFence.Enter()
	d.s.dispatchBatch([]stream.Tuple{tu}, c)
	d.s.routeFence.Exit()
}

// dispatchBatch routes one batch of operations (dispatcher bolt body).
// The routing structures are re-read per operation — they are single
// atomic loads, and holding one snapshot across a whole batch would
// stretch the migration-flip race window from one tuple to BatchSize
// tuples of stale routing.
func (s *System) dispatchBatch(ts []stream.Tuple, c stream.Collector) {
	// Stage timing uses the wall clock, not cfg.Clock: it measures real
	// processing cost per batch, and tests' fake clocks must not skew it.
	stageStart := time.Now()
	defer func() { s.stageDisp.Observe(time.Since(stageStart)) }()
	s.processed.Add(int64(len(ts)))
	s.tput.Add(int64(len(ts)))
	for i := range ts {
		env := ts[i].Value.(wire.OpEnv)
		a := s.Assignment()
		var targets []int
		switch env.Op.Kind {
		case model.OpObject:
			targets = a.RouteObject(env.Op.Obj)
			if gt := s.gridT.Load(); gt != nil && s.cellObjects != nil {
				if id := gt.Grid().CellOf(env.Op.Obj.Loc); id < len(s.cellObjects) {
					s.cellObjects[id].Add(1)
				}
			}
			if len(targets) == 0 {
				// "The object can be discarded if it contains no terms in
				// H2" — still count its latency as handled. Latency is
				// measured on the configured clock, the same domain the
				// envelope was stamped in.
				s.discarded.Inc()
				s.latency.Load().Observe(s.now().Sub(env.T0))
				continue
			}
			for _, w := range targets {
				s.winObjects[w].Add(1)
			}
		case model.OpInsert:
			// Register before the fan-out: the input stream is
			// fields-grouped on the query id, so an insert and its later
			// delete pass through here in order, and every delta a worker
			// can produce postdates the registration.
			if env.Op.Query.IsTopK() {
				s.board.register(env.Op.Query.ID)
			}
			targets = a.RouteQuery(env.Op.Query, true)
			for _, w := range targets {
				s.winInserts[w].Add(1)
			}
		case model.OpDelete:
			s.board.unregister(env.Op.Query.ID)
			targets = a.RouteQuery(env.Op.Query, false)
			for _, w := range targets {
				s.winDeletes[w].Add(1)
			}
		}
		for _, w := range targets {
			s.enqueued[w].Add(1)
			c.EmitDirect(streamToWork, w, ts[i])
		}
	}
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
