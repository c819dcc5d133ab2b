package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ps2stream/internal/dedup"
	"ps2stream/internal/model"
	"ps2stream/internal/wire"
)

// forcedFlushFactor bounds how long a dispatcher whose shard never runs
// empty may keep a partial batch open: every forcedFlushFactor × BatchSize
// routed operations it sends them all, so a towork batch for a
// rarely-targeted worker cannot be parked behind a saturated input
// (handOff's drain barrier and Drain wait on such batches).
const forcedFlushFactor = 4

// batchPool recycles the typed batches of one kind of channel. A batch
// travels as a *[]T, so a send moves one pointer.
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

// newQueues makes one input channel per task. A channel holds
// max(QueueCap/BatchSize, 1) batches, so Config.QueueCap keeps bounding the
// operations or matches queued per task whatever the BatchSize.
func newQueues[T any](tasks int, cfg *Config) []chan *[]T {
	qs := make([]chan *[]T, tasks)
	for i := range qs {
		qs[i] = make(chan *[]T, max(cfg.QueueCap/cfg.BatchSize, 1))
	}
	return qs
}

// fanout is one producing task's open batches, one per downstream task,
// and the channels they go out on. A batch is sent when it is full and on
// flush, in the order it was filled, so each downstream task sees the
// producer's envelopes in order.
type fanout[T any] struct {
	pool *batchPool[T]
	out  []chan *[]T
	done <-chan struct{} // the run's: once closed, a send drops its batch
	open []*[]T
}

func newFanout[T any](pool *batchPool[T], out []chan *[]T, done <-chan struct{}) fanout[T] {
	return fanout[T]{pool: pool, out: out, done: done, open: make([]*[]T, len(out))}
}

// add appends *v to the batch open for task.
func (f *fanout[T]) add(task int, v *T) {
	p := f.open[task]
	if p == nil {
		p = f.pool.get()
		f.open[task] = p
	}
	*p = append(*p, *v)
	if len(*p) >= f.pool.size {
		f.open[task] = nil
		f.send(task, p)
	}
}

// flush sends every open batch.
func (f *fanout[T]) flush() {
	for task, p := range f.open {
		if p != nil {
			f.open[task] = nil
			f.send(task, p)
		}
	}
}

// send delivers one batch with backpressure; once the run is cancelled it
// returns the batch to its pool instead.
func (f *fanout[T]) send(task int, p *[]T) {
	select {
	case f.out[task] <- p:
	case <-f.done:
		f.pool.put(p)
	}
}

// cancelled reports, without blocking, whether done is closed.
func cancelled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// consume hands every batch of in to process until in is closed, or until
// the run is cancelled.
func consume[T any](in <-chan *[]T, done <-chan struct{}, process func(*[]T)) {
	for b := range in {
		if cancelled(done) {
			return
		}
		process(b)
	}
}

// mergerOf picks the merger task of a match: every report of one (query,
// object) pair, from whichever worker, meets the same dedup window.
func mergerOf(m *model.Match, mergers int) int {
	return int((m.QueryID*0x9E3779B97F4A7C15 ^ m.ObjectID) % uint64(mergers))
}

// emitMatches splits ms by merger and sends the batches. Matches are not
// held across calls, so a producer of matches needs no idle flush.
func emitMatches(out *fanout[wire.MatchEnv], ms []wire.MatchEnv) {
	mergers := len(out.open)
	for i := range ms {
		out.add(mergerOf(&ms[i].M, mergers), &ms[i])
	}
	out.flush()
}

// run executes dispatcher → worker → merger (Figure 1), one goroutine per
// task, until the ingest is closed and every batch has drained, or ctx is
// cancelled. The dispatchers pull typed []wire.OpEnv buffers from their
// ingest shards (ingest.go) and fill one batch per target worker on
// s.towork; workers take their index/window locks once per batch and send
// their matches on s.toMerge; mergers deduplicate batch-wise.
//
// Three WaitGroups order the close cascade: the towork channels close once
// every dispatcher is done, the merger channels once every producer of
// matches is (the worker slots, and the readers of the remote workers'
// match streams), and run returns once the mergers are. On cancellation
// every task stops at its next batch boundary. A task that panics is
// recorded as name[task]: value and cancels the run, so the other tasks
// stop, parked publishers return and the barriers fail fast; run then
// reports every panic.
func (s *System) run(ctx context.Context, cancel context.CancelFunc) error {
	done := ctx.Done()
	var mu sync.Mutex // guards panics
	var panics []string
	var dispatchers, producers, mergers sync.WaitGroup
	spawn := func(wg *sync.WaitGroup, name string, task int, fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					mu.Lock()
					panics = append(panics, fmt.Sprintf("%s[%d]: %v", name, task, v))
					mu.Unlock()
					cancel()
				}
			}()
			fn()
		}()
	}

	// Dispatchers: route by the current assignment, one task per ingest
	// shard. Submit shards on the op's routing hash, so an insert and a
	// later delete of one query pass through one dispatcher in order (a
	// delete that overtook its insert would leak the query forever).
	for i, shard := range s.ingest {
		d := &dispatcher{
			s:     s,
			shard: shard,
			out:   newFanout(&s.opBatches, s.towork, done),
			enq:   make([]int64, s.totalSlots()),
			objs:  make([]int64, s.totalSlots()),
		}
		spawn(&dispatchers, "dispatcher", i, d.run)
	}

	// Workers: one task per slot, spares included, so a runtime join needs
	// no new task. An in-process slot's task runs the slot's engine; an
	// out-of-process slot (Config.RemoteWorkers, or a spare claimable by
	// AddWorker) gets a forwarder that puts its op batches on the wire, and
	// a reader that feeds the node's match batches to the mergers (an
	// unclaimed spare's reader sleeps until AddWorker installs a session).
	for i, in := range s.towork {
		if h := s.hop(i); h != nil {
			fw := &remoteWorkerBolt{s: s, task: i, hop: h}
			spawn(&producers, "worker", i, func() {
				defer fw.Close() // on a panic too
				consume(in, done, fw.process)
			})
			rd := &remoteMatchSpout{s: s, task: i, hop: h, ctx: ctx,
				split: newFanout(&s.matchBatches, s.toMerge, done)}
			spawn(&producers, "wmatches", i, rd.run)
			continue
		}
		w := &workerBolt{s: s, task: i, local: s.slots[i].(*localWorker),
			split: newFanout(&s.matchBatches, s.toMerge, done)}
		spawn(&producers, "worker", i, func() { consume(in, done, w.process) })
	}

	// Mergers: deduplicate and deliver. A task listed in
	// Config.RemoteMergers forwards its hash share across the wire
	// instead; the remote node dedups and delivers.
	for i, in := range s.toMerge {
		if cl := s.cfg.RemoteMergers[i]; cl != nil {
			fw := &remoteMergerBolt{s: s, task: i, cl: cl}
			spawn(&mergers, "merger", i, func() {
				defer cl.CloseSend() // on a panic too
				consume(in, done, fw.process)
			})
			continue
		}
		m := newMerger(s)
		spawn(&mergers, "merger", i, func() { consume(in, done, m.process) })
	}

	dispatchers.Wait()
	for _, ch := range s.towork {
		close(ch)
	}
	producers.Wait()
	for _, ch := range s.toMerge {
		close(ch)
	}
	mergers.Wait()
	if len(panics) > 0 {
		return fmt.Errorf("core: %d task(s) panicked: %v", len(panics), panics)
	}
	return ctx.Err()
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

// run routes what the shard accepts until it is closed and drained. Once
// the run is cancelled it routes nothing more, not even the remainder of
// the shard Abort closed.
func (d *dispatcher) run() {
	bs := d.s.cfg.BatchSize
	for {
		// Nothing is waiting: push out partial batches before parking.
		ops := d.shard.take(d.spare, d.flush)
		if len(ops) == 0 || cancelled(d.out.done) {
			break // closed and drained, or cancelled
		}
		for i := 0; i < len(ops); i += bs {
			chunk := ops[i:min(i+bs, len(ops))]
			// Every chunk routes under the read side of routeMu so
			// migrations can fence out in-flight chunks before snapshotting
			// drain barriers (see advanceRoute and handOff).
			d.s.routeMu.RLock()
			d.dispatchBatch(chunk)
			d.s.routeMu.RUnlock()
			if d.sinceFlush += len(chunk); d.sinceFlush >= forcedFlushFactor*bs {
				d.flush()
			}
		}
		clear(ops) // the buffer is reused; do not pin routed objects and queries
		d.spare = ops
	}
	d.flush()
}

// flush sends every partial towork batch.
func (d *dispatcher) flush() {
	d.out.flush()
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
// three), hence before the batch holding it can be sent.
//
// An object whose target set has exactly one member is marked Solo,
// whatever assignment computed the set: only that worker's engine sees
// it, an engine reports a query at most once per object (qindex.Index),
// so no (query, object) pair of it can reach the mergers twice.
func (d *dispatcher) dispatchBatch(ops []wire.OpEnv) {
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
			d.out.add(d.routed[r].w, &ops[i])
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

// process runs one towork batch. Its matches are sent before doneOps
// counts the batch.
func (w *workerBolt) process(batch *[]wire.OpEnv) {
	s := w.s
	stageStart := time.Now() // wall clock; see dispatchBatch
	ops := *batch
	if s.cfg.PerTupleWork > 0 {
		spin(time.Duration(len(ops)) * s.cfg.PerTupleWork)
	}
	w.out = w.local.process(ops, w.out[:0])
	emitMatches(&w.split, w.out)
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

// process takes one matches batch, deduplicated and
// delivered under one clock read. A Solo match is delivered without a
// window probe: its object went to one worker only (dispatchBatch), so
// the pair cannot arrive again. The shared counters move once per batch,
// after the deliveries they count: the Drain barrier reads them, so a
// Flush returning guarantees the callbacks have completed.
func (m *merger) process(batch *[]wire.MatchEnv) {
	s := m.s
	stageStart := time.Now() // wall clock; see dispatchBatch
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
