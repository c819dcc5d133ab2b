package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"ps2stream/internal/dedup"
	"ps2stream/internal/model"
	"ps2stream/internal/partition"
	"ps2stream/internal/window"
	"ps2stream/internal/wire"
	"ps2stream/internal/worker"
)

// forcedFlushFactor bounds how long the dispatcher, when the ingest never
// runs empty, may keep a partial batch open: every forcedFlushFactor ×
// BatchSize routed operations it sends them all, so a towork batch for a
// rarely-targeted worker cannot be parked behind a saturated input.
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

// msg is one send on a task's input channel: a batch, a Drain marker
// that follows every batch its producer sent before it, or, on a worker
// slot's channel, a control round or a cut's hold that does.
type msg[T any] struct {
	batch *[]T
	mark  *drainMark
	ctrl  *ctrlRound
	hold  *hold
}

// newQueues makes one input channel per task. A channel holds
// max(QueueCap/BatchSize, 1) batches, so Config.QueueCap keeps bounding the
// operations or matches queued per task whatever the BatchSize.
func newQueues[T any](tasks int, cfg *Config) []chan msg[T] {
	qs := make([]chan msg[T], tasks)
	for i := range qs {
		qs[i] = make(chan msg[T], max(cfg.QueueCap/cfg.BatchSize, 1))
	}
	return qs
}

// fanout is one producing task's open batches, one per downstream task,
// and the channels they go out on. A batch is sent when it is full and on
// flush, in the order it was filled, so each downstream task sees the
// producer's envelopes in order.
type fanout[T any] struct {
	pool *batchPool[T]
	out  []chan msg[T]
	done <-chan struct{} // the run's: once closed, a send drops its batch
	open []*[]T
}

func newFanout[T any](pool *batchPool[T], out []chan msg[T], done <-chan struct{}) fanout[T] {
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
	case f.out[task] <- msg[T]{batch: p}:
	case <-f.done:
		f.pool.put(p)
	}
}

// mark sends m to every task, behind the batch open for it.
func (f *fanout[T]) mark(m *drainMark) {
	for task := range f.out {
		f.to(task, msg[T]{mark: m})
	}
}

// to flushes the batch open for task, then sends m behind it.
func (f *fanout[T]) to(task int, m msg[T]) {
	if p := f.open[task]; p != nil {
		f.open[task] = nil
		f.send(task, p)
	}
	select {
	case f.out[task] <- m:
	case <-f.done:
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

// consume hands every batch of in to process, every marker to mark and
// every control round to ctrl, in order, until in is closed or the run
// is cancelled. At a hold it hands ctrl the requests sent through the
// hold until it is released.
func consume[T any](in <-chan msg[T], done <-chan struct{}, process func(*[]T), mark func(*drainMark), ctrl func(*ctrlRound)) {
	for m := range in {
		if cancelled(done) {
			return
		}
		switch {
		case m.mark != nil:
			mark(m.mark)
		case m.ctrl != nil:
			ctrl(m.ctrl)
		case m.hold != nil:
			m.hold.serve(done, ctrl)
		default:
			process(m.batch)
		}
	}
}

// mergerOf picks the merger task of a match: every report of one (query,
// object) pair, from whichever worker, meets the same dedup window.
func mergerOf(m *model.Match, mergers int) int {
	return int((m.QueryID*0x9E3779B97F4A7C15 ^ m.ObjectID) % uint64(mergers))
}

// emitMatches sends each match of ms that can repeat to its merger and
// delivers the others itself, before it returns: a Solo match whose
// merger runs in this process cannot meet a second report of its pair
// (dispatchBatch), so no window needs to see it. A match read from a
// remote slot is never Solo, and one hashed to a remote merger goes
// there. Matches are not held across calls, so a producer of matches
// needs no idle flush. ms is overwritten.
func (s *System) emitMatches(out *fanout[wire.MatchEnv], ms []wire.MatchEnv) {
	direct := ms[:0]
	mergers := len(out.open)
	for i := range ms {
		task := mergerOf(&ms[i].M, mergers)
		if ms[i].Solo && s.cfg.RemoteMergers[task] == nil {
			direct = append(direct, ms[i])
		} else {
			out.add(task, &ms[i])
		}
	}
	out.flush()
	s.deliver(direct, true)
}

// deliver hands ms to OnMatch and counts them: it is the last step of
// every match delivered in this process, called by a producer of matches
// with the ones that cannot repeat (solo) and by a merger with the ones
// its window let through. One clock read serves the slice, and the
// latency of a run of matches with the same T0 (one operation's) is
// observed once. The counters move after the callbacks they count.
func (s *System) deliver(ms []wire.MatchEnv, solo bool) {
	if len(ms) == 0 {
		return
	}
	now, lat := s.now(), s.matchLat.Load()
	for i := 0; i < len(ms); {
		t0, j := ms[i].T0, i+1
		for j < len(ms) && ms[j].T0.Equal(t0) {
			j++
		}
		lat.ObserveN(now.Sub(t0), j-i)
		i = j
	}
	if on := s.cfg.OnMatch; on != nil {
		for i := range ms {
			on(ms[i].M)
		}
	}
	n := int64(len(ms))
	if solo {
		s.soloMatches.Add(n)
	}
	s.matches.Add(n)
}

// run executes dispatcher → worker → merger (Figure 1), one goroutine per
// task, until the ingest is closed and every batch has drained, or ctx is
// cancelled. The dispatcher pulls typed []wire.OpEnv buffers from the
// ingest (ingest.go) and fills one batch per target worker on s.towork;
// workers take their index/window locks once per batch, deliver the
// matches that cannot repeat and send the others on s.toMerge; mergers
// deduplicate batch-wise and deliver (emitMatches).
//
// Drain markers travel the same channels in order with the batches (see
// drainMark), and so do control rounds and the holds of cuts on the
// towork channels (round.go).
//
// Three WaitGroups order the close cascade: the towork channels close once
// the dispatcher is done, the merger channels once every producer of
// matches is (the worker slots, and the readers of the remote workers'
// match streams), and run returns once the mergers are. On cancellation
// every task stops at its next batch boundary. A task that panics is
// recorded as name[task]: value and cancels the run, so the other tasks
// stop, parked publishers return and Drain fails fast; run then reports
// every panic.
func (s *System) run(ctx context.Context, cancel context.CancelFunc) error {
	done := ctx.Done()
	var mu sync.Mutex // guards panics
	var panics []string
	var dispatcherDone, producers, mergers sync.WaitGroup
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

	// The dispatcher: one task routes every operation by the current
	// assignment, in Submit order, so gridt's H2 and every worker's input
	// follow the order in which Submits took the ingest.
	d := &dispatcher{
		s:       s,
		out:     newFanout(&s.opBatches, s.towork, done),
		enq:     make([]int64, s.totalSlots()),
		resolve: slices.ContainsFunc(s.bolts, func(b *workerBolt) bool { return b != nil }),
	}
	spawn(&dispatcherDone, "dispatcher", 0, d.run)

	// Workers: one task per slot, spares included, so a runtime join needs
	// no new task. An in-process slot's task runs the slot's engine; an
	// out-of-process slot (Config.RemoteWorkers, or a spare claimable by
	// AddWorker) gets a forwarder that puts its stream on the wire, and a
	// reader of the node's up stream (an unclaimed spare's reader sleeps
	// until AddWorker installs a session).
	for i, in := range s.towork {
		if h := s.hop(i); h != nil {
			fw := &remoteWorkerBolt{s: s, task: i, hop: h,
				toMerge: newFanout(&s.matchBatches, s.toMerge, done)}
			spawn(&producers, "worker", i, func() {
				defer fw.Close() // on a panic too
				consume(in, done, fw.process, fw.mark, fw.ctrl)
			})
			rd := &remoteMatchSpout{s: s, task: i, hop: h,
				split: newFanout(&s.matchBatches, s.toMerge, done)}
			spawn(&producers, "wmatches", i, rd.run)
			continue
		}
		w := s.bolts[i]
		w.split = newFanout(&s.matchBatches, s.toMerge, done)
		spawn(&producers, "worker", i, func() { consume(in, done, w.process, w.split.mark, w.serve) })
	}

	// Mergers: deduplicate and deliver what can repeat. A task listed in
	// Config.RemoteMergers forwards its hash share across the wire
	// instead; the remote node dedups and delivers.
	for i, in := range s.toMerge {
		if cl := s.cfg.RemoteMergers[i]; cl != nil {
			fw := &remoteMergerBolt{s: s, task: i, cl: cl}
			spawn(&mergers, "merger", i, func() {
				defer cl.CloseSend() // on a panic too
				consume(in, done, fw.process, fw.mark, nil)
			})
			continue
		}
		m := newMerger(s, i)
		spawn(&mergers, "merger", i, func() { consume(in, done, m.process, m.mark, nil) })
	}

	dispatcherDone.Wait()
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

// dispatcher is the dispatcher task, the source of the topology: it takes
// whatever the ingest has accepted and routes it in chunks of up to
// BatchSize operations, so batches fill by themselves under load (the
// ingest accumulates while the dispatcher works) and an idle system routes
// a single operation at once. A marker taken with the operations goes to
// every slot after the ones before it, a control round to its slot, and
// a cut runs between the operations before and after it.
type dispatcher struct {
	s *System
	// spare is the routed buffer the next take hands back to the ingest.
	spare []wire.OpEnv
	// out holds the open towork batch of every worker.
	out fanout[wire.OpEnv]
	// sinceFlush counts operations routed since out was last flushed (see
	// forcedFlushFactor).
	sinceFlush int
	// enq is dispatchBatch's per-worker count for one chunk.
	enq []int64
	// resolve is set when some slot runs in this process, so some engine
	// can read an object's TermIDs. ids is the slab they are cut from. A
	// slab is never rewritten once an envelope holds part of it: when it
	// fills, the next one is allocated, and the old one goes with the
	// last batch that refers to it.
	resolve bool
	ids     []uint32
}

// idSlab is the length of one TermIDs slab.
const idSlab = 4096

// run routes what the ingest accepts until it is closed and drained. Once
// the run is cancelled it routes nothing more, not even the remainder of
// the ingest Abort closed.
func (d *dispatcher) run() {
	for {
		// Nothing is waiting: push out partial batches before parking.
		ops, marks := d.s.ingest.take(d.spare, d.flush)
		if len(ops)+len(marks) == 0 || cancelled(d.out.done) {
			break // closed and drained, or cancelled
		}
		at := 0
		for _, qm := range marks {
			d.route(ops[at:qm.at])
			at = qm.at
			switch {
			case qm.c != nil:
				d.out.to(qm.c.slot, msg[wire.OpEnv]{ctrl: qm.c})
			case qm.cut != nil:
				d.cut(qm.cut)
			default:
				d.out.mark(qm.m)
				d.sinceFlush = 0
			}
		}
		d.route(ops[at:])
		clear(ops) // the buffer is reused; do not pin routed objects and queries
		d.spare = ops
	}
	d.flush()
}

// route routes ops in chunks of up to BatchSize.
func (d *dispatcher) route(ops []wire.OpEnv) {
	bs := d.s.cfg.BatchSize
	for i := 0; i < len(ops); i += bs {
		chunk := ops[i:min(i+bs, len(ops))]
		d.dispatchBatch(chunk)
		if d.sinceFlush += len(chunk); d.sinceFlush >= forcedFlushFactor*bs {
			d.flush()
		}
	}
}

// cut puts c's holds in their slots' streams, behind every operation
// routed to them so far, and runs c's change: the next operation routes
// under the new table.
func (d *dispatcher) cut(c *cut) {
	for _, h := range c.holds {
		d.out.to(h.slot, msg[wire.OpEnv]{hold: h})
	}
	c.change(c.holds)
	close(c.done)
}

// flush sends every partial towork batch.
func (d *dispatcher) flush() {
	d.out.flush()
	d.sinceFlush = 0
}

// dispatchBatch routes one chunk of operations, appending each envelope
// to the open batch of every worker it is routed to; the shared counters
// move once per chunk. The routing structures are re-read per operation:
// they are single atomic loads, and a migration's flip then takes effect
// from the next operation on.
//
// An object whose target set has exactly one member is marked Solo,
// whatever assignment computed the set: only that worker's engine sees
// it, an engine reports a query at most once per object
// (gi2.Index.MatchSlots), so no (query, object) pair of it can reach the
// mergers twice.
//
// An object's terms are looked up in the coordinator's dictionary once,
// here: the assignment routes by the ids, and an object routed to an
// in-process slot carries them to its engine (wire.OpEnv.TermIDs). An
// insert interns every term of its query first (intern), so an object
// routed after it resolves all of them, whenever the engine applies it.
// When every slot is remote, no engine here reads ids: the assignment
// routes by the terms, and gridt stops looking them up at a space
// cell's first live key.
func (d *dispatcher) dispatchBatch(ops []wire.OpEnv) {
	s := d.s
	// Stage timing uses the wall clock, not cfg.Clock: it measures real
	// processing cost per chunk, and tests' fake clocks must not skew it.
	stageStart := time.Now()
	// "The object can be discarded if it contains no terms in H2" — still
	// count its latency as handled, under one clock read for the chunk, on
	// the configured clock the envelopes were stamped in.
	now, lat := s.now(), s.latency.Load()
	var discarded int64
	for i := range ops {
		op := &ops[i].Op
		a := s.Assignment()
		var targets []int
		switch op.Kind {
		case model.OpObject:
			targets = d.routeObject(a, &ops[i])
			ops[i].Solo = len(targets) == 1
			if gt := s.gridT.Load(); gt != nil && s.cellObjects != nil {
				if id := gt.Grid().CellOf(op.Obj.Loc); id < len(s.cellObjects) {
					s.cellObjects[id].Add(1)
				}
			}
			if len(targets) == 0 {
				discarded++
				lat.Observe(now.Sub(ops[i].T0))
			}
		case model.OpInsert:
			// Register before the fan-out: operations pass through here in
			// Submit order, so an insert precedes its later delete, and
			// every delta a worker can produce postdates the registration.
			if op.Query.IsTopK() {
				s.board.register(op.Query.ID)
			}
			s.keyFirst(op)
			s.intern(op.Query)
			targets = a.RouteQuery(op.Query, true)
		case model.OpDelete:
			s.board.unregister(op.Query.ID)
			s.keyFirst(op)
			targets = a.RouteQuery(op.Query, false)
		}
		for _, w := range targets {
			d.enq[w]++
			d.out.add(w, &ops[i])
		}
	}
	for w, n := range d.enq {
		if n > 0 {
			s.enqueued[w].Add(n)
			d.enq[w] = 0
		}
	}
	s.discarded.Add(discarded)
	s.processed.Add(int64(len(ops)))
	s.tput.Add(int64(len(ops)))
	s.stageDisp.Observe(time.Since(stageStart))
}

// routeObject routes env's object by the ids of its terms, which it
// leaves on env for an in-process engine, or by its terms when no engine
// here reads ids.
func (d *dispatcher) routeObject(a partition.Assignment, env *wire.OpEnv) []int {
	o := env.Op.Obj
	if !d.resolve {
		return a.RouteObject(o)
	}
	ids := d.termIDs(o)
	targets := routeByIDs(a, o, ids)
	if d.s.inProcess(targets) {
		env.TermIDs = ids
	} else {
		d.ids = d.ids[:len(d.ids)-len(ids)] // no engine here reads them
	}
	return targets
}

// termIDs returns the ids o's terms have in the coordinator's dictionary,
// leaving out the terms it does not hold, in the next free part of the
// id slab. The result is never nil, so an engine can tell it from an
// unresolved envelope.
func (d *dispatcher) termIDs(o *model.Object) []uint32 {
	if d.ids == nil || cap(d.ids)-len(d.ids) < len(o.Terms) {
		d.ids = make([]uint32, 0, max(idSlab, len(o.Terms)))
	}
	at := len(d.ids)
	for _, t := range o.Terms {
		if id := d.s.dict.Find(t); id != 0 {
			d.ids = append(d.ids, id)
		}
	}
	return d.ids[at:len(d.ids):len(d.ids)]
}

// termIDRouter is an assignment that can route an object by the ids its
// terms have in the coordinator's dictionary (hybrid.GridT, once UseDict
// gave it that dictionary).
type termIDRouter interface {
	RouteObjectIDs(o *model.Object, ids []uint32) []int
}

// routeByIDs routes o by ids if a can, else by o's terms.
func routeByIDs(a partition.Assignment, o *model.Object, ids []uint32) []int {
	if r, ok := a.(termIDRouter); ok {
		return r.RouteObjectIDs(o, ids)
	}
	return a.RouteObject(o)
}

// keyFirst puts each conjunction's registration key first in op's query,
// which everything downstream reads as its first term. The caller may
// still hold the query, so one that needs reordering is copied.
func (s *System) keyFirst(op *model.Op) {
	if conj, copied := s.rank.KeyFirst(op.Query.Expr.Conj); copied {
		q := *op.Query
		q.Expr.Conj = conj
		op.Query = &q
	}
}

// intern adds every term of q's expression to the coordinator's
// dictionary, not only its registration keys: an object routed after q
// must carry the ids of all of q's terms, or an in-process engine that
// applies q after the object was routed would miss the match.
func (s *System) intern(q *model.Query) {
	for _, c := range q.Expr.Conj {
		for _, t := range c {
			s.dict.ID(t)
		}
	}
}

// inProcess reports whether any of the slots runs in this process.
func (s *System) inProcess(slots []int) bool {
	for _, w := range slots {
		if s.bolts[w] != nil {
			return true
		}
	}
	return false
}

// workerBolt runs an in-process worker slot: it feeds the slot's engine
// from its own task goroutine, a whole batch or one control round per
// call, so it is the engine's one writer and the board sees the slot's
// deltas in the order the engine produced them. The engine does the
// matching; the bolt keeps what belongs to the topology — the simulated
// per-operation cost, the stage histogram, match emission and delivery,
// and latency accounting.
type workerBolt struct {
	s    *System
	task int
	eng  *worker.Engine
	// beforeBatch, when set, runs on every op batch before the engine
	// sees it. Only tests set it, before Start, to stall or observe one
	// worker.
	beforeBatch func(ops []wire.OpEnv)
	// out and deltas are the engine's match and delta scratch, reused
	// across batches; split holds the matches batches being filled from
	// out, one per merger, with the matches that can repeat.
	out    []wire.MatchEnv
	deltas []window.Delta
	split  fanout[wire.MatchEnv]
}

// process runs one towork batch, delivers the matches that cannot
// repeat and sends the others to the mergers.
func (w *workerBolt) process(batch *[]wire.OpEnv) {
	s := w.s
	stageStart := time.Now() // wall clock; see dispatchBatch
	ops := *batch
	if s.cfg.PerTupleWork > 0 {
		spin(time.Duration(len(ops)) * s.cfg.PerTupleWork)
	}
	if w.beforeBatch != nil {
		w.beforeBatch(ops)
	}
	w.out, w.deltas, _ = w.eng.Process(ops, w.out[:0], w.deltas[:0])
	if len(w.deltas) > 0 {
		s.board.ApplyFrom(w.task, 0, w.deltas)
	}
	if n := len(w.out); n > 0 {
		s.matchesEmitted.Add(int64(n))
	}
	s.emitMatches(&w.split, w.out)
	s.doneOps[w.task].Add(int64(len(ops)))
	s.observeLatency(ops)
	s.opBatches.put(batch)
	s.stageWork.Observe(time.Since(stageStart))
}

// serve answers one control round in the slot's stream, behind every
// batch before it, or handed over through a hold. An install's or a
// window advance's deltas reach the board before the reply and before any
// later batch's deltas (a removing extraction's return in the share, and
// the migration applies them while the slot is held; see handOff).
func (w *workerBolt) serve(c *ctrlRound) {
	reply, err := w.eng.Serve(c.req)
	w.s.board.applyAck(w.task, reply)
	c.answer(reply, err)
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

// merger deduplicates the matches that can repeat with a bounded FIFO
// window and delivers them, a batch at a time. One instance per merger
// task; no locking needed for its own state. The window is made by the
// first batch, so a merger that never receives a match holds none.
type merger struct {
	s    *System
	task int
	win  *dedup.Window
}

func newMerger(s *System, task int) *merger {
	return &merger{s: s, task: task}
}

// mark takes one producer's copy of a marker. Every batch before it has
// been delivered, callbacks returned.
func (m *merger) mark(mk *drainMark) {
	if mk.arrive(m.task) {
		mk.pass()
	}
}

// process takes one matches batch, drops the pairs its window has seen
// and delivers the rest. The shared counters move once per batch, after
// the deliveries they count.
func (m *merger) process(batch *[]wire.MatchEnv) {
	s := m.s
	stageStart := time.Now() // wall clock; see dispatchBatch
	if m.win == nil {
		m.win = dedup.NewWindow(s.cfg.DedupWindow)
	}
	fresh := (*batch)[:0]
	for i := range *batch {
		if me := &(*batch)[i]; m.win.Observe([2]uint64{me.M.QueryID, me.M.ObjectID}) {
			fresh = append(fresh, *me)
		}
	}
	s.deliver(fresh, false)
	n := int64(len(*batch))
	s.mergerIn.Add(n)
	s.duplicates.Add(n - int64(len(fresh)))
	s.matchBatches.put(batch)
	s.stageMerge.Observe(time.Since(stageStart))
}
