package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"
	"unsafe"

	"ps2stream/internal/dedup"
	"ps2stream/internal/geo"
	"ps2stream/internal/model"
	"ps2stream/internal/partition"
	"ps2stream/internal/textutil"
	"ps2stream/internal/window"
	"ps2stream/internal/wire"
	"ps2stream/internal/worker"
)

// forcedFlushFactor bounds how long the dispatcher, when the ingest never
// runs empty, may keep a partial batch open: every forcedFlushFactor ×
// BatchSize routed operations it sends them all, so a towork batch for a
// rarely-targeted worker cannot be parked behind a saturated input.
const forcedFlushFactor = 4

// batchPool recycles the typed towork batches. A batch travels as a
// *[]wire.OpEnv, so a send moves one pointer.
type batchPool struct {
	pool sync.Pool
	size int // capacity of a batch (Config.BatchSize)
}

func (bp *batchPool) get() *[]wire.OpEnv {
	if p, ok := bp.pool.Get().(*[]wire.OpEnv); ok {
		return p
	}
	b := make([]wire.OpEnv, 0, bp.size)
	return &b
}

// put takes a batch back from the task that consumed it. Nothing may
// retain the slice past this call; it is cleared because envelopes pin
// objects and queries.
func (bp *batchPool) put(p *[]wire.OpEnv) {
	clear(*p)
	*p = (*p)[:0]
	bp.pool.Put(p)
}

// msg is one send on a worker slot's input channel: a batch, a Drain
// marker, a control round or a cut's hold, each following every batch
// the dispatcher sent before it.
type msg struct {
	batch *[]wire.OpEnv
	mark  *drainMark
	ctrl  *ctrlRound
	hold  *hold
}

// newQueues makes one input channel per task. A channel holds
// max(QueueCap/BatchSize, 1) batches, so Config.QueueCap keeps bounding the
// operations queued per task whatever the BatchSize.
func newQueues(tasks int, cfg *Config) []chan msg {
	qs := make([]chan msg, tasks)
	for i := range qs {
		qs[i] = make(chan msg, max(cfg.QueueCap/cfg.BatchSize, 1))
	}
	return qs
}

// fanout is the dispatcher's open batches, one per worker slot, and the
// channels they go out on. A batch is sent when it is full and on flush,
// in the order it was filled, so each slot sees the envelopes in order.
type fanout struct {
	pool *batchPool
	out  []chan msg
	done <-chan struct{} // the run's: once closed, a send drops its batch
	open []*[]wire.OpEnv
}

func newFanout(pool *batchPool, out []chan msg, done <-chan struct{}) fanout {
	return fanout{pool: pool, out: out, done: done, open: make([]*[]wire.OpEnv, len(out))}
}

// add appends *v to the batch open for task.
func (f *fanout) add(task int, v *wire.OpEnv) {
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
func (f *fanout) flush() {
	for task, p := range f.open {
		if p != nil {
			f.open[task] = nil
			f.send(task, p)
		}
	}
}

// send delivers one batch with backpressure; once the run is cancelled it
// returns the batch to its pool instead.
func (f *fanout) send(task int, p *[]wire.OpEnv) {
	select {
	case f.out[task] <- msg{batch: p}:
	case <-f.done:
		f.pool.put(p)
	}
}

// mark sends m to every task, behind the batch open for it.
func (f *fanout) mark(m *drainMark) {
	for task := range f.out {
		f.to(task, msg{mark: m})
	}
}

// to flushes the batch open for task, then sends m behind it.
func (f *fanout) to(task int, m msg) {
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
func consume(in <-chan msg, done <-chan struct{}, process func(*[]wire.OpEnv), mark func(*drainMark), ctrl func(*ctrlRound)) {
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

// mergerOf picks the merger of a match: every report of one (query,
// object) pair, from whichever worker, meets the same dedup window.
func mergerOf(m *model.Match, mergers int) int {
	return int((m.QueryID*0x9E3779B97F4A7C15 ^ m.ObjectID) % uint64(mergers))
}

// dedupShard is a merger: the dedup window of one hash share of the
// matches that can repeat (mergerOf), and the lock under which the
// producer of such a match, whichever task it runs on, deduplicates and
// delivers it. The window is made by the first match, so a shard
// that never receives one holds none.
type dedupShard struct {
	mu  sync.Mutex
	win *dedup.Window
}

// emitMatches delivers the matches of one producer (an in-process
// worker's batch, or a frame read from a remote slot) before it returns,
// on the producer's task. A Solo match cannot meet a second report of its
// pair (dispatchBatch), so no window needs to see it. The others go, one
// merger's share at a time, through merge. A match read from a remote
// slot is never Solo. ms is reordered.
func (s *System) emitMatches(ms []wire.MatchEnv) {
	n := 0
	for i := range ms {
		if ms[i].Solo {
			ms[n], ms[i] = ms[i], ms[n]
			n++
		}
	}
	s.deliver(ms[:n], true)
	mergers := len(s.shards)
	for task, rest := 0, ms[n:]; len(rest) > 0; task++ {
		k := 0
		for i := range rest {
			if mergerOf(&rest[i].M, mergers) == task {
				rest[k], rest[i] = rest[i], rest[k]
				k++
			}
		}
		if k > 0 {
			s.merge(task, rest[:k])
		}
		rest = rest[k:]
	}
}

// merge takes one producer's matches for merger task: under the shard's
// lock it drops the pairs the shard's window has seen and delivers the
// rest. The lock is released on a panic in OnMatch too, so the producers
// waiting on it go on to the run's end. The counters move after the
// deliveries they count.
func (s *System) merge(task int, ms []wire.MatchEnv) {
	stageStart := time.Now() // wall clock; see dispatchBatch
	sh := &s.shards[task]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.win == nil {
		sh.win = dedup.NewWindow(s.cfg.DedupWindow)
	}
	fresh := ms[:0]
	for i := range ms {
		if sh.win.Observe([2]uint64{ms[i].M.QueryID, ms[i].M.ObjectID}) {
			fresh = append(fresh, ms[i])
		}
	}
	s.deliver(fresh, false)
	n := int64(len(ms))
	s.mergerIn.Add(n)
	s.duplicates.Add(n - int64(len(fresh)))
	s.stageMerge.Observe(time.Since(stageStart))
}

// deliver hands ms to OnMatch and counts them: it is the last step of
// every match delivered in this process, called by a producer of matches
// with the ones that cannot repeat (solo) and with the ones a shard's
// window let through (merge). One clock read serves the slice, and the
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

// run executes dispatcher → worker → merger (Figure 1) until the ingest
// is closed and every batch has drained, or ctx is cancelled. The
// dispatcher and each worker slot are one goroutine each; a merger is
// not a task but a lock (dedupShard), taken by the producer of the
// matches it guards. The dispatcher pulls typed []wire.OpEnv buffers
// from the ingest (ingest.go) and fills one batch per target worker on
// s.towork; workers take their index/window locks once per batch and
// deduplicate and deliver its matches themselves (emitMatches).
//
// Drain markers travel the towork channels in order with the batches
// (see drainMark), and so do control rounds and the holds of cuts
// (round.go).
//
// Two WaitGroups order the close cascade: the towork channels close once
// the dispatcher is done, and run returns once every producer of matches
// is (the worker slots, and the readers of the remote workers' match
// streams). On cancellation every task stops at its next batch boundary. A task that
// panics is recorded as name[task]: value and cancels the run, so the
// other tasks stop, parked publishers return and Drain fails fast; run
// then reports every panic.
func (s *System) run(ctx context.Context, cancel context.CancelFunc) error {
	done := ctx.Done()
	var mu sync.Mutex // guards panics
	var panics []string
	var dispatcherDone, producers sync.WaitGroup
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
		s:   s,
		out: newFanout(&s.opBatches, s.towork, done),
		enq: make([]int64, s.totalSlots()),
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
			fw := &remoteWorkerBolt{s: s, task: i, hop: h}
			spawn(&producers, "worker", i, func() {
				defer fw.Close() // on a panic too
				consume(in, done, fw.process, fw.mark, fw.ctrl)
			})
			rd := &remoteMatchSpout{s: s, task: i, hop: h}
			spawn(&producers, "wmatches", i, rd.run)
			continue
		}
		w := s.bolts[i]
		spawn(&producers, "worker", i, func() { consume(in, done, w.process, (*drainMark).pass, w.serve) })
	}

	dispatcherDone.Wait()
	for _, ch := range s.towork {
		close(ch)
	}
	producers.Wait()
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
	out fanout
	// sinceFlush counts operations routed since out was last flushed (see
	// forcedFlushFactor).
	sinceFlush int
	// enq is dispatchBatch's per-worker count for one chunk.
	enq []int64
	// ids is the slab objects' TermIDs are cut from (System.resolve). A
	// slab is never rewritten once an envelope holds part of it: when it
	// fills, the next one is allocated, and the old one goes with the
	// last batch that refers to it.
	ids []uint32
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
				d.out.to(qm.c.slot, msg{ctrl: qm.c})
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
		d.out.to(h.slot, msg{hold: h})
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
// (gi2.Index.MatchSlots), so no (query, object) pair of it can be
// reported twice.
//
// An object's terms are looked up in the coordinator's dictionary once,
// here, straight from its text when Publish left the terms unmade
// (textIDs): the assignment routes by the ids, and an object routed to an
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
// here reads ids (Submit made them). An object in a cell with no live
// registration key is discarded before its text is read at all. Term
// strings are made here only for a reader of strings: an assignment that
// cannot route by ids, and a remote slot, whose engine matches on the
// terms it is sent. They are made before the fan-out, so no worker
// writes the shared object.
func (d *dispatcher) routeObject(a partition.Assignment, env *wire.OpEnv) []int {
	o := env.Op.Obj
	if !d.s.resolve {
		return a.RouteObject(o)
	}
	r, byIDs := a.(termIDRouter)
	if byIDs && r.NoKeysAt(o.Loc) {
		return nil // discarded by its cell alone: its text is not read
	}
	ids := d.objectIDs(o)
	var targets []int
	if byIDs {
		targets = r.RouteObjectIDs(o, ids)
	} else {
		targets = a.RouteObject(makeTerms(o))
	}
	local := false
	for _, w := range targets {
		if d.s.bolts[w] != nil {
			local = true
		} else {
			makeTerms(o)
		}
	}
	if local {
		env.TermIDs = ids
	} else {
		d.ids = d.ids[:len(d.ids)-len(ids)] // no engine here reads them
	}
	return targets
}

// routeByIDs routes o by ids if a can, else by o's terms, which it makes
// first.
func routeByIDs(a partition.Assignment, o *model.Object, ids []uint32) []int {
	if r, ok := a.(termIDRouter); ok {
		return r.RouteObjectIDs(o, ids)
	}
	return a.RouteObject(makeTerms(o))
}

// makeTerms sets o's terms from its text if they are not made yet, and
// returns o. An object with no text has none to make and is not written:
// a test may hand one object to two systems.
func makeTerms(o *model.Object) *model.Object {
	if o.Terms == nil && o.Text != "" {
		o.Terms = textutil.Tokenize(o.Text)
	}
	return o
}

// objectIDs returns the ids o's terms have in the coordinator's
// dictionary: termIDs of its terms, or textIDs of its text when they are
// not made.
func (d *dispatcher) objectIDs(o *model.Object) []uint32 {
	if o.Terms != nil {
		return d.termIDs(o.Terms)
	}
	return d.textIDs(o.Text)
}

// termIDs returns the ids terms have in the coordinator's dictionary,
// leaving out the terms it does not hold, in the next free part of the
// id slab. The result is never nil, so an engine can tell it from an
// unresolved envelope.
func (d *dispatcher) termIDs(terms []string) []uint32 {
	at := d.reserve(len(terms))
	for _, t := range terms {
		if id := d.s.dict.Find(t); id != 0 {
			d.ids = append(d.ids, id)
		}
	}
	return d.ids[at:len(d.ids):len(d.ids)]
}

// textIDs is termIDs(textutil.Tokenize(text)) in one pass over text's
// bytes, with no term string made: each token the textutil.Scanner reads
// is looked up as a substring of text, or, if it has an upper-case
// letter, lowered into a stack buffer first (Find keeps nothing it is
// given). Ids are de-duplicated as integers, in order of first
// occurrence, which is Tokenize's string de-duplication: distinct terms
// have distinct ids. A text with a byte at or above utf8.RuneSelf is
// Tokenize's to split, as Tokenize hands it to its rune path.
func (d *dispatcher) textIDs(text string) []uint32 {
	at := d.reserve((len(text) + 1) / 2) // tokens are one separator apart
	var (
		buf  [64]byte
		seen map[uint32]struct{} // nil until idScanMax distinct ids
		sc   = textutil.NewScanner(text)
	)
	for {
		tok, upper, ok := sc.Next()
		if !ok {
			break
		}
		if upper {
			b := textutil.AppendLower(buf[:0], tok)
			tok = unsafe.String(&b[0], len(b))
		}
		id := d.s.dict.Find(tok)
		switch {
		case id == 0:
			continue
		case seen != nil:
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
		case slices.Contains(d.ids[at:], id):
			continue
		case len(d.ids)-at == idScanMax:
			// Scanning is quadratic: a long text goes through a set.
			seen = make(map[uint32]struct{}, 2*idScanMax)
			for _, x := range d.ids[at:] {
				seen[x] = struct{}{}
			}
			seen[id] = struct{}{}
		}
		d.ids = append(d.ids, id)
	}
	if sc.NonASCII() {
		d.ids = d.ids[:at]
		return d.termIDs(textutil.Tokenize(text))
	}
	return d.ids[at:len(d.ids):len(d.ids)]
}

// idScanMax is the most ids textIDs de-duplicates by scanning.
const idScanMax = 64

// reserve makes room for n more ids in the slab and returns where they
// start.
func (d *dispatcher) reserve(n int) int {
	if d.ids == nil || cap(d.ids)-len(d.ids) < n {
		d.ids = make([]uint32, 0, max(idSlab, n))
	}
	return len(d.ids)
}

// termIDRouter is an assignment that can route an object by the ids its
// terms have in the coordinator's dictionary (hybrid.GridT, once UseDict
// gave it that dictionary), and can tell a location where it discards
// every object before they are read.
type termIDRouter interface {
	NoKeysAt(p geo.Point) bool
	RouteObjectIDs(o *model.Object, ids []uint32) []int
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
	// across batches.
	out    []wire.MatchEnv
	deltas []window.Delta
}

// process runs one towork batch and delivers its matches (emitMatches).
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
	s.emitMatches(w.out)
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
