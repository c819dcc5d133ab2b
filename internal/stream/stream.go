// Package stream is a miniature Storm-like dataflow engine: the substrate
// PS2Stream runs on (the paper deploys on Apache Storm; here spouts and
// bolts are goroutines connected by bounded channels, which is the
// repro-equivalent on a single box).
//
// A Topology declares spouts (sources), bolts (processors), named streams,
// and groupings (shuffle, fields/hash, broadcast, direct). Run executes
// the dataflow until every spout is exhausted and all in-flight tuples are
// drained, or the context is cancelled. Bounded channels provide
// backpressure exactly where a Storm topology would queue.
//
// The dataflow is batch-oriented: channels carry []Tuple slices, not
// single tuples. A producer's Collector buffers emitted tuples per
// (stream, downstream task) — groupings are evaluated once per tuple at
// emit time — and transfers a whole batch when it reaches the topology's
// batch size, when the producing task goes idle, or on an explicit
// Collector.Flush. Batching amortises the per-message channel-send and
// scheduling cost, which dominates the publish hot path at high rates;
// SetBatchSize(1) restores tuple-at-a-time transfer.
//
// PS2Stream (internal/core) batches above this package: it leaves the
// batch size at 1 and hands the engine one tuple per typed batch — a
// pointer to a pooled []wire.OpEnv or []wire.MatchEnv — so what it takes
// from here is the task goroutines, the bounded channels, the close
// cascade, panic capture and the io.Closer hook. The collector's own
// batching serves other topologies (and the benchmark's stream probes).
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"ps2stream/internal/metrics"
)

// Tuple is the unit of data flowing through a topology.
type Tuple struct {
	// Value is the payload.
	Value interface{}
}

// Collector lets spouts and bolts emit tuples downstream. Emitted tuples
// are buffered into per-downstream-task batches; a batch is transferred
// when it reaches the topology's batch size, when the engine flushes an
// idle task, or on Flush.
type Collector interface {
	// Emit sends the tuple on the named stream using each subscriber's
	// grouping.
	Emit(stream string, t Tuple)
	// EmitDirect sends the tuple to one specific task of every
	// direct-grouped subscriber of the stream.
	EmitDirect(stream string, task int, t Tuple)
	// Flush transfers every buffered partial batch downstream. It is a
	// no-op when nothing is buffered and returns promptly (abandoning the
	// buffered tuples) when the run context is cancelled, so it is safe to
	// call from components during shutdown.
	Flush()
}

// Spout produces tuples. Next is called repeatedly from a single
// goroutine; returning false ends the spout. The engine flushes the
// spout's collector when the spout ends; a spout that may block waiting
// for input should Flush before blocking so buffered tuples are not held
// back.
type Spout interface {
	Next(c Collector) bool
}

// Bolt processes tuples. Process is called from a single goroutine per
// task, so a Bolt instance needs no internal locking for its own state.
type Bolt interface {
	Process(t Tuple, c Collector)
}

// BatchBolt is an optional extension of Bolt: a bolt implementing it
// receives each transferred batch whole instead of tuple-at-a-time, so it
// can amortise per-batch work (acquire a lock once, read a clock once,
// reuse scratch buffers). The batch slice is owned by the engine and
// recycled after ProcessBatch returns; implementations must not retain it.
type BatchBolt interface {
	Bolt
	ProcessBatch(ts []Tuple, c Collector)
}

// A spout or bolt additionally implementing io.Closer has Close called
// exactly once when its task ends — after the final collector flush,
// before its producer slot is released downstream. Components holding
// external resources (e.g. the send side of a remote hop) use it
// to end their output stream cleanly; the engine ignores the returned
// error.

// SpoutFunc adapts a function to the Spout interface.
type SpoutFunc func(c Collector) bool

// Next implements Spout.
func (f SpoutFunc) Next(c Collector) bool { return f(c) }

// BoltFunc adapts a function to the Bolt interface.
type BoltFunc func(t Tuple, c Collector)

// Process implements Bolt.
func (f BoltFunc) Process(t Tuple, c Collector) { f(t, c) }

// SpoutFactory builds one Spout instance per task.
type SpoutFactory func(task int) Spout

// BoltFactory builds one Bolt instance per task.
type BoltFactory func(task int) Bolt

// groupingKind enumerates subscription modes.
type groupingKind uint8

const (
	groupShuffle groupingKind = iota
	groupFields
	groupAll
	groupDirect
)

type subscription struct {
	bolt     *boltDecl
	kind     groupingKind
	keyFn    func(Tuple) uint64
	shuffleC atomic.Uint64
}

type spoutDecl struct {
	name    string
	factory SpoutFactory
	par     int
	outputs []string
}

type boltDecl struct {
	name    string
	factory BoltFactory
	par     int
	outputs []string
	inputs  []chan []Tuple
	// producers counts upstream task instances still running; the
	// bolt's inputs close when it reaches zero.
	producers atomic.Int64
	subs      []*subscription // subscriptions owned by this bolt

	processed metrics.Counter
	emitted   metrics.Counter
}

// BoltSpec configures a bolt's subscriptions fluently.
type BoltSpec struct {
	t    *Topology
	decl *boltDecl
}

// Topology is a declared dataflow. Build with NewTopology, add components,
// then Run.
type Topology struct {
	spouts       []*spoutDecl
	bolts        []*boltDecl
	byName       map[string]bool
	subsByStream map[string][]*subscription
	// emittersByStream counts task instances that may emit on a stream.
	emittersByStream map[string]int
	queueCap         int
	batchSize        int
	errs             []error

	// batchPool recycles transferred batch slices (capacity batchSize).
	batchPool sync.Pool

	panicMu sync.Mutex
	panics  []string

	// chanMu orders Run's input-channel allocation against concurrent
	// QueueStats scrapes. Task goroutines need no lock: the go statement
	// that starts them happens after allocation.
	chanMu sync.Mutex
}

// forcedFlushFactor bounds how many input tuples a busy bolt may process
// before its partial output batches are pushed anyway. Without it, a
// rarely-targeted downstream task could see its tuples parked in a partial
// batch for as long as the producer stays saturated — which would stall
// drain barriers (e.g. migration extraction) under sustained load.
const forcedFlushFactor = 4

// NewTopology returns an empty topology with the given per-task queue
// capacity, counted in batches (<=0 uses 1024), and a batch size of 1
// (tuple-at-a-time); raise the batch size with SetBatchSize.
func NewTopology(queueCap int) *Topology {
	if queueCap <= 0 {
		queueCap = 1024
	}
	return &Topology{
		byName:           make(map[string]bool),
		subsByStream:     make(map[string][]*subscription),
		emittersByStream: make(map[string]int),
		queueCap:         queueCap,
		batchSize:        1,
	}
}

// SetBatchSize sets the number of tuples transferred per channel send
// (<=1 means unbatched). Call before Run.
func (t *Topology) SetBatchSize(n int) {
	if n < 1 {
		n = 1
	}
	t.batchSize = n
}

// BatchSize returns the configured batch size.
func (t *Topology) BatchSize() int { return t.batchSize }

func (t *Topology) getBatch() []Tuple {
	if p, ok := t.batchPool.Get().(*[]Tuple); ok {
		return (*p)[:0]
	}
	return make([]Tuple, 0, t.batchSize)
}

func (t *Topology) putBatch(b []Tuple) {
	b = b[:0]
	t.batchPool.Put(&b)
}

// AddSpout declares a spout emitting on the given output streams.
func (t *Topology) AddSpout(name string, f SpoutFactory, parallelism int, outputs ...string) {
	if t.byName[name] {
		t.errs = append(t.errs, fmt.Errorf("stream: duplicate component %q", name))
		return
	}
	if parallelism < 1 {
		t.errs = append(t.errs, fmt.Errorf("stream: spout %q parallelism %d", name, parallelism))
		return
	}
	t.byName[name] = true
	t.spouts = append(t.spouts, &spoutDecl{name: name, factory: f, par: parallelism, outputs: outputs})
	for _, s := range outputs {
		t.emittersByStream[s] += parallelism
	}
}

// AddBolt declares a bolt; wire its inputs with the returned BoltSpec.
func (t *Topology) AddBolt(name string, f BoltFactory, parallelism int, outputs ...string) *BoltSpec {
	d := &boltDecl{name: name, factory: f, par: parallelism, outputs: outputs}
	if t.byName[name] {
		t.errs = append(t.errs, fmt.Errorf("stream: duplicate component %q", name))
		return &BoltSpec{t: t, decl: d}
	}
	if parallelism < 1 {
		t.errs = append(t.errs, fmt.Errorf("stream: bolt %q parallelism %d", name, parallelism))
		return &BoltSpec{t: t, decl: d}
	}
	t.byName[name] = true
	t.bolts = append(t.bolts, d)
	for _, s := range outputs {
		t.emittersByStream[s] += parallelism
	}
	return &BoltSpec{t: t, decl: d}
}

func (b *BoltSpec) subscribe(streamName string, kind groupingKind, keyFn func(Tuple) uint64) *BoltSpec {
	sub := &subscription{bolt: b.decl, kind: kind, keyFn: keyFn}
	b.decl.subs = append(b.decl.subs, sub)
	b.t.subsByStream[streamName] = append(b.t.subsByStream[streamName], sub)
	return b
}

// Shuffle subscribes round-robin.
func (b *BoltSpec) Shuffle(streamName string) *BoltSpec {
	return b.subscribe(streamName, groupShuffle, nil)
}

// Fields subscribes with hash partitioning on the given key.
func (b *BoltSpec) Fields(streamName string, keyFn func(Tuple) uint64) *BoltSpec {
	return b.subscribe(streamName, groupFields, keyFn)
}

// All subscribes every task to every tuple (broadcast).
func (b *BoltSpec) All(streamName string) *BoltSpec {
	return b.subscribe(streamName, groupAll, nil)
}

// Direct subscribes for explicit task addressing via EmitDirect.
func (b *BoltSpec) Direct(streamName string) *BoltSpec {
	return b.subscribe(streamName, groupDirect, nil)
}

// collector implements Collector for one producing task. It buffers
// emitted tuples per (subscription, downstream task); each buffer is sent
// as one batch when it reaches batchSize or on flush. Buffers fill and
// flush in emission order, so per-downstream-task FIFO is preserved.
type collector struct {
	t    *Topology
	decl *boltDecl // nil for spouts
	// allowed streams for this producer.
	outputs map[string]bool
	ctx     context.Context
	// bufs holds this producer's partial batches, indexed by downstream
	// task within each subscription.
	bufs map[*subscription][][]Tuple
}

func (c *collector) count() {
	if c.decl != nil {
		c.decl.emitted.Inc()
	}
}

// push appends tp to the (sub, task) buffer, transferring the batch when
// full. With batch size 1 it degenerates to one send per tuple.
func (c *collector) push(sub *subscription, task int, tp Tuple) {
	if c.bufs == nil {
		c.bufs = make(map[*subscription][][]Tuple)
	}
	tasks := c.bufs[sub]
	if tasks == nil {
		tasks = make([][]Tuple, sub.bolt.par)
		c.bufs[sub] = tasks
	}
	buf := tasks[task]
	if buf == nil {
		buf = c.t.getBatch()
	}
	buf = append(buf, tp)
	if len(buf) >= c.t.batchSize {
		tasks[task] = nil
		c.send(sub.bolt.inputs[task], buf)
		return
	}
	tasks[task] = buf
}

// Emit implements Collector.
func (c *collector) Emit(streamName string, tp Tuple) {
	if !c.outputs[streamName] {
		panic(fmt.Sprintf("stream: emit on undeclared stream %q", streamName))
	}
	c.count()
	for _, sub := range c.t.subsByStream[streamName] {
		switch sub.kind {
		case groupShuffle:
			i := int(sub.shuffleC.Add(1)) % sub.bolt.par
			c.push(sub, i, tp)
		case groupFields:
			i := int(sub.keyFn(tp) % uint64(sub.bolt.par))
			c.push(sub, i, tp)
		case groupAll:
			for i := range sub.bolt.inputs {
				c.push(sub, i, tp)
			}
		case groupDirect:
			// Direct subscribers ignore plain Emit.
		}
	}
}

// EmitDirect implements Collector.
func (c *collector) EmitDirect(streamName string, task int, tp Tuple) {
	if !c.outputs[streamName] {
		panic(fmt.Sprintf("stream: emit on undeclared stream %q", streamName))
	}
	c.count()
	for _, sub := range c.t.subsByStream[streamName] {
		if sub.kind != groupDirect {
			continue
		}
		if task < 0 || task >= sub.bolt.par {
			panic(fmt.Sprintf("stream: direct task %d out of range for %q", task, sub.bolt.name))
		}
		c.push(sub, task, tp)
	}
}

// Flush implements Collector.
func (c *collector) Flush() {
	for sub, tasks := range c.bufs {
		for task, buf := range tasks {
			if len(buf) == 0 {
				continue
			}
			tasks[task] = nil
			c.send(sub.bolt.inputs[task], buf)
		}
	}
}

// send delivers one batch with backpressure, abandoning it on
// cancellation.
func (c *collector) send(ch chan []Tuple, batch []Tuple) {
	select {
	case ch <- batch:
	case <-c.ctx.Done():
		c.t.putBatch(batch)
	}
}

// Stats reports per-component processed/emitted counts.
type Stats struct {
	Processed int64
	Emitted   int64
}

// ErrInvalidTopology wraps declaration errors found at Run time.
var ErrInvalidTopology = errors.New("stream: invalid topology")

// Run validates the topology, starts every task goroutine, and blocks
// until all spouts finish and all tuples drain (or ctx is cancelled).
// Tasks that panic are recovered; their messages are aggregated into the
// returned error.
func (t *Topology) Run(ctx context.Context) error {
	if len(t.errs) > 0 {
		return fmt.Errorf("%w: %v", ErrInvalidTopology, errors.Join(t.errs...))
	}
	for streamName := range t.subsByStream {
		if t.emittersByStream[streamName] == 0 {
			return fmt.Errorf("%w: stream %q has subscribers but no emitters", ErrInvalidTopology, streamName)
		}
	}
	// Allocate input channels and producer counts.
	for _, b := range t.bolts {
		t.chanMu.Lock()
		b.inputs = make([]chan []Tuple, b.par)
		for i := range b.inputs {
			b.inputs[i] = make(chan []Tuple, t.queueCap)
		}
		t.chanMu.Unlock()
		// Producers: every task instance of every component declaring at
		// least one output stream this bolt subscribes to. Counted per
		// task (not per stream) to mirror producerDone, which fires once
		// per finishing task.
		streams := map[string]bool{}
		for streamName, subs := range t.subsByStream {
			for _, sub := range subs {
				if sub.bolt == b {
					streams[streamName] = true
				}
			}
		}
		var prod int64
		for _, sp := range t.spouts {
			if anyStream(sp.outputs, streams) {
				prod += int64(sp.par)
			}
		}
		for _, ob := range t.bolts {
			if anyStream(ob.outputs, streams) {
				prod += int64(ob.par)
			}
		}
		b.producers.Store(prod)
	}

	var wg sync.WaitGroup
	// Spout tasks.
	for _, sp := range t.spouts {
		for i := 0; i < sp.par; i++ {
			wg.Add(1)
			go func(sp *spoutDecl, task int) {
				defer wg.Done()
				defer t.producerDone(sp.outputs)
				defer t.recoverPanic(sp.name, task)
				col := &collector{t: t, outputs: toSet(sp.outputs), ctx: ctx}
				s := sp.factory(task)
				defer closeComponent(s)
				for ctx.Err() == nil && s.Next(col) {
				}
				col.Flush()
			}(sp, i)
		}
	}
	// Bolt tasks.
	for _, b := range t.bolts {
		for i := 0; i < b.par; i++ {
			wg.Add(1)
			go func(b *boltDecl, task int) {
				defer wg.Done()
				defer t.producerDone(b.outputs)
				defer t.recoverPanic(b.name, task)
				col := &collector{t: t, decl: b, outputs: toSet(b.outputs), ctx: ctx}
				bolt := b.factory(task)
				defer closeComponent(bolt)
				batcher, _ := bolt.(BatchBolt)
				// sinceFlush forces a flush after forcedFlushFactor×
				// batchSize inputs so partial output batches cannot be
				// parked indefinitely while the input stays saturated.
				sinceFlush := 0
				for batch := range b.inputs[task] {
					b.processed.Add(int64(len(batch)))
					sinceFlush += len(batch)
					if batcher != nil {
						batcher.ProcessBatch(batch, col)
					} else {
						for j := range batch {
							bolt.Process(batch[j], col)
						}
					}
					t.putBatch(batch)
					if len(b.inputs[task]) == 0 || sinceFlush >= forcedFlushFactor*t.batchSize {
						col.Flush()
						sinceFlush = 0
					}
				}
				col.Flush()
			}(b, i)
		}
	}
	wg.Wait()
	t.panicMu.Lock()
	defer t.panicMu.Unlock()
	if len(t.panics) > 0 {
		return fmt.Errorf("stream: %d task(s) panicked: %v", len(t.panics), t.panics)
	}
	return ctx.Err()
}

func anyStream(outputs []string, set map[string]bool) bool {
	for _, s := range outputs {
		if set[s] {
			return true
		}
	}
	return false
}

// producerDone decrements the producer count of every bolt subscribed to
// any of the finished task's output streams, closing inputs at zero.
func (t *Topology) producerDone(outputs []string) {
	notified := map[*boltDecl]bool{}
	for _, s := range outputs {
		for _, sub := range t.subsByStream[s] {
			if notified[sub.bolt] {
				continue
			}
			notified[sub.bolt] = true
			if sub.bolt.producers.Add(-1) == 0 {
				for _, ch := range sub.bolt.inputs {
					close(ch)
				}
			}
		}
	}
}

// closeComponent invokes the optional io.Closer hook of a finished
// spout or bolt instance (see the Closer note above BatchBolt).
func closeComponent(v any) {
	if c, ok := v.(io.Closer); ok {
		_ = c.Close()
	}
}

func (t *Topology) recoverPanic(name string, task int) {
	if r := recover(); r != nil {
		t.panicMu.Lock()
		t.panics = append(t.panics, fmt.Sprintf("%s[%d]: %v", name, task, r))
		t.panicMu.Unlock()
	}
}

// ComponentStats returns processed/emitted counters per bolt.
func (t *Topology) ComponentStats() map[string]Stats {
	out := make(map[string]Stats, len(t.bolts))
	for _, b := range t.bolts {
		out[b.name] = Stats{Processed: b.processed.Value(), Emitted: b.emitted.Value()}
	}
	return out
}

// QueueStats is one bolt's input-queue occupancy at a point in time,
// measured in transfer batches (the channel unit).
type QueueStats struct {
	// Depth sums the queued batches across the bolt's task inputs.
	Depth int
	// Cap sums the task input capacities.
	Cap int
}

// QueueStats reports per-bolt input-queue occupancy. Channel lengths are
// racy by nature — the numbers are an instantaneous gauge for
// observability, not a synchronisation primitive. Safe to call
// concurrently with Run; before Run allocates the channels it reports
// zero depth and capacity.
func (t *Topology) QueueStats() map[string]QueueStats {
	out := make(map[string]QueueStats, len(t.bolts))
	t.chanMu.Lock()
	defer t.chanMu.Unlock()
	for _, b := range t.bolts {
		var qs QueueStats
		for _, ch := range b.inputs {
			if ch != nil {
				qs.Depth += len(ch)
				qs.Cap += cap(ch)
			}
		}
		out[b.name] = qs
	}
	return out
}

func toSet(ss []string) map[string]bool {
	m := make(map[string]bool, len(ss))
	for _, s := range ss {
		m[s] = true
	}
	return m
}
