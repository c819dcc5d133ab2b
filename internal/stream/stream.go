// Package stream is a miniature Storm-like dataflow engine: spouts and
// bolts are goroutines connected by bounded channels.
//
// A Topology declares spouts (sources), bolts (processors), named streams
// and shuffle subscriptions. Run executes the dataflow until every spout is
// exhausted and all in-flight tuples are drained, or the context is
// cancelled. Channels carry []Tuple batches: a producer's Collector buffers
// emitted tuples per downstream task and transfers a batch when it reaches
// the topology's batch size, when the producing task goes idle, or on an
// explicit Collector.Flush; SetBatchSize(1) is tuple-at-a-time transfer.
//
// PS2Stream does not run on this package: internal/core moves its typed
// batches over its own channels. It survives only for the benchmark's
// stream probe (benchmark/probes.go), until that probe measures core's
// hop instead.
package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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
	// Emit sends the tuple on the named stream to the next task, round
	// robin, of every subscriber.
	Emit(stream string, t Tuple)
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

// SpoutFunc adapts a function to the Spout interface.
type SpoutFunc func(c Collector) bool

// Next implements Spout.
func (f SpoutFunc) Next(c Collector) bool { return f(c) }

// BoltFunc adapts a function to the Bolt interface.
type BoltFunc func(t Tuple, c Collector)

// Process implements Bolt.
func (f BoltFunc) Process(t Tuple, c Collector) { f(t, c) }

// subscription is one bolt's shuffle subscription to a stream.
type subscription struct {
	bolt *boltDecl
	next atomic.Uint64 // round-robin cursor
}

type spoutDecl struct {
	name    string
	factory func(task int) Spout
	par     int
	outputs []string
}

type boltDecl struct {
	name    string
	factory func(task int) Bolt
	par     int
	outputs []string
	inputs  []chan []Tuple
	// producers counts upstream task instances still running; the
	// bolt's inputs close when it reaches zero.
	producers atomic.Int64
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
}

// forcedFlushFactor bounds how many input tuples a busy bolt may process
// before its partial output batches are pushed anyway. Without it, a
// rarely-targeted downstream task could see its tuples parked in a partial
// batch for as long as the producer stays saturated.
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
func (t *Topology) AddSpout(name string, f func(task int) Spout, parallelism int, outputs ...string) {
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
func (t *Topology) AddBolt(name string, f func(task int) Bolt, parallelism int, outputs ...string) *BoltSpec {
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

// Shuffle subscribes round-robin.
func (b *BoltSpec) Shuffle(streamName string) *BoltSpec {
	sub := &subscription{bolt: b.decl}
	b.t.subsByStream[streamName] = append(b.t.subsByStream[streamName], sub)
	return b
}

// collector implements Collector for one producing task. It buffers
// emitted tuples per (subscription, downstream task); each buffer is sent
// as one batch when it reaches batchSize or on flush. Buffers fill and
// flush in emission order, so per-downstream-task FIFO is preserved.
type collector struct {
	t *Topology
	// allowed streams for this producer.
	outputs map[string]bool
	ctx     context.Context
	// bufs holds this producer's partial batches, indexed by downstream
	// task within each subscription.
	bufs map[*subscription][][]Tuple
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
	for _, sub := range c.t.subsByStream[streamName] {
		c.push(sub, int(sub.next.Add(1))%sub.bolt.par, tp)
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

// errInvalidTopology wraps declaration errors found at Run time.
var errInvalidTopology = errors.New("stream: invalid topology")

// Run validates the topology, starts every task goroutine, and blocks
// until all spouts finish and all tuples drain (or ctx is cancelled).
// Tasks that panic are recovered; their messages are aggregated into the
// returned error.
func (t *Topology) Run(ctx context.Context) error {
	if len(t.errs) > 0 {
		return fmt.Errorf("%w: %v", errInvalidTopology, errors.Join(t.errs...))
	}
	for streamName := range t.subsByStream {
		if t.emittersByStream[streamName] == 0 {
			return fmt.Errorf("%w: stream %q has subscribers but no emitters", errInvalidTopology, streamName)
		}
	}
	// Allocate input channels and producer counts.
	for _, b := range t.bolts {
		b.inputs = make([]chan []Tuple, b.par)
		for i := range b.inputs {
			b.inputs[i] = make(chan []Tuple, t.queueCap)
		}
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
				col := &collector{t: t, outputs: toSet(b.outputs), ctx: ctx}
				bolt := b.factory(task)
				// sinceFlush forces a flush after forcedFlushFactor×
				// batchSize inputs so partial output batches cannot be
				// parked indefinitely while the input stays saturated.
				sinceFlush := 0
				for batch := range b.inputs[task] {
					sinceFlush += len(batch)
					for j := range batch {
						bolt.Process(batch[j], col)
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

func (t *Topology) recoverPanic(name string, task int) {
	if r := recover(); r != nil {
		t.panicMu.Lock()
		t.panics = append(t.panics, fmt.Sprintf("%s[%d]: %v", name, task, r))
		t.panicMu.Unlock()
	}
}

func toSet(ss []string) map[string]bool {
	m := make(map[string]bool, len(ss))
	for _, s := range ss {
		m[s] = true
	}
	return m
}
