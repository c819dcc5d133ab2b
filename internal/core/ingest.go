package core

import (
	"sync"

	"ps2stream/internal/metrics"
	"ps2stream/internal/wire"
)

// ingestQueue is the one FIFO between Submit and the dispatcher task:
// Submit appends to the open buffer under mu, the dispatcher swaps the
// whole buffer out and routes it. Every operation leaves it in Submit order,
// so the dispatcher routes in Submit order and every worker, fed in turn by
// a FIFO channel or connection, applies its operations in Submit order. A
// Drain marker, a control round or a cut (round.go) takes its place in the
// same order. The queue holds at most
// limit waiting operations beside the one buffer the dispatcher is
// routing, and its two buffers grow on demand, so an idle system holds
// less than the bound.
type ingestQueue struct {
	mu       sync.Mutex
	nonEmpty sync.Cond // the dispatcher parks here
	notFull  sync.Cond // publishers park here
	buf      []wire.OpEnv
	// marks are the markers, rounds and cuts put since the last take, in
	// order.
	marks  []queuedMark
	closed bool

	limit int              // waiting operations the queue accepts
	chunk int              // first allocation of a buffer (Config.BatchSize)
	waits *metrics.Counter // ps2_ingest_blocked_total
}

func newIngestQueue(limit, chunk int, waits *metrics.Counter) *ingestQueue {
	q := &ingestQueue{limit: limit, chunk: chunk, waits: waits}
	q.nonEmpty.L = &q.mu
	q.notFull.L = &q.mu
	return q
}

// put appends env, parking while the queue is full. On a closed queue it
// returns without enqueuing: the publisher lost the race with Close or
// Abort.
func (q *ingestQueue) put(env wire.OpEnv) {
	q.mu.Lock()
	for len(q.buf) >= q.limit && !q.closed {
		q.waits.Inc()
		q.notFull.Wait()
	}
	if q.closed {
		q.mu.Unlock()
		return
	}
	if n := len(q.buf); n == cap(q.buf) {
		// Grown by hand: append's policy would overshoot limit.
		grown := make([]wire.OpEnv, n, min(max(2*n, q.chunk), q.limit))
		copy(grown, q.buf)
		q.buf = grown
	}
	q.buf = append(q.buf, env)
	first := len(q.buf) == 1
	q.mu.Unlock()
	if first {
		q.nonEmpty.Signal()
	}
}

// queuedMark is a Drain marker (m), a control round addressed to one slot
// (c) or a cut (cut) that follows the first at operations of the buffer it
// was put into.
type queuedMark struct {
	at  int
	m   *drainMark
	c   *ctrlRound
	cut *cut
}

// mark appends qm behind every operation accepted so far. It never
// blocks: a marker holds no operation. On a closed queue it reports
// false.
func (q *ingestQueue) mark(qm queuedMark) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	qm.at = len(q.buf)
	q.marks = append(q.marks, qm)
	q.mu.Unlock()
	q.nonEmpty.Signal()
	return true
}

// take returns everything accepted since the last call, in Submit order,
// with the markers put among it, and makes spare the open buffer. On an
// empty queue it first calls idle (outside the lock) and then parks until
// a put, mark or close; the result is empty only once the queue is closed
// and drained.
func (q *ingestQueue) take(spare []wire.OpEnv, idle func()) ([]wire.OpEnv, []queuedMark) {
	q.mu.Lock()
	if len(q.buf)+len(q.marks) == 0 && !q.closed {
		q.mu.Unlock()
		idle()
		q.mu.Lock()
		for len(q.buf)+len(q.marks) == 0 && !q.closed {
			q.nonEmpty.Wait()
		}
	}
	ops, marks := q.buf, q.marks
	q.buf, q.marks = spare[:0], nil
	q.mu.Unlock()
	q.notFull.Broadcast()
	return ops, marks
}

// close ends the queue: parked publishers return without enqueuing, and
// the dispatcher takes what was accepted, markers included, and then sees
// the end of input.
func (q *ingestQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.nonEmpty.Signal()
	q.notFull.Broadcast()
}

// depth is the number of waiting operations (scrape-time gauge).
func (q *ingestQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf)
}
