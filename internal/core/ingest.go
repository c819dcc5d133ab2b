package core

import (
	"sync"

	"ps2stream/internal/metrics"
	"ps2stream/internal/wire"
)

// ingestShard is the queue between Submit and one dispatcher task: Submit
// appends to the open buffer under mu, the dispatcher swaps the whole
// buffer out and routes it. Operations with equal RouteHash land on the
// same shard and leave it in Submit order — an insert before its delete,
// a top-k registration before any delta; nothing is promised across
// shards. A shard holds at most limit waiting operations beside the one
// buffer its dispatcher is routing, and its two buffers grow on demand, so
// an idle system holds less than the bound.
type ingestShard struct {
	mu       sync.Mutex
	nonEmpty sync.Cond // the dispatcher parks here
	notFull  sync.Cond // publishers park here
	buf      []wire.OpEnv
	closed   bool

	limit int              // waiting operations the shard accepts
	chunk int              // first allocation of a buffer (Config.BatchSize)
	waits *metrics.Counter // ps2_ingest_blocked_total
}

func newIngestShard(limit, chunk int, waits *metrics.Counter) *ingestShard {
	sh := &ingestShard{limit: limit, chunk: chunk, waits: waits}
	sh.nonEmpty.L = &sh.mu
	sh.notFull.L = &sh.mu
	return sh
}

// put appends env, parking while the shard is full. On a closed shard it
// returns without enqueuing: the publisher lost the race with Close or
// Abort.
func (sh *ingestShard) put(env wire.OpEnv) {
	sh.mu.Lock()
	for len(sh.buf) >= sh.limit && !sh.closed {
		sh.waits.Inc()
		sh.notFull.Wait()
	}
	if sh.closed {
		sh.mu.Unlock()
		return
	}
	if n := len(sh.buf); n == cap(sh.buf) {
		// Grown by hand: append's policy would overshoot limit.
		grown := make([]wire.OpEnv, n, min(max(2*n, sh.chunk), sh.limit))
		copy(grown, sh.buf)
		sh.buf = grown
	}
	sh.buf = append(sh.buf, env)
	first := len(sh.buf) == 1
	sh.mu.Unlock()
	if first {
		sh.nonEmpty.Signal()
	}
}

// take returns everything accepted since the last call, in Submit order,
// and makes spare the open buffer. On an empty shard it first calls idle
// (outside the lock) and then parks until a put or close; the result is
// empty only once the shard is closed and drained.
func (sh *ingestShard) take(spare []wire.OpEnv, idle func()) []wire.OpEnv {
	sh.mu.Lock()
	if len(sh.buf) == 0 && !sh.closed {
		sh.mu.Unlock()
		idle()
		sh.mu.Lock()
		for len(sh.buf) == 0 && !sh.closed {
			sh.nonEmpty.Wait()
		}
	}
	ops := sh.buf
	sh.buf = spare[:0]
	sh.mu.Unlock()
	sh.notFull.Broadcast()
	return ops
}

// close ends the shard: parked publishers return without enqueuing, and
// the dispatcher takes what was accepted and then sees the end of input.
func (sh *ingestShard) close() {
	sh.mu.Lock()
	sh.closed = true
	sh.mu.Unlock()
	sh.nonEmpty.Signal()
	sh.notFull.Broadcast()
}

// depth is the number of waiting operations (scrape-time gauge).
func (sh *ingestShard) depth() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.buf)
}
