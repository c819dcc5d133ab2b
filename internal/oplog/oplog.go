// Package oplog is the dispatcher-side operation log that makes a
// remote worker crash-recoverable. The coordinator appends every
// operation it routes to a worker slot *before* putting it on the wire;
// a periodic checkpoint (a drain barrier proving the worker processed
// everything up to a watermark) folds the covered prefix into a compact
// live-query base, held in memory only, and truncates the log. Recovery for a crashed worker
// is then: re-register the base (the queries live at the watermark),
// replay the logged tail above it, and resume the stream.
//
// Replay is idempotent by construction: duplicate query registrations
// are ignored by the worker's index, deletions of absent queries are
// no-ops, and re-matched objects produce duplicate matches the merger
// stage deduplicates. The log is bounded in steady state by the
// checkpoint cadence; during an outage it grows until the worker is
// recovered or decommissioned (the price of exactness without a
// persistent queue).
//
// Sliding-window top-k subscriptions need more than the live query set:
// a recovered node must also rebuild its in-window entries, or the
// coordinator's top-k board would permanently lose their contributions
// when it fences out the dead session. Checkpoint therefore retains
// object entries younger than the largest top-k window past the
// watermark, marked Refill — replayed so the node re-offers them
// (original timestamps preserved, since both rank and expiry derive
// from the publish instant) without re-emitting boolean matches that
// were already delivered under the checkpoint barrier — and keeps the
// query entries that follow them in order.
package oplog

import (
	"sort"
	"sync"
	"time"

	"ps2stream/internal/model"
)

// Entry is one logged operation with its per-worker sequence number.
type Entry struct {
	// Seq is the log's own monotonically increasing sequence (1-based);
	// it is unrelated to model.Op.Seq, which belongs to the workload
	// stream.
	Seq uint64
	Op  model.Op
	// T0 is the operation's original submit stamp. Replay must preserve
	// it: window entry ranks and expiry are functions of the publish
	// instant, so re-stamping at the replay instant would corrupt the
	// recovered node's top-k state.
	T0 time.Time
	// Refill marks an object entry retained (or adopted) purely to
	// rebuild window state: the worker feeds it to its window store but
	// suppresses boolean match emission, because those matches were
	// already delivered before the entry was covered by a checkpoint.
	Refill bool
}

// Log is the op log for one worker slot. Safe for concurrent use: the
// worker bolt appends, the checkpoint loop truncates, and the recovery
// goroutine snapshots — all on their own goroutines.
type Log struct {
	mu sync.Mutex
	// live is the checkpoint base: the queries live at the watermark.
	live map[uint64]*model.Query
	// entries is the tail above the watermark, in append order.
	entries []Entry
	// seq is the last assigned sequence number.
	seq uint64
	// watermark is the sequence the base covers.
	watermark uint64
}

// New returns an empty log.
func New() *Log {
	return &Log{live: make(map[uint64]*model.Query)}
}

// Append logs one operation with its submit stamp and returns its
// sequence number.
func (l *Log) Append(op model.Op, t0 time.Time) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	l.entries = append(l.entries, Entry{Seq: l.seq, Op: op, T0: t0})
	return l.seq
}

// AdoptQuery logs a synthetic insertion for a query migrated *onto*
// this worker (cell migration install). It must be an entry, not a
// base mutation: the adopting worker has not drained past it yet, so a
// crash before the next checkpoint must replay it.
func (l *Log) AdoptQuery(q *model.Query, t0 time.Time) uint64 {
	return l.Append(model.Op{Kind: model.OpInsert, Query: q}, t0)
}

// DropQuery logs a synthetic deletion for a query migrated *off* this
// worker (cell migration extract).
func (l *Log) DropQuery(q *model.Query, t0 time.Time) uint64 {
	return l.Append(model.Op{Kind: model.OpDelete, Query: q}, t0)
}

// AdoptObject logs a refill entry for a window object migrated *onto*
// this worker with a cell or subscription hand-off. t0 is the object's
// original publish stamp, not the adoption instant. Replaying it
// rebuilds window state only — boolean matches stay suppressed.
func (l *Log) AdoptObject(o *model.Object, t0 time.Time) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	l.entries = append(l.entries, Entry{
		Seq: l.seq, Op: model.Op{Kind: model.OpObject, Obj: o}, T0: t0, Refill: true,
	})
	return l.seq
}

// Checkpoint folds the query entries at or below watermark into the live
// base and truncates the covered prefix. The caller must have proven —
// via a drain barrier — that the worker has fully processed the stream
// up to the watermark, so truncated object entries cannot carry
// unmatched work. Object entries still inside the largest top-k window
// in the base or the log (measured against now) are retained as Refill
// entries instead of dropped: a post-crash replay needs them to rebuild
// the node's window state, and any entry this retention lets go of is
// already expired from every subscription.
//
// Folding stops at the first retained object: the query entries after it
// stay in place, below the watermark, so replay presents every top-k
// insert after exactly the retained objects that preceded it — a
// subscription ranks only objects published after it, on replay as live —
// and base plus kept entries still rebuild the live set at the watermark.
func (l *Log) Checkpoint(watermark uint64, now time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if watermark <= l.watermark {
		return
	}
	var retain time.Duration
	for _, q := range l.live {
		if q.IsTopK() {
			retain = max(retain, q.Window)
		}
	}
	for _, e := range l.entries {
		if e.Op.Kind == model.OpInsert && e.Op.Query != nil && e.Op.Query.IsTopK() {
			retain = max(retain, e.Op.Query.Window)
		}
	}
	horizon := now.Add(-retain)
	next, folding := l.entries[:0], true
	for _, e := range l.entries {
		switch {
		case e.Seq > watermark:
			next = append(next, e)
		case e.Op.Kind == model.OpObject:
			if retain > 0 && e.Op.Obj != nil && e.T0.After(horizon) {
				e.Refill, folding = true, false
				next = append(next, e)
			}
		case !folding:
			next = append(next, e)
		case e.Op.Kind == model.OpInsert && e.Op.Query != nil:
			l.live[e.Op.Query.ID] = e.Op.Query
		case e.Op.Kind == model.OpDelete && e.Op.Query != nil:
			delete(l.live, e.Op.Query.ID)
		}
	}
	// Release the truncated suffix for the collector.
	clear(l.entries[len(next):])
	l.entries = next
	l.watermark = watermark
}

// Replay snapshots the recovery plan: the live base at the watermark
// (sorted by query id, so replays are deterministic), a copy of the
// logged tail above it, and the watermark itself.
func (l *Log) Replay() (base []*model.Query, tail []Entry, watermark uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	base = make([]*model.Query, 0, len(l.live))
	for _, q := range l.live {
		base = append(base, q)
	}
	sort.Slice(base, func(i, j int) bool { return base[i].ID < base[j].ID })
	tail = append([]Entry(nil), l.entries...)
	return base, tail, l.watermark
}

// Since returns a copy of the logged entries with sequence numbers
// strictly above seq, in append order. Recovery uses it to pick up
// operations appended while a replay was in flight.
func (l *Log) Since(seq uint64) []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(l.entries), func(i int) bool { return l.entries[i].Seq > seq })
	if i == len(l.entries) {
		return nil
	}
	return append([]Entry(nil), l.entries[i:]...)
}

// Seq returns the last assigned sequence number.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Watermark returns the checkpoint watermark.
func (l *Log) Watermark() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.watermark
}

// TailLen reports how many entries sit above the watermark — the
// checkpoint loop's trigger for a forced (op-count) checkpoint.
// Retained refill entries (at or below the watermark) are excluded:
// they are bounded by the window, and counting them would make the
// op-count trigger fire forever once the window filled up.
func (l *Log) TailLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(l.entries), func(i int) bool { return l.entries[i].Seq > l.watermark })
	return len(l.entries) - i
}

// LiveLen reports the checkpoint base's query count.
func (l *Log) LiveLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.live)
}
