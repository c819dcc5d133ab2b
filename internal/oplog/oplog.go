// Package oplog is the dispatcher-side record of what a remote worker
// slot was sent, which makes the slot crash-recoverable. The log holds a
// base and a tail:
//
//   - The base is the slot's own population at a position of its stream:
//     the answer to one whole-query ExtractCells round with bands (every
//     live query of the slot and each top-k subscription's k-skyband),
//     kept as the node sent it: a run of whole-query InstallCells pages,
//     encoded (wire.Page). A checkpoint stores a new base and drops every
//     entry at or below its position.
//   - The tail is everything sent after that position, in stream order:
//     each routed operation, and each control request a migration's cut
//     served the slot (a removing ExtractCells, each InstallCells page).
//     The coordinator appends an operation before it puts it on the
//     wire, and a cut's requests while the slot is held at the cut, so
//     the log's order is the stream's.
//
// Recovery of a crashed slot installs the base, one round per page with
// the bytes unchanged, then sends the tail in order: the node is then in
// the state the live one reached, top-k bands included, without the
// coordinator rebuilding any of it. Replay
// is exact because the base sits at the exact position its round had in
// the stream: nothing before it is sent again, so no object is offered
// twice and no subscription ranks an object published before it.
//
// The log is bounded in steady state by the checkpoint cadence; while a
// slot is down, or while its checkpoints fail, the tail grows until the
// slot is recovered, or failed for good (the price of exactness without a
// persistent queue).
package oplog

import (
	"sort"
	"sync"
	"time"

	"ps2stream/internal/model"
	"ps2stream/internal/wire"
)

// Entry is one logged item with its per-slot sequence number: an
// operation, or a control request a cut served the slot.
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
	// Frame, when set, is the logged control request (an ExtractCells or
	// an InstallCells), and Op and T0 are unset.
	Frame wire.Frame
}

// Log is the op log for one worker slot. Safe for concurrent use: the
// worker bolt and a migration's cut append, the checkpoint loop
// truncates, and the recovery goroutine snapshots — all on their own
// goroutines.
type Log struct {
	mu sync.Mutex
	// base is the slot's population at pos, as encoded pages.
	base []wire.Page
	// entries is the tail above pos, in append order.
	entries []Entry
	// seq is the last assigned sequence number.
	seq uint64
	// pos is the sequence the base covers.
	pos uint64
	// at is when the base was stored (the log's creation, before the
	// first checkpoint).
	at time.Time
}

// New returns an empty log.
func New() *Log {
	return &Log{at: time.Now()}
}

// Append logs one operation with its submit stamp and returns its
// sequence number.
func (l *Log) Append(op model.Op, t0 time.Time) uint64 {
	return l.add(Entry{Op: op, T0: t0})
}

// AppendFrame logs one control request a cut served the slot and returns
// its sequence number.
func (l *Log) AppendFrame(f wire.Frame) uint64 {
	return l.add(Entry{Frame: f})
}

func (l *Log) add(e Entry) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e.Seq = l.seq
	l.entries = append(l.entries, e)
	return l.seq
}

// Checkpoint stores base, the pages of the slot's population answered at
// log position pos, and drops every entry at or below pos. pos must be the sequence of
// the last entry sent ahead of the population round in the slot's
// stream: a smaller one would replay entries the base already holds, a
// larger one would lose entries it does not. A position at or below the
// current one changes nothing.
func (l *Log) Checkpoint(pos uint64, base []wire.Page) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if pos <= l.pos {
		return
	}
	i := sort.Search(len(l.entries), func(i int) bool { return l.entries[i].Seq > pos })
	// A fresh slice, so the dropped entries and the capacity the tail grew
	// to before the checkpoint go to the collector.
	l.entries = append([]Entry(nil), l.entries[i:]...)
	l.base, l.pos, l.at = base, pos, time.Now()
}

// Replay snapshots the recovery plan: the base's pages, a copy of the
// tail above it, and the base's position.
func (l *Log) Replay() (base []wire.Page, tail []Entry, pos uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base, append([]Entry(nil), l.entries...), l.pos
}

// Since returns a copy of the logged entries with sequence numbers
// strictly above seq, in append order. Recovery uses it to pick up
// entries appended while a replay was in flight.
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

// TailLen reports how many entries sit above the base — the checkpoint
// loop's trigger for a forced (op-count) checkpoint.
func (l *Log) TailLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// CheckpointAge reports how long ago the base was stored (since the log
// was created, before the first checkpoint).
func (l *Log) CheckpointAge() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return time.Since(l.at)
}
