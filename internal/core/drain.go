package core

import (
	"errors"
	"sync/atomic"
)

// drainMark is a barrier that travels the topology in order with the
// operations and matches (docs/ARCHITECTURE.md, "One barrier"): the
// dispatcher sends it to every slot, every producer of matches to every
// merger, and done closes once every merger has it from every producer.
type drainMark struct {
	// copies[i] counts the producers merger i still waits for; only merger
	// i's task touches it.
	copies  []int
	mergers atomic.Int32 // mergers that have not passed it yet
	done    chan struct{}
}

// newMark makes a marker with one copy per worker slot, spares included,
// for every merger.
func (s *System) newMark() *drainMark {
	m := &drainMark{copies: make([]int, len(s.toMerge)), done: make(chan struct{})}
	for i := range m.copies {
		m.copies[i] = s.totalSlots()
	}
	m.mergers.Store(int32(len(s.toMerge)))
	return m
}

// arrive takes one producer's copy at merger i and reports whether it was
// the last one that merger waited for.
func (m *drainMark) arrive(i int) bool {
	m.copies[i]--
	return m.copies[i] == 0
}

// pass records that a merger has delivered everything before the marker.
func (m *drainMark) pass() {
	if m.mergers.Add(-1) == 0 {
		close(m.done)
	}
}

func (m *drainMark) passed() bool { return cancelled(m.done) }

// Drain blocks until every operation whose Submit returned before the call
// is applied end to end: applied by every worker it was routed to, its
// top-k deltas on the board, and its matches delivered, OnMatch callbacks
// returned. It does not wait for later operations, so it returns while
// other goroutines keep publishing. It fails fast when the system is
// closed, its run stopped, or a remote worker slot is unrecoverable
// (ErrWorkerUnrecoverable: matches routed to it may be lost).
func (s *System) Drain() error {
	if !s.started.Load() {
		return errors.New("core: not started")
	}
	m := s.newMark()
	if s.ingest.mark(queuedMark{m: m}) {
		select {
		case <-m.done:
		case <-s.stopped:
		case <-s.lost.done:
		}
	}
	switch {
	case cancelled(s.lost.done):
		return s.lost.err
	case m.passed():
		return nil
	case s.closed.Load():
		return errors.New("core: system closed while draining")
	}
	return errRunStopped
}

// errRunStopped is what Drain returns when the run stopped under it
// without a Close: a task panicked and cancelled it (see System.run).
var errRunStopped = errors.New("core: run stopped while draining (task panic?)")
