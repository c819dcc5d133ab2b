package core

import (
	"errors"
	"sync/atomic"
)

// drainMark is a barrier that travels the topology in order with the
// operations (docs/ARCHITECTURE.md, "One barrier"): the dispatcher sends
// it to every slot, and done closes once every slot's producer of matches
// has passed it, with every match before it delivered.
type drainMark struct {
	producers atomic.Int32 // slots that have not passed it yet
	done      chan struct{}
}

// newMark makes a marker that waits for every worker slot, spares
// included.
func (s *System) newMark() *drainMark {
	m := &drainMark{done: make(chan struct{})}
	m.producers.Store(int32(s.totalSlots()))
	return m
}

// pass records that one slot's producer has delivered every match
// before the marker.
func (m *drainMark) pass() {
	if m.producers.Add(-1) == 0 {
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
