package core

import (
	"errors"
	"fmt"
	"time"

	"ps2stream/internal/wire"
)

// ctrlRound is one control request on its way down a slot's stream
// (docs/ARCHITECTURE.md, "One slot protocol"). It enters the ingest like
// a Drain marker, addressed to one slot, so it covers every operation
// whose Submit returned before it; the dispatcher sends it behind the
// slot's open batch. A migration hands its requests to a held slot
// through the hold instead (see cut). An in-process slot's bolt serves a
// request with worker.Engine.Serve; a remote slot's bolt forwards the
// frame, and the slot's spout completes the round when the reply comes
// up the match stream.
type ctrlRound struct {
	slot int
	req  wire.Frame
	// done receives the one reply; nil for a request that is not
	// answered (ResetWindow).
	done chan roundReply
	// pos is the op-log sequence a remote slot's bolt had sent when it
	// forwarded the request: the position of a checkpoint's population.
	pos uint64
	// pages are what a remote slot sent ahead of the CellShare answering
	// an ExtractCells, as its spout read them (see share).
	pages []wire.Page
}

type roundReply struct {
	f   wire.Frame
	err error
}

// answer completes the round. done has room for the one reply, so it
// never blocks.
func (c *ctrlRound) answer(f wire.Frame, err error) {
	if c.done != nil {
		c.done <- roundReply{f, err}
	}
}

// errSlotNotUp is what a round on a remote slot returns when no session
// or no run can carry it: an unclaimed spare, a session that is down,
// replaying or closing, a session that ended before it answered, or a
// run that has not started or has stopped.
var errSlotNotUp = errors.New("worker slot has no session up")

// newRound returns a round carrying req to slot w; reply asks for the
// slot's answer.
func newRound(w int, req wire.Frame, reply bool) *ctrlRound {
	c := &ctrlRound{slot: w, req: req}
	if reply {
		c.done = make(chan roundReply, 1)
	}
	return c
}

// send puts c into its slot's stream and returns it. Before Start and
// once the run has stopped there is no stream, and the round is served
// at once (serveDirect); a round that finds the ingest closed waits for
// the stream to end first.
func (s *System) send(c *ctrlRound) *ctrlRound {
	if s.started.Load() {
		if s.ingest.mark(queuedMark{c: c}) {
			return c
		}
		<-s.stopped
	}
	s.serveDirect(c)
	return c
}

// await returns c's reply. A round fails after
// wire.DefaultControlTimeout; a round the stopped run left unserved is
// served directly.
func (s *System) await(c *ctrlRound) (wire.Frame, error) {
	timeout := time.NewTimer(wire.DefaultControlTimeout)
	defer timeout.Stop()
	select {
	case r := <-c.done:
		return r.f, r.err
	case <-s.stopped:
	case <-timeout.C:
		return nil, fmt.Errorf("core: worker %d: control round timed out after %v", c.slot, wire.DefaultControlTimeout)
	}
	select {
	case r := <-c.done: // served before the run stopped
		return r.f, r.err
	default:
	}
	s.serveDirect(c)
	r := <-c.done
	return r.f, r.err
}

// serveDirect serves a round that no stream carries: an in-process slot
// on the caller's goroutine, while a remote slot fails.
func (s *System) serveDirect(c *ctrlRound) {
	if b := s.bolts[c.slot]; b != nil {
		b.serve(c)
		return
	}
	c.answer(nil, fmt.Errorf("core: worker %d: %w", c.slot, errSlotNotUp))
}

// roundAs runs one control round in slot w's stream and returns its reply
// as a T.
func roundAs[T wire.Frame](s *System, w int, req wire.Frame) (T, error) {
	return replyAs[T](s, s.send(newRound(w, req, true)))
}

// replyAs returns the reply of the sent round c as a T.
func replyAs[T wire.Frame](s *System, c *ctrlRound) (T, error) {
	f, err := s.await(c)
	t, ok := f.(T)
	if err == nil && !ok {
		err = fmt.Errorf("core: worker %d answered a %T with a %T", c.slot, c.req, f)
	}
	return t, err
}

// share returns the CellShare answering the sent ExtractCells round c,
// with the cells of the pages a remote slot sent ahead of it.
func (s *System) share(c *ctrlRound) (wire.CellShare, error) {
	cs, err := replyAs[wire.CellShare](s, c)
	for i := 0; err == nil && i < len(c.pages); i++ { // pages are read once answered
		var ic wire.InstallCells
		ic, err = c.pages[i].Decode()
		cs.Cells = append(cs.Cells, ic.Cells...)
	}
	return cs, err
}

// installCells runs one InstallCells round through hold h and returns the
// request's length in the wire.AppendInstallCells layout, measured
// before a remote slot's bolt numbers it (Seq 0): the migration's
// transfer bytes, under one rule for every placement and whatever the
// session's round count. The slot's consumer applies the ack's deltas
// before the round returns, and the operations queued behind the hold
// are matched against the shares.
func (s *System) installCells(h *hold, req wire.InstallCells) (int64, error) {
	buf := wire.GetBuf()
	buf.B = wire.AppendInstallCells(buf.B, req)
	size := int64(len(buf.B))
	wire.PutBuf(buf)
	_, err := replyAs[wire.InstallAck](s, s.through(h, newRound(h.slot, req, true)))
	return size, err
}

// A cut is a migration's switch point in the stream (docs/ARCHITECTURE.md,
// "A migration is a cut"): an entry in the ingest that the dispatcher
// executes between two routed operations. It puts a hold in each of the
// cut's slots' streams, behind every operation routed to the slot so far,
// runs change and routes on, so every later operation routes under the
// new table and queues behind the holds.
type cut struct {
	holds  []*hold
	change func(holds []*hold)
	done   chan struct{} // closed once change has run
}

// A hold stops one slot's stream consumer at a cut: the consumer serves
// only the requests handed to it on reqs, until release closes or the run
// is cancelled. reqs is nil when no stream carried the cut.
type hold struct {
	slot    int
	reqs    chan *ctrlRound
	release chan struct{}
}

// serve runs the held consumer, handing each request to ctrl.
func (h *hold) serve(done <-chan struct{}, ctrl func(*ctrlRound)) {
	for {
		select {
		case c := <-h.reqs:
			ctrl(c)
		case <-h.release:
			return
		case <-done:
			return
		}
	}
}

// cut runs change at one point of the stream — after every operation
// whose Submit returned before the call, before any later one — and
// returns a hold on each of slots, in order, for the caller to release.
// change runs on the dispatcher and gets the holds, so it may serve
// requests through them before the dispatcher routes on. Before Start and
// once the run has stopped no stream carries the cut: change runs on the
// caller's goroutine, and the holds serve their requests directly.
func (s *System) cut(slots []int, change func(holds []*hold)) []*hold {
	c := &cut{change: change, done: make(chan struct{})}
	for _, w := range slots {
		c.holds = append(c.holds, &hold{slot: w, reqs: make(chan *ctrlRound), release: make(chan struct{})})
	}
	if s.started.Load() {
		if !s.ingest.mark(queuedMark{cut: c}) {
			<-s.stopped
		}
		select {
		case <-c.done:
			return c.holds
		case <-s.stopped:
		}
		if cancelled(c.done) { // the dispatcher ran it before it stopped
			return c.holds
		}
	}
	for _, h := range c.holds {
		h.reqs = nil
	}
	change(c.holds)
	return c.holds
}

// release lets each held consumer go on with its stream.
func release(holds []*hold) {
	for _, h := range holds {
		close(h.release)
	}
}

// through hands c to the consumer h holds, or serves it directly when no
// stream carried the hold, and returns it. Once the run is cancelled the
// held consumer is gone, and c fails: not for want of a session, so no
// caller waits for the slot to come up again (untilUp).
func (s *System) through(h *hold, c *ctrlRound) *ctrlRound {
	if h.reqs == nil {
		s.serveDirect(c)
		return c
	}
	select {
	case h.reqs <- c:
	case <-s.runCtx.Done():
		c.answer(nil, fmt.Errorf("core: worker %d: run cancelled: %w", c.slot, s.runCtx.Err()))
	}
	return c
}

// numbered returns a request that is answered under seq, the number a
// remote slot's spout checks its reply against.
func numbered(req wire.Frame, seq uint64) wire.Frame {
	switch r := req.(type) {
	case wire.StatsReq:
		return wire.StatsReq{Seq: seq}
	case wire.CellStatsReq:
		return wire.CellStatsReq{Seq: seq}
	case wire.ExtractCells:
		r.Seq = seq
		return r
	case wire.InstallCells:
		r.Seq = seq
		return r
	case wire.Page:
		r.Seq = seq
		return r
	case wire.AdvanceWindow:
		r.Seq = seq
		return r
	}
	return req
}

// replySeq returns the Seq a reply answers.
func replySeq(reply wire.Frame) uint64 {
	switch r := reply.(type) {
	case wire.StatsReply:
		return r.Seq
	case wire.CellStatsReply:
		return r.Seq
	case wire.CellShare:
		return r.Seq
	case wire.InstallAck:
		return r.Seq
	case wire.AdvanceAck:
		return r.Seq
	}
	return 0
}
