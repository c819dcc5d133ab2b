// Remote task placement: the coordinator side of a multi-process
// deployment. A worker can run out-of-process (a psnode, internal/node);
// the hop to it is a wire.WorkerClient session, which the bolts below
// forward the slot's stream across, and whose up stream of matches this
// process deduplicates and delivers like an in-process worker's
// (System.emitMatches). In-process channels stay the default fast path —
// only the tasks listed in Config.RemoteWorkers leave the process.
package core

import (
	"errors"
	"fmt"
	"io"
	"time"

	"ps2stream/internal/index/grid"
	"ps2stream/internal/partition"
	"ps2stream/internal/wire"
)

// ErrRemoteTask is returned for RemoteWorkers keys outside the
// topology's task range.
var ErrRemoteTask = errors.New("core: remote task index out of range")

// ErrRemoteConfigMismatch is returned by New when a remote worker's
// dial-time handshake disagrees with the final Config: RemoteHello pins
// Workers/Granularity/BatchSize (and the sample bounds) at dial time,
// so mutating the Config between ConnectRemoteWorkers and New would
// silently disagree with the geometry the nodes indexed against.
var ErrRemoteConfigMismatch = errors.New("core: remote worker handshake disagrees with Config")

// ErrNilSample is returned when remote workers are dialled without a
// workload sample: the handshake distributes the sample's bounds and
// term statistics, without which gridt/GI2 cell ids cannot agree
// across processes.
var ErrNilSample = errors.New("core: remote connection requires a non-nil workload sample")

// RemoteHello assembles the coordinator handshake for task `task`: the
// grid geometry every process must share for gridt/GI2 cell ids to agree
// across the wire. Registration keys need no handshake: they ride each
// query as the first term of its conjunctions. A nil sample yields a
// Hello with zero bounds (useless to a peer, but never a panic);
// ConnectRemoteWorkers refuses it with ErrNilSample before dialling.
func (c *Config) RemoteHello(task int, sample *partition.Sample) wire.Hello {
	granularity := c.Granularity
	if granularity <= 0 {
		granularity = grid.DefaultGranularity
	}
	batch := c.BatchSize
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	workers := c.Workers
	if workers <= 0 {
		workers = defaultWorkers
	}
	if c.SpareWorkers > 0 {
		// Nodes size their shared grid topology by the handshake's
		// worker count; spare slots must be part of it from the start
		// so a runtime join agrees on cell ids.
		workers += c.SpareWorkers
	}
	h := wire.Hello{
		Role:        wire.RoleCoordinator,
		Task:        task,
		Workers:     workers,
		Granularity: granularity,
		BatchSize:   batch,
	}
	if c.Recovery.Enabled {
		hb := c.Recovery.HeartbeatInterval
		if hb <= 0 {
			hb = 500 * time.Millisecond
		}
		h.HeartbeatMillis = int(hb / time.Millisecond)
	}
	if sample != nil {
		h.Bounds = sample.Bounds
	}
	return h
}

// ConnectRemoteWorkers dials one worker node per address (with
// reconnect-with-backoff, so peers may still be starting) and installs
// the sessions as worker tasks 0..len(addrs)-1. Defaults are applied
// first (an unset Workers still means the usual 8), then Workers is
// raised if the addresses outnumber it; tasks beyond the remote ones
// run in-process. On error, only the sessions this call dialed are
// closed and removed: caller-installed entries survive, so a retry (or
// a New over the partially-connected Config) never sees a closed
// session left behind.
func (c *Config) ConnectRemoteWorkers(addrs []string, sample *partition.Sample, b wire.Backoff) error {
	if len(addrs) == 0 {
		return nil
	}
	if sample == nil {
		return fmt.Errorf("core: connecting workers: %w", ErrNilSample)
	}
	// Pin the worker default before sizing against it, so listing one
	// remote address does not silently shrink an unset Workers from the
	// default 8 down to 1. Only Workers is touched: the other defaults
	// stay New's business.
	if c.Workers <= 0 {
		c.Workers = defaultWorkers
	}
	if c.Workers < len(addrs) {
		c.Workers = len(addrs)
	}
	if c.RemoteWorkers == nil {
		c.RemoteWorkers = make(map[int]*wire.WorkerClient, len(addrs))
	}
	dialed := make([]int, 0, len(addrs))
	for i, addr := range addrs {
		cl, err := wire.DialWorker(addr, c.RemoteHello(i, sample), b)
		if err != nil {
			for _, task := range dialed {
				c.RemoteWorkers[task].Close()
				delete(c.RemoteWorkers, task)
			}
			return fmt.Errorf("core: connecting worker %d at %s: %w", i, addr, err)
		}
		c.RemoteWorkers[i] = cl
		dialed = append(dialed, i)
	}
	return nil
}

// closeRemoteTransports force-closes every remote hop (idempotent);
// used to unblock transport reads when the run is cancelled.
func (s *System) closeRemoteTransports() {
	for _, h := range s.hops {
		if h == nil {
			continue
		}
		h.mu.Lock()
		h.moveLocked(stateClosing, nil)
		tr := h.tr
		h.mu.Unlock()
		if tr != nil {
			tr.Close()
		}
	}
}

// remoteWorkerBolt stands in for an out-of-process worker task: it
// forwards each received op batch, marker and control request across the
// hop's current session (one frame each) and accounts the hand-off. The
// worker's matches, deltas and answers come back through
// remoteMatchSpout. With recovery enabled
// every op is appended to the hop's op log before the wire sees it, and a
// slot that is not up only logs — replay owns delivery until the slot is
// up again — unless it is lost for good.
type remoteWorkerBolt struct {
	s    *System
	task int
	hop  *workerHop
}

// process forwards one towork batch. SendOps encodes synchronously and
// the op log copies, so the batch is recycled here.
func (r *remoteWorkerBolt) process(batch *[]wire.OpEnv) {
	ops := *batch
	r.forward(ops)
	r.s.doneOps[r.task].Add(int64(len(ops)))
	// Tuple latency for a remote task is measured at wire hand-off; the
	// end-to-end figure remains the match latency at delivery.
	r.s.observeLatency(ops)
	r.s.opBatches.put(batch)
}

// forward puts one batch on the hop. Without an op log a send failure
// fails the run loudly. With one, the batch is logged first and the wire
// send is best-effort — a failure trips recovery, and the logged ops
// replay onto the next session. A slot whose recovery has failed drops
// the batch: no replay will read the log, and Drain reports the loss.
func (r *remoteWorkerBolt) forward(ops []wire.OpEnv) {
	h := r.hop
	h.mu.Lock()
	tr, gen := h.tr, h.gen
	if h.log == nil {
		h.mu.Unlock()
		if err := tr.SendOps(wire.OpBatch{Ops: ops}); err != nil {
			// Fail the slot before dying loudly: the task's deferred Close
			// runs on the panic, and Drain must see a crash, not a close.
			r.s.hopFailed(h, gen, err)
			panic(fmt.Sprintf("remote worker %d: %v", r.task, err))
		}
		return
	}
	// Log and send under the hop lock: it serialises with recovery's
	// install and catch-up, so an op is sent either by recovery or here,
	// never by both, and with a round's position read (ctrl), so no
	// position claims an op the wire has not seen.
	if h.isLocked(stateFailed, stateGone) {
		h.mu.Unlock()
		return
	}
	for i := range ops {
		h.log.Append(ops[i].Op, ops[i].T0)
	}
	if !h.isLocked(stateUp) {
		h.mu.Unlock()
		return // logged; replay (or teardown) owns delivery
	}
	err := tr.SendOps(wire.OpBatch{Ops: ops})
	h.mu.Unlock()
	if err != nil {
		r.s.hopFailed(h, gen, err)
	}
}

// mark hands a marker to the slot: a Drain frame behind its op batches,
// passed on by the reader when the ack comes back, or sent by recovery
// after the catch-up while the session is down. A slot with no session or
// reader left has no matches to come, so the marker passes here.
func (r *remoteWorkerBolt) mark(m *drainMark) {
	h := r.hop
	h.mu.Lock()
	if h.isLocked(stateSpare, stateGone) {
		h.mu.Unlock()
		m.pass()
		return
	}
	h.oweLocked(owedAnswer{mark: m})
	tr, gen, up := h.tr, h.gen, h.isLocked(stateUp)
	h.mu.Unlock()
	// If the session fails before this send, recovery sends m again.
	if up {
		if err := tr.SendDrain(); err != nil {
			r.s.hopFailed(h, gen, err)
		}
	}
}

// ctrl forwards a control request behind the op batches forwarded before
// it — a round from the slot's stream, or one handed through a hold —
// numbered so the spout can check the reply that completes it. A slot
// that is not up answers at once with an error.
func (r *remoteWorkerBolt) ctrl(c *ctrlRound) {
	h := r.hop
	h.mu.Lock()
	if !h.isLocked(stateUp) {
		h.mu.Unlock()
		c.answer(nil, fmt.Errorf("core: worker %d: %w", r.task, errSlotNotUp))
		return
	}
	tr, gen, req := h.tr, h.gen, c.req
	if h.log != nil {
		c.pos = h.log.Seq() // every entry logged so far is on this session's wire
	}
	if c.done != nil {
		req = h.owe(c, gen, false)
	}
	err := tr.SendControl(req) // under mu: no round is sent on a session that is down
	h.mu.Unlock()
	if err != nil {
		r.s.hopFailed(h, gen, err)
	}
}

// Close runs when the forwarder's task ends: once the dispatcher finishes,
// it half-closes the hop so the worker node flushes its remaining matches
// and ends the return stream. A slot that is not up is hard-closed
// instead, so its match reader unblocks and an in-flight recovery aborts
// at its next state check.
func (r *remoteWorkerBolt) Close() error {
	h := r.hop
	h.mu.Lock()
	tr, hard := h.tr, !h.isLocked(stateUp)
	h.moveLocked(stateClosing, nil)
	h.mu.Unlock()
	if tr == nil {
		return nil
	}
	if hard {
		return tr.Close()
	}
	return tr.CloseSend()
}

// remoteMatchSpout consumes a remote worker's up stream in order: matches
// are deduplicated and delivered, deltas go to the board, and each marker
// ack or control reply settles the oldest answer the hop owes — a marker
// is passed on, a round completes once its deltas are on the board; the
// pages ahead of a CellShare go to its round. One spout serves the hop
// across every transport session: when a session dies its buffered items
// are drained, and the spout waits for recovery to install the next
// session (or for a spare slot to be claimed by AddWorker).
type remoteMatchSpout struct {
	s    *System
	task int
	hop  *workerHop
}

// run reads the hop's match frames until the slot is gone. The run's end
// moves every slot to closing, cancelled or not.
func (r *remoteMatchSpout) run() {
	for {
		tr, gen, ok := r.waitTransport()
		if !ok {
			return
		}
		mb, err := tr.RecvMatches()
		if err != nil {
			if r.finishSession(gen, err) {
				return
			}
			continue // next session
		}
		switch page, isPage := mb.Reply.(wire.Page); {
		case isPage:
			if err := r.hop.addPage(page); err != nil {
				r.s.hopFailed(r.hop, gen, fmt.Errorf("remote worker %d: %w", r.task, err))
			}
		case mb.Drained || mb.Reply != nil:
			a, err := r.hop.popAnswer(mb.Reply)
			if err != nil {
				r.s.hopFailed(r.hop, gen, fmt.Errorf("remote worker %d: %w", r.task, err))
				continue
			}
			if a.mark != nil {
				a.mark.pass()
				continue
			}
			r.s.board.applyAck(r.task, mb.Reply)
			if cs, ok := mb.Reply.(wire.CellShare); ok && a.replay {
				// A replayed extraction: no caller applies its share's deltas.
				r.s.board.ApplyFrom(r.task, cs.Epoch, cs.Deltas)
			}
			a.round.answer(mb.Reply, nil)
		case len(mb.Deltas) > 0:
			r.s.board.ApplyFrom(r.task, mb.Epoch, mb.Deltas)
		default:
			// Sent per received frame: the wire already batches, and
			// holding matches back here would add latency the batch bound
			// cannot cap (this reader may then block in Recv
			// indefinitely).
			r.s.emitMatches(mb.Matches)
		}
	}
}

// waitTransport blocks until the hop has an undrained session to read,
// or the slot is done for good. It deliberately does NOT skip a down
// session: one that died before the spout ever read it must still be
// drained, so its already-delivered matches are delivered here and
// recovery (which waits for drainedGen) can proceed.
func (r *remoteMatchSpout) waitTransport() (*wire.WorkerClient, uint64, bool) {
	h := r.hop
	for {
		h.mu.Lock()
		if h.isLocked(stateGone) {
			h.mu.Unlock()
			return nil, 0, false
		}
		if h.tr != nil && h.gen > h.drainedGen {
			tr, gen := h.tr, h.gen
			h.mu.Unlock()
			return tr, gen, true
		}
		if h.isLocked(stateClosing, stateFailed) {
			r.exitLocked()
			return nil, 0, false
		}
		ch := h.notify
		h.mu.Unlock()
		<-ch
	}
}

// exitLocked ends the spout for good — the slot is gone — unlocks the
// hop, passes the markers no session will answer — every match of the
// slot has been delivered or sent on — and fails the rounds. Caller holds h.mu.
func (r *remoteMatchSpout) exitLocked() {
	h := r.hop
	h.moveLocked(stateGone, nil)
	h.owedMu.Lock()
	owed := h.owed
	h.owed = nil
	h.owedMu.Unlock()
	h.mu.Unlock()
	for _, a := range owed {
		if a.mark != nil {
			a.mark.pass()
		} else {
			a.round.answer(nil, fmt.Errorf("core: worker %d: %w", r.task, errSlotNotUp))
		}
	}
}

// finishSession ends a session whose Recv returned err: drainedGen
// advances (unblocking recovery). It returns true when the spout is
// done for good. EOF is clean only during a coordinator-initiated
// teardown (close, decommission, abort: the slot is closing) — the node
// never ends a session on its own, so an unexpected EOF is a crash like
// any read error: recoverable hops redial and replay, unrecoverable ones
// fail so Drain reports the loss instead of waiting on it forever. The
// rounds the session still owed fail; its markers stay owed, for
// recovery to send again.
func (r *remoteMatchSpout) finishSession(gen uint64, err error) bool {
	h := r.hop
	h.mu.Lock()
	if gen > h.drainedGen {
		h.drainedGen = gen
	}
	if h.isLocked(stateClosing) {
		r.exitLocked()
		return true
	}
	h.broadcastLocked()
	h.mu.Unlock()
	if err == io.EOF {
		err = fmt.Errorf("remote worker %d: session %d ended unexpectedly: %w", r.task, gen, err)
	}
	// Once the session is down, nothing more is sent on it.
	r.s.hopFailed(h, gen, err)
	h.failRounds(gen, fmt.Errorf("core: worker %d: session %d ended (%v): %w", r.task, gen, err, errSlotNotUp))
	return false
}
