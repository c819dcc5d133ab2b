// Remote task placement: the coordinator side of a multi-process
// deployment. A worker or merger task can run out-of-process (a psnode,
// internal/node); the hop to a worker is a wire.WorkerClient session, the
// hop to a merger a wire.MergerClient connection, and the bolts below
// forward the task's traffic across them. In-process channels
// stay the default fast path — only the tasks listed in
// Config.RemoteWorkers/RemoteMergers leave the process.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"ps2stream/internal/index/grid"
	"ps2stream/internal/partition"
	"ps2stream/internal/window"
	"ps2stream/internal/wire"
)

// ErrRemoteTask is returned for RemoteWorkers/RemoteMergers keys
// outside the topology's task range.
var ErrRemoteTask = errors.New("core: remote task index out of range")

// ErrRemoteConfigMismatch is returned by New when a remote worker's
// dial-time handshake disagrees with the final Config: RemoteHello pins
// Workers/Granularity/BatchSize (and the sample bounds) at dial time,
// so mutating the Config between ConnectRemoteWorkers and New would
// silently disagree with the geometry the nodes indexed against.
var ErrRemoteConfigMismatch = errors.New("core: remote worker handshake disagrees with Config")

// ErrNilSample is returned when remote peers are dialled without a
// workload sample: the handshake distributes the sample's bounds and
// term statistics, without which gridt/GI2 cell ids cannot agree
// across processes.
var ErrNilSample = errors.New("core: remote connection requires a non-nil workload sample")

// RemoteHello assembles the coordinator handshake for task `task`: the
// grid geometry and sampled term statistics every process must share
// for gridt/GI2 cell ids — and the registration-keyword choice — to
// agree across the wire. A nil sample yields a Hello with zero bounds
// and no term statistics (useless to a peer, but never a panic);
// ConnectRemoteWorkers/ConnectRemoteMergers refuse it with ErrNilSample
// before dialling.
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
	// One data connection per dispatcher: batches round-robin whole
	// across the streams (one frame per transfer batch), so
	// dispatcher-many streams keep every dispatcher's writer busy without
	// over-subscribing small deployments.
	streams := c.Dispatchers
	if streams <= 0 {
		streams = 4
	}
	streams = min(streams, wire.MaxStreams)
	h := wire.Hello{
		Role:        wire.RoleCoordinator,
		Task:        task,
		Workers:     workers,
		Granularity: granularity,
		BatchSize:   batch,
		Streams:     streams,
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
		if sample.Stats != nil {
			h.Terms = sample.Stats.Vector()
		}
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
	// stay New's business (an unset Mergers, in particular, must remain
	// unset so ConnectRemoteMergers can mean "all mergers remote").
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

// RemoteWorkerSummary describes the wire-connected remote workers for
// startup logs: how many hops, and how many data streams each runs.
func (c *Config) RemoteWorkerSummary() string {
	if len(c.RemoteWorkers) == 0 {
		return "no wire-connected workers"
	}
	var streams int
	for _, cl := range c.RemoteWorkers {
		streams = cl.Streams()
	}
	return fmt.Sprintf("%d hops, %d data streams each", len(c.RemoteWorkers), streams)
}

// ConnectRemoteMergers dials one merger node per address and installs
// the connections as merger tasks 0..len(addrs)-1. An unset Mergers
// becomes len(addrs) — every merger task remote, so the whole match
// stream is delivered on the merger nodes; set Mergers explicitly for
// mixed placement (the surplus tasks' hash shares then deliver locally
// through OnMatch, while remote shares do not).
func (c *Config) ConnectRemoteMergers(addrs []string, sample *partition.Sample, b wire.Backoff) error {
	if len(addrs) == 0 {
		return nil
	}
	if sample == nil {
		return fmt.Errorf("core: connecting mergers: %w", ErrNilSample)
	}
	if c.Mergers < len(addrs) {
		c.Mergers = len(addrs)
	}
	if c.RemoteMergers == nil {
		c.RemoteMergers = make(map[int]*wire.MergerClient, len(addrs))
	}
	dialed := make([]int, 0, len(addrs))
	for i, addr := range addrs {
		cl, err := wire.DialMerger(addr, c.RemoteHello(i, sample), b)
		if err != nil {
			// Close and remove only this call's dials (see
			// ConnectRemoteWorkers).
			for _, task := range dialed {
				c.RemoteMergers[task].Close()
				delete(c.RemoteMergers, task)
			}
			return fmt.Errorf("core: connecting merger %d at %s: %w", i, addr, err)
		}
		c.RemoteMergers[i] = cl
		dialed = append(dialed, i)
	}
	return nil
}

// remoteWorkerTasks returns the out-of-process worker task ids —
// including unclaimed spare slots — in ascending order (stable drain
// iteration).
func (s *System) remoteWorkerTasks() []int {
	tasks := make([]int, 0, len(s.hops))
	for t, h := range s.hops {
		if h != nil {
			tasks = append(tasks, t)
		}
	}
	return tasks
}

// installDeltaHandler points a session's spontaneous top-k delta stream
// at the reconciliation board, under the slot's ledger.
func (s *System) installDeltaHandler(task int, cl *wire.WorkerClient) {
	cl.SetDeltaHandler(func(epoch uint64, ds []window.Delta) {
		s.board.ApplyFrom(task, epoch, ds)
	})
}

// closeRemoteTransports force-closes every remote hop (idempotent);
// used to unblock transport reads when the run is cancelled.
func (s *System) closeRemoteTransports() {
	for _, h := range s.hops {
		if h == nil {
			continue
		}
		h.mu.Lock()
		h.closing = true
		tr := h.tr
		h.broadcastLocked()
		h.mu.Unlock()
		if tr != nil {
			tr.Close()
		}
	}
	for _, cl := range s.cfg.RemoteMergers {
		cl.Close()
	}
}

// remoteWorkerBolt stands in for an out-of-process worker task: it
// forwards each received op batch across the hop's current session (one
// frame per batch) and accounts the hand-off. The worker's matches
// re-enter the topology through remoteMatchSpout. With recovery enabled
// every op is appended to the hop's op log before the wire sees it, and a
// down/replaying session only logs — replay owns delivery until the hop
// re-opens.
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
	// end-to-end figure remains the mergers' match latency.
	r.s.observeLatency(ops)
	r.s.opBatches.put(batch)
}

// forward puts one batch on the hop. Without an op log a send failure
// fails the run loudly. With one, the batch is logged first and the wire
// send is best-effort — a failure trips recovery, and the logged ops
// replay onto the next session.
func (r *remoteWorkerBolt) forward(ops []wire.OpEnv) {
	h := r.hop
	if h.log == nil {
		h.mu.Lock()
		tr, gen := h.tr, h.gen
		h.mu.Unlock()
		if tr == nil {
			panic(fmt.Sprintf("remote worker %d: no session", r.task))
		}
		if err := tr.SendOps(wire.OpBatch{Ops: ops}); err != nil {
			// Mark the slot failed before dying loudly: the task's
			// deferred Close runs on the panic and would dress the hop up
			// as a graceful teardown — the Drain barrier must see a
			// crash, not a close.
			r.s.hopFailed(h, gen, err)
			panic(fmt.Sprintf("remote worker %d: %v", r.task, err))
		}
		return
	}
	var lastSeq uint64
	for i := range ops {
		lastSeq = h.log.Append(ops[i].Op, ops[i].T0)
	}
	h.mu.Lock()
	if h.tr == nil || h.down || h.replaying || h.closing {
		h.mu.Unlock()
		return // logged; replay (or teardown) owns delivery
	}
	if lastSeq <= h.sentSeq {
		h.mu.Unlock()
		return // recovery's catch-up raced us and already shipped these
	}
	tr, gen := h.tr, h.gen
	// Send under the hop lock: it serialises with recovery's install
	// and catch-up, and with the checkpoint watermark read, so sentSeq
	// never claims an op the wire has not seen.
	err := tr.SendOps(wire.OpBatch{Ops: ops})
	if err == nil {
		h.sentSeq = lastSeq
	}
	h.mu.Unlock()
	if err != nil {
		r.s.hopFailed(h, gen, err)
	}
}

// Close runs when the forwarder's task ends: once the dispatchers finish,
// it half-closes the hop so the worker node flushes its remaining matches
// and ends the return stream. A hop caught mid-outage (down or replaying)
// is hard-closed instead, so the slot's match reader unblocks and an
// in-flight recovery aborts at its next closing check.
func (r *remoteWorkerBolt) Close() error {
	h := r.hop
	h.mu.Lock()
	h.closing = true
	tr := h.tr
	hard := h.down || h.replaying
	h.broadcastLocked()
	h.mu.Unlock()
	if tr == nil {
		return nil
	}
	if hard {
		return tr.Close()
	}
	return tr.CloseSend()
}

// remoteMatchSpout re-injects a remote worker's match stream into the
// topology, where it joins the local workers' matches on the way to the
// mergers. One spout serves the hop across every transport session:
// when a session dies its buffered matches are drained and retired,
// and the spout waits for recovery to install the next session (or for
// a spare slot to be claimed by AddWorker).
type remoteMatchSpout struct {
	s    *System
	task int
	hop  *workerHop
	ctx  context.Context // the run context, for telling failure from teardown
	// split holds the matches batches a received frame is split into.
	split fanout[wire.MatchEnv]
}

// run reads the hop's match frames until the slot is done for good or
// the run is cancelled.
func (r *remoteMatchSpout) run() {
	for r.ctx.Err() == nil {
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
		h := r.hop
		h.mu.Lock()
		h.sessionRecv += int64(len(mb.Matches))
		h.mu.Unlock()
		// Sent per received frame: the wire already batches, and holding
		// matches back here would add latency the batch bound cannot cap
		// (this reader may then block in Recv indefinitely).
		emitMatches(&r.split, mb.Matches)
	}
}

// waitTransport blocks until the hop has an undrained session to read,
// or the slot is done for good. It deliberately does NOT skip a down
// session: one that died before the spout ever read it must still be
// drained, so its already-delivered matches are retired and recovery
// (which waits for drainedGen) can proceed.
func (r *remoteMatchSpout) waitTransport() (*wire.WorkerClient, uint64, bool) {
	h := r.hop
	for {
		h.mu.Lock()
		if h.exited {
			h.mu.Unlock()
			return nil, 0, false
		}
		if h.tr != nil && h.gen > h.drainedGen {
			tr, gen := h.tr, h.gen
			h.mu.Unlock()
			return tr, gen, true
		}
		if h.failed || h.closing || h.decommissioned {
			h.exited = true
			h.active = false
			h.broadcastLocked()
			h.mu.Unlock()
			return nil, 0, false
		}
		ch := h.notify
		h.mu.Unlock()
		select {
		case <-ch:
		case <-r.ctx.Done():
			return nil, 0, false
		}
	}
}

// finishSession retires a session whose Recv returned err: its
// received matches fold into the hop's retired total and drainedGen
// advances (unblocking recovery). It returns true when the spout is
// done for good. EOF is clean only during a coordinator-initiated
// teardown (close, decommission, abort) — the node never ends a
// session on its own, so an unexpected EOF is a crash like any read
// error: recoverable hops redial and replay, unrecoverable ones are
// marked failed so the Drain barrier reports the loss instead of
// waiting on it forever.
func (r *remoteMatchSpout) finishSession(gen uint64, err error) bool {
	h := r.hop
	h.mu.Lock()
	h.retired += h.sessionRecv
	h.sessionRecv = 0
	if gen > h.drainedGen {
		h.drainedGen = gen
	}
	if !h.failed && (h.closing || h.decommissioned || r.ctx.Err() != nil) {
		h.exited = true
		h.active = false
		h.broadcastLocked()
		h.mu.Unlock()
		return true
	}
	h.broadcastLocked()
	h.mu.Unlock()
	if err == io.EOF {
		err = fmt.Errorf("remote worker %d: session %d ended unexpectedly: %w", r.task, gen, err)
	}
	r.s.hopFailed(h, gen, err)
	return false
}

// remoteMergerBolt stands in for an out-of-process merger task: it
// forwards its hash share of the match stream across the wire.
// Deduplication, delivery and the delivered counters happen on the
// remote node (see Drain and RemoteDelivered).
type remoteMergerBolt struct {
	s    *System
	task int
	cl   *wire.MergerClient
}

// process forwards one matches batch. SendMatches encodes before it
// returns, so the batch is recycled here.
func (r *remoteMergerBolt) process(batch *[]wire.MatchEnv) {
	if err := r.cl.SendMatches(wire.MatchBatch{Matches: *batch}); err != nil {
		panic(fmt.Sprintf("remote merger %d: %v", r.task, err))
	}
	r.s.mergerIn.Add(int64(len(*batch)))
	r.s.matchBatches.put(batch)
}

// RemoteDelivered sums the delivered/duplicate counters of every remote
// merger (one control round trip each). Zeroes with no remote mergers.
func (s *System) RemoteDelivered() (delivered, duplicates int64, err error) {
	for task, cl := range s.cfg.RemoteMergers {
		d, dup, cerr := cl.Counts()
		if cerr != nil {
			return delivered, duplicates, fmt.Errorf("core: remote merger %d counts: %w", task, cerr)
		}
		delivered += d
		duplicates += dup
	}
	return delivered, duplicates, nil
}

// expectedFromHop computes one hop's contribution to the Drain
// barrier's expected match total, retrying across session changes:
// matches received from already-dead sessions (retired — anything lost
// in flight at the crash was neither counted nor deliverable; the op
// log re-produces it in a later session) plus the live session's
// drain-acked emitted count, which FIFO guarantees the spout will
// receive. It waits out a hop that is mid-outage and fails only on a
// permanently unrecoverable slot.
func (s *System) expectedFromHop(h *workerHop) (gen uint64, contribution int64, err error) {
	for {
		h.mu.Lock()
		if h.failed {
			h.mu.Unlock()
			return 0, 0, fmt.Errorf("core: worker %d: %w", h.task, ErrWorkerUnrecoverable)
		}
		if h.exited {
			g, n := h.gen, h.retired
			h.mu.Unlock()
			return g, n, nil
		}
		if h.tr == nil && !h.active {
			h.mu.Unlock()
			return 0, 0, nil // unclaimed spare slot
		}
		if h.down || h.replaying || h.closing {
			ch := h.notify
			h.mu.Unlock()
			select {
			case <-ch:
			case <-time.After(5 * time.Millisecond):
			}
			continue
		}
		tr, g := h.tr, h.gen
		h.mu.Unlock()
		ack, derr := tr.Drain()
		if derr != nil {
			if h.log != nil && h.addr != "" {
				s.hopFailed(h, g, derr)
				continue // recovery owns the slot now; recount next session
			}
			return 0, 0, fmt.Errorf("core: draining remote worker %d: %w", h.task, derr)
		}
		h.mu.Lock()
		if h.gen != g || h.down {
			// The session died after acking: part of its emitted count
			// may have been lost in flight. Recount against the next
			// session instead of trusting the stale ack.
			h.mu.Unlock()
			continue
		}
		n := h.retired + ack.Emitted
		h.mu.Unlock()
		return g, n, nil
	}
}

// Drain blocks until the first `submitted` operations are fully applied
// end to end: routed by the dispatchers, drained through every worker —
// local queues empty, remote workers wire-acknowledged — and every
// match they produced delivered by the mergers (local and remote). It
// is the exact barrier behind the public Flush; on a quiesced system
// the error is nil unless a remote hop failed unrecoverably. When a
// worker session dies or recovers mid-wait, the expected total is
// recomputed against the new session, so the barrier stays exact
// across crashes.
func (s *System) Drain(submitted int64) error {
	if err := s.quiesceHops(submitted); err != nil {
		return err
	}
recompute:
	for {
		gens := make(map[int]uint64)
		var remoteEmitted int64
		for _, task := range s.remoteWorkerTasks() {
			g, n, err := s.expectedFromHop(s.hops[task])
			if err != nil {
				return err
			}
			gens[task] = g
			remoteEmitted += n
		}
		// After the barriers above, the emitted count for those
		// operations is final; wait for the mergers to account every one
		// of them. The in-flight tail is bounded (already-emitted batches
		// en route), so this converges without a grace sleep.
		expected := s.matchesEmitted.Value() + remoteEmitted
		for {
			delivered := s.matches.Value() + s.duplicates.Value()
			if len(s.cfg.RemoteMergers) > 0 {
				d, dup, err := s.RemoteDelivered()
				if err != nil {
					return err
				}
				delivered += d + dup
			}
			if delivered >= expected {
				return nil
			}
			if s.closed.Load() {
				return errors.New("core: system closed while draining")
			}
			if s.runDone.Load() {
				return errRunStopped
			}
			for task, g := range gens {
				h := s.hops[task]
				h.mu.Lock()
				changed := h.gen != g || h.down
				h.mu.Unlock()
				if changed {
					continue recompute
				}
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
}

// errRunStopped is what a barrier returns when the run stopped under it
// without a Close: a task panicked and cancelled it (see System.run).
var errRunStopped = errors.New("core: run stopped while draining (task panic?)")

// quiesceHops is Quiesce with failure detection: a permanently failed
// hop never drains its queue, and a run stopped by a task panic never
// advances its counters — waiting on either would hang the barrier
// forever, so it fails with the cause instead.
func (s *System) quiesceHops(submitted int64) error {
	stable := 0
	for stable < 2 {
		if err := s.failedHopErr(); err != nil {
			return err
		}
		if s.runDone.Load() && !s.closed.Load() {
			return errRunStopped
		}
		if s.Processed() < submitted {
			if s.runDone.Load() {
				// Closed with a Submit that lost the race to it (counted
				// by the caller, never enqueued): nothing routes it now.
				return errors.New("core: system closed while draining")
			}
			stable = 0
			time.Sleep(2 * time.Millisecond)
			continue
		}
		ok := true
		for i := range s.enqueued {
			if s.doneOps[i].Load() != s.enqueued[i].Load() {
				ok = false
				break
			}
		}
		if !ok {
			stable = 0
			time.Sleep(2 * time.Millisecond)
			continue
		}
		stable++
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// failedHopErr reports the first permanently unrecoverable hop, if any.
func (s *System) failedHopErr() error {
	for _, h := range s.hops {
		if h == nil {
			continue
		}
		h.mu.Lock()
		failed := h.failed
		h.mu.Unlock()
		if failed {
			return fmt.Errorf("core: worker %d: %w", h.task, ErrWorkerUnrecoverable)
		}
	}
	return nil
}
