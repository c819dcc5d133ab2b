// Elastic membership and crash recovery: worker slots can join at
// runtime (AddWorker dials a fresh psnode and rebalances cells onto
// it), leave gracefully (DecommissionWorker drains every cell off the
// node before half-closing the hop), and survive crashes — a dead
// connection trips a per-slot op log replay onto a redialled session
// while the coordinator routes around the outage.
//
// The unit of truth is the workerHop: one per out-of-process worker
// slot, holding the live session client, the session generation (bumped on
// every recovery; also the Hello fencing epoch, so a stale session
// cannot reclaim the slot), and the dispatcher-side op log that makes
// replay possible. Sessions hand over exactly: a failed session's
// spout drains whatever match batches the wire already delivered,
// recovery waits for that drain, installs the new transport *before*
// replaying (so replay-produced matches flow instead of dead-locking
// wire backpressure), and re-sends the Drain markers the dead session
// never answered after the catch-up; the control rounds it never
// answered fail.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"ps2stream/internal/migrate"
	"ps2stream/internal/oplog"
	"ps2stream/internal/wire"
)

// RecoveryConfig tunes crash recovery of remote worker slots. The zero
// value disables it: a broken worker connection then fails the run
// loudly, exactly as before elasticity existed.
type RecoveryConfig struct {
	// Enabled switches on per-worker op logs, heartbeats and automatic
	// redial-and-replay recovery for remote worker slots.
	Enabled bool
	// CheckpointInterval is the op-log truncation cadence: every
	// interval the coordinator reads each worker's population with one
	// round in its stream and stores it as the log's base, dropping the
	// entries it covers (default 1s). A worker whose logged tail exceeds
	// checkpointOps entries is checkpointed sooner, bounding replay work
	// under load. Either way a worker waits nine times its last
	// checkpoint's duration before the next, so a large population is
	// checkpointed less often than the interval asks.
	CheckpointInterval time.Duration
	// HeartbeatInterval is the node→coordinator ping cadence negotiated
	// in the handshake; the connection read deadline is pinned to 4× it,
	// so a silent peer is detected within that bound (default 500ms).
	HeartbeatInterval time.Duration
	// RedialTimeout bounds the total time recovery keeps redialling a
	// crashed worker before declaring the slot unrecoverable
	// (default 45s).
	RedialTimeout time.Duration
}

// checkpointOps is the logged-tail length that forces a worker's
// checkpoint ahead of Recovery.CheckpointInterval.
const checkpointOps = 8192

// checkpointSpacing is how many times its last checkpoint's duration a
// slot waits before the next one, whichever trigger fires.
const checkpointSpacing = 9

func (r *RecoveryConfig) fillDefaults() {
	if !r.Enabled {
		return
	}
	if r.CheckpointInterval <= 0 {
		r.CheckpointInterval = time.Second
	}
	if r.HeartbeatInterval <= 0 {
		r.HeartbeatInterval = 500 * time.Millisecond
	}
	if r.RedialTimeout <= 0 {
		r.RedialTimeout = 45 * time.Second
	}
}

// ErrNoSpareSlots is returned by AddWorker when no pre-allocated spare
// worker slot is free (Config.SpareWorkers sizes the pool; slots are
// per-run, a decommissioned slot is not reusable).
var ErrNoSpareSlots = errors.New("core: no spare worker slot available (Config.SpareWorkers)")

// ErrWorkerUnrecoverable is wrapped by Drain when a remote worker slot
// died and recovery is off, exhausted, or impossible: matches routed to
// it may be lost, so the barrier fails instead of waiting forever.
var ErrWorkerUnrecoverable = errors.New("core: remote worker unrecoverable")

// workerHop is the coordinator's per-slot state for one out-of-process
// worker: the current session's wire client, its generation, the answers
// the slot owes, and the recovery op log. All mutable fields are guarded
// by mu; notify is a closed-and-replaced broadcast channel (wait on the
// current one, and any state change wakes you).
type workerHop struct {
	task int

	mu     sync.Mutex
	notify chan struct{}
	// addr/hello redial the same node after a crash.
	addr  string
	hello wire.Hello
	// tr is the current session's client (nil for an unclaimed spare).
	tr *wire.WorkerClient
	// active: the slot participates in routing/adjustment decisions.
	// down: the current session's connection failed. replaying: a
	// recovery session is installed but still replaying the op log.
	// failed: the slot is permanently unrecoverable. closing: system
	// shutdown (or post-decommission teardown) reached this hop.
	active, down, replaying bool
	failed, closing         bool
	decommissioned, exited  bool
	// gen numbers transport sessions 1..n (also the Hello fencing
	// epoch); drainedGen is the highest session whose match stream the
	// spout has fully drained.
	gen        uint64
	drainedGen uint64
	// sentSeq is the highest op-log sequence actually put on the current
	// session's wire.
	sentSeq uint64

	// owed are the markers and rounds handed to the slot whose answer the
	// spout has not read yet, oldest first: the slot answers in the order
	// it was asked. The spout pops them under owedMu alone, so it never
	// waits for a sender holding mu (lock order: mu, then owedMu).
	// lastStats, what the latest stats round reported, is recorded there,
	// and roundSeq numbers the control rounds sent to the slot.
	owedMu    sync.Mutex
	owed      []owedAnswer
	lastStats wire.StatsReply
	roundSeq  uint64

	// log is the recovery op log (nil when Recovery is disabled — the
	// slot then keeps the legacy fail-loudly contract).
	log *oplog.Log
}

// broadcastLocked wakes every waiter. Caller holds h.mu.
func (h *workerHop) broadcastLocked() {
	close(h.notify)
	h.notify = make(chan struct{})
}

// owedAnswer is one answer a slot owes: a Drain marker's ack, or the
// reply to round, sent numbered seq on session gen. replay marks a frame
// recovery sent again from the op log: no caller awaits its reply, so the
// spout applies every delta it carries.
type owedAnswer struct {
	mark     *drainMark
	round    *ctrlRound
	seq, gen uint64
	replay   bool
}

// oweLocked records an answer the slot now owes. Caller holds h.mu.
func (h *workerHop) oweLocked(a owedAnswer) {
	h.owedMu.Lock()
	h.owed = append(h.owed, a)
	h.owedMu.Unlock()
}

// owe numbers round c's request for session gen, records its answer as
// owed and returns the request to send. A replayed round goes out ahead
// of every marker still waiting, so it is owed ahead of them.
func (h *workerHop) owe(c *ctrlRound, gen uint64, replay bool) wire.Frame {
	h.owedMu.Lock()
	defer h.owedMu.Unlock()
	h.roundSeq++
	i := len(h.owed)
	if replay {
		if m := slices.IndexFunc(h.owed, func(a owedAnswer) bool { return a.mark != nil }); m >= 0 {
			i = m
		}
	}
	h.owed = slices.Insert(h.owed, i, owedAnswer{round: c, seq: h.roundSeq, gen: gen, replay: replay})
	return numbered(c.req, h.roundSeq)
}

// popAnswer takes the oldest owed answer, which the item the spout just
// read must settle: a marker ack (reply nil), or the reply to the round
// numbered as reply is.
func (h *workerHop) popAnswer(reply wire.Frame) (owedAnswer, error) {
	h.owedMu.Lock()
	defer h.owedMu.Unlock()
	if len(h.owed) == 0 || (reply == nil) != (h.owed[0].mark != nil) || replySeq(reply) != h.owed[0].seq {
		return owedAnswer{}, fmt.Errorf("answer %T to round %d out of order (%d answers owed)", reply, replySeq(reply), len(h.owed))
	}
	if sr, ok := reply.(wire.StatsReply); ok {
		h.lastStats = sr
	}
	a := h.owed[0]
	h.owed = h.owed[1:]
	return a, nil
}

// failRounds fails the rounds sent on sessions up to gen, whose streams
// have ended: no reply to them will come. The markers stay owed;
// recovery sends them again.
func (h *workerHop) failRounds(gen uint64, err error) {
	h.owedMu.Lock()
	defer h.owedMu.Unlock()
	kept := h.owed[:0]
	for _, a := range h.owed {
		if a.round != nil && a.gen <= gen {
			a.round.answer(nil, err) // never blocks
		} else {
			kept = append(kept, a)
		}
	}
	h.owed = kept
}

// up reports whether the hop is currently serving traffic.
func (h *workerHop) up() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.active && !h.down && !h.replaying && !h.closing && h.tr != nil
}

// awaitUp waits until remote slot w serves traffic again after a session
// ended, and reports whether it does: false for an in-process slot, a
// hop that has exited, failed, is closing or was decommissioned, a run
// that stopped, and after wire.DefaultControlTimeout.
func (s *System) awaitUp(w int) bool {
	h := s.hop(w)
	if h == nil {
		return false
	}
	timeout := time.NewTimer(wire.DefaultControlTimeout)
	defer timeout.Stop()
	for {
		h.mu.Lock()
		gone := h.exited || h.failed || h.closing || h.decommissioned
		up := h.active && !h.down && !h.replaying && h.tr != nil
		ch := h.notify
		h.mu.Unlock()
		if gone || up {
			return !gone
		}
		select {
		case <-ch:
		case <-timeout.C:
			return false
		case <-s.stopped:
			return false
		}
	}
}

// initHops builds the per-slot hop table. Called from New before the
// in-process bolts are built; nil when the deployment has neither remote
// workers nor spare slots.
func (s *System) initHops() {
	if len(s.cfg.RemoteWorkers) == 0 && s.cfg.SpareWorkers <= 0 {
		return
	}
	s.hops = make([]*workerHop, s.totalSlots())
	newHop := func(task int) *workerHop {
		h := &workerHop{task: task, notify: make(chan struct{})}
		if s.cfg.Recovery.Enabled {
			h.log = oplog.New()
		}
		s.board.track(task)
		s.hops[task] = h
		return h
	}
	for task, cl := range s.cfg.RemoteWorkers {
		h := newHop(task)
		h.tr, h.active, h.gen = cl, true, 1
		h.addr, h.hello = cl.Addr(), cl.Hello()
	}
	for task := s.cfg.Workers; task < s.totalSlots(); task++ {
		newHop(task)
	}
}

// totalSlots is the worker-task count including pre-allocated spares.
func (s *System) totalSlots() int { return s.cfg.Workers + s.cfg.SpareWorkers }

// hop returns slot i's hop, nil for in-process slots.
func (s *System) hop(i int) *workerHop {
	if i < 0 || i >= len(s.hops) {
		return nil
	}
	return s.hops[i]
}

// activeWorkerSlots lists the worker slots that participate in routing
// and load decisions: every in-process slot, plus hops marked active
// (spares join on AddWorker, decommissioned slots leave).
func (s *System) activeWorkerSlots() []int {
	out := make([]int, 0, s.totalSlots())
	for i := range s.totalSlots() {
		if h := s.hop(i); h != nil {
			h.mu.Lock()
			a := h.active
			h.mu.Unlock()
			if !a {
				continue
			}
		}
		out = append(out, i)
	}
	return out
}

// maskActive projects a full per-slot vector down to the active slots,
// so balance factors never divide by an idle spare's zero load.
func maskActive(vals []float64, active []int) []float64 {
	out := make([]float64, 0, len(active))
	for _, i := range active {
		if i < len(vals) {
			out = append(out, vals[i])
		}
	}
	return out
}

// hopFailed transitions session gen of h to down (idempotent per
// generation) and, when the slot is recoverable, launches recovery.
// The dead transport is closed synchronously so the slot's match spout
// unblocks from its socket read.
func (s *System) hopFailed(h *workerHop, gen uint64, cause error) {
	h.mu.Lock()
	if h.gen != gen || h.down || h.exited {
		h.mu.Unlock()
		return
	}
	h.down = true
	h.replaying = false
	old := h.tr
	shouldRecover := h.log != nil && h.addr != "" && !h.closing && !h.decommissioned && !h.failed
	if !shouldRecover && !h.closing && !h.decommissioned {
		h.failed = true
	}
	h.broadcastLocked()
	h.mu.Unlock()
	s.log.Warn("remote worker down", "worker", h.task, "gen", gen, "err", cause)
	if old != nil {
		old.Close()
	}
	if shouldRecover {
		go s.recoverWorker(h, gen)
	}
}

// hopUnrecoverable marks the slot permanently failed (unless it is
// already tearing down on purpose).
func (s *System) hopUnrecoverable(h *workerHop, err error) {
	h.mu.Lock()
	if !h.closing && !h.decommissioned && !h.exited {
		h.failed = true
	}
	h.broadcastLocked()
	h.mu.Unlock()
	s.log.Error("remote worker unrecoverable", "worker", h.task, "err", err)
}

// recoveryCtx is the context recovery waits under: the run context once
// Start installed it, Background before (recovery only ever starts
// after traffic flowed, hence after Start).
func (s *System) recoveryCtx() context.Context {
	if s.runCtx != nil {
		return s.runCtx
	}
	return context.Background()
}

// recoverWorker re-establishes a crashed worker slot: redial the same
// address under a fresh fencing epoch, wait for the failed session's
// spout drain (every ack it read has passed its marker on, every round it
// owed has failed), install the
// new transport *before* replaying — the spout then consumes
// replay-produced matches, so a long replay cannot deadlock on wire
// backpressure — replay the op log's base as an InstallCells round and
// then its tail, and finally catch up under the hop lock with anything
// appended mid-replay, and re-send the markers still waiting, before
// re-opening the slot. The replayed rounds' answers are owed ahead of
// those markers, and their deltas reach the board under the new epoch.
func (s *System) recoverWorker(h *workerHop, failedGen uint64) {
	newGen := failedGen + 1
	h.mu.Lock()
	addr, hello := h.addr, h.hello
	h.mu.Unlock()
	hello.Task = h.task
	hello.Epoch = newGen
	if s.cfg.Recovery.HeartbeatInterval > 0 {
		hello.HeartbeatMillis = int(s.cfg.Recovery.HeartbeatInterval / time.Millisecond)
	}
	// MaxElapsed is the binding cap; raise the attempt count so it
	// cannot exhaust first.
	b := wire.Backoff{MaxElapsed: s.cfg.Recovery.RedialTimeout, Attempts: 1 << 20}
	cl, err := wire.DialWorker(addr, hello, b)
	if err != nil {
		s.hopUnrecoverable(h, fmt.Errorf("redialling %s: %w", addr, err))
		return
	}
	ctx := s.recoveryCtx()
	for {
		h.mu.Lock()
		if h.closing || h.decommissioned || h.failed || h.exited {
			h.mu.Unlock()
			cl.Close()
			return
		}
		if h.drainedGen >= failedGen {
			break // h.mu still held
		}
		ch := h.notify
		h.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			cl.Close()
			return
		}
	}
	// The node lost its window state with the crash: retract this
	// source's tracked top-k contributions under the new epoch before
	// any replay traffic flows, so the board's TopKSet reflects only
	// state the recovered session re-establishes. Deltas the node
	// re-emits during replay arrive tagged with newGen and rebuild the
	// refs; stragglers from the dead session carry an older epoch and
	// are dropped. (ApplyFrom with no deltas is exactly this bump-and-
	// retract.)
	s.board.ApplyFrom(h.task, newGen, nil)
	// Install the recovery session (still under h.mu from the loop).
	h.tr = cl
	h.gen = newGen
	h.down = false
	h.replaying = true
	h.broadcastLocked()
	h.mu.Unlock()
	base, tail, pos := h.log.Replay()
	s.log.Info("remote worker redialled; replaying",
		"worker", h.task, "gen", newGen, "pos", pos, "tail", len(tail))
	lastSeq := pos
	if len(tail) > 0 {
		lastSeq = tail[len(tail)-1].Seq
	}
	if len(base.Cells) > 0 {
		tail = append([]oplog.Entry{{Frame: base}}, tail...)
	}
	if err := s.replaySend(h, cl, newGen, tail); err != nil {
		s.hopFailed(h, newGen, err)
		return
	}
	// Catch-up and re-open atomically: entries appended while replay ran
	// are sent under the hop lock, then replaying flips off — the bolt's
	// sentSeq check suppresses the one batch that may race the flip.
	h.mu.Lock()
	if h.gen != newGen || h.down || h.closing {
		h.mu.Unlock()
		return
	}
	pending := h.log.Since(lastSeq)
	err = s.replaySend(h, h.tr, newGen, pending)
	// Every waiting marker follows the entries now sent. owedMu is not
	// held across the sends: the spout pops under it while draining
	// matches.
	marks := 0
	h.owedMu.Lock()
	for _, a := range h.owed {
		if a.mark != nil {
			marks++
		}
	}
	h.owedMu.Unlock()
	for ; err == nil && marks > 0; marks-- {
		err = h.tr.SendDrain()
	}
	if err != nil {
		h.mu.Unlock()
		s.hopFailed(h, newGen, err)
		return
	}
	if len(pending) > 0 {
		lastSeq = pending[len(pending)-1].Seq
	}
	h.replaying = false
	if lastSeq > h.sentSeq {
		h.sentSeq = lastSeq
	}
	h.broadcastLocked()
	h.mu.Unlock()
	s.log.Info("remote worker recovered", "worker", h.task, "gen", newGen)
}

// replaySend ships logged entries to session gen in their stream order:
// operations in BatchSize batches, each under its original submit stamp
// (window entry ranks and expiry are functions of the publish instant,
// so re-stamping would corrupt the recovered node's top-k state), and
// each logged frame as a round whose reply the spout applies.
func (s *System) replaySend(h *workerHop, cl *wire.WorkerClient, gen uint64, ents []oplog.Entry) error {
	ops := make([]wire.OpEnv, 0, s.cfg.BatchSize)
	flush := func() error {
		if len(ops) == 0 {
			return nil
		}
		err := cl.SendOps(wire.OpBatch{Ops: ops})
		ops = ops[:0]
		return err
	}
	for _, e := range ents {
		if e.Frame == nil {
			ops = append(ops, wire.OpEnv{Op: e.Op, T0: e.T0})
			if len(ops) < cap(ops) {
				continue
			}
		}
		if err := flush(); err != nil {
			return err
		}
		if e.Frame != nil {
			if err := cl.SendControl(h.owe(newRound(h.task, e.Frame, false), gen, true)); err != nil {
				return err
			}
		}
	}
	return flush()
}

// logFrame appends a request a cut served slot w to the slot's op log,
// while the cut still holds the slot: no operation routed after the cut
// is logged ahead of it.
func (s *System) logFrame(w int, f wire.Frame) {
	if h := s.hop(w); h != nil && h.log != nil {
		h.log.AppendFrame(f)
	}
}

// checkpointLoop truncates each recoverable hop's op log on a cadence
// (and on tail-size pressure). It runs only with Recovery.Enabled. A
// checkpoint is a population round in the slot's stream, so its cost
// grows with the population: after a round that took d, successful or
// not, the hop's next one waits checkpointSpacing×d, which keeps
// checkpoints to at most a tenth of the slot's stream time.
func (s *System) checkpointLoop(ctx context.Context) {
	if !s.cfg.Recovery.Enabled || s.hops == nil {
		return
	}
	poll := s.cfg.Recovery.CheckpointInterval / 4
	if poll < 50*time.Millisecond {
		poll = 50 * time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	next := make([]time.Time, len(s.hops))
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		for i, h := range s.hops {
			if h == nil || h.log == nil {
				continue
			}
			start := time.Now()
			if start.Before(next[i]) || h.log.CheckpointAge() < s.cfg.Recovery.CheckpointInterval &&
				h.log.TailLen() < checkpointOps {
				continue
			}
			s.checkpointHop(h)
			end := time.Now()
			next[i] = end.Add(checkpointSpacing * end.Sub(start))
		}
	}
}

// checkpointHop reads the slot's population with one round in its
// stream and stores it as the log's base at the round's position: the
// log sequence the slot's bolt had sent when it forwarded the round
// (ctrlRound.pos), so the population holds every entry up to it and none
// after it. A failed round keeps the previous base and the whole tail.
func (s *System) checkpointHop(h *workerHop) bool {
	if !h.up() {
		return false
	}
	c := s.send(slotPopulation(h.task, true))
	p, err := s.population(c)
	if err != nil {
		return false
	}
	h.log.Checkpoint(c.pos, wire.InstallCells{Cells: []wire.CellPayload{p}})
	return true
}

// AddWorker dials a freshly started worker node at addr, claims a free
// spare slot for it, and — when the migration machinery is available —
// rebalances cells from the existing workers onto it. It returns the
// slot's task index. The spare pool is sized by Config.SpareWorkers at
// build time (routing bitmasks are fixed-width); each slot is
// single-use within a run.
func (s *System) AddWorker(addr string) (int, error) {
	if s.hops == nil || s.cfg.SpareWorkers <= 0 {
		return -1, ErrNoSpareSlots
	}
	s.adjustMu.Lock()
	defer s.adjustMu.Unlock()
	var h *workerHop
	for task := s.cfg.Workers; task < len(s.hops); task++ {
		cand := s.hops[task]
		if cand == nil {
			continue
		}
		cand.mu.Lock()
		free := !cand.active && cand.tr == nil && !cand.exited && !cand.failed && !cand.closing
		cand.mu.Unlock()
		if free {
			h = cand
			break
		}
	}
	if h == nil {
		return -1, ErrNoSpareSlots
	}
	hello := s.remoteHello
	hello.Task = h.task
	hello.Epoch = 1
	cl, err := wire.DialWorker(addr, hello, wire.Backoff{})
	if err != nil {
		return -1, fmt.Errorf("core: adding worker at %s: %w", addr, err)
	}
	h.mu.Lock()
	h.addr = addr
	h.hello = hello
	h.tr = cl
	h.gen = 1
	h.active = true
	h.down = false
	h.broadcastLocked()
	h.mu.Unlock()
	s.log.Info("worker joined", "worker", h.task, "addr", addr)
	if s.canAdjust() {
		s.rebalanceOnto(h.task)
	}
	return h.task, nil
}

// rebalanceOnto moves roughly an even share of the cluster's cell load
// onto a just-joined slot: gather every migratable cell across the
// other active workers, sort heaviest-first, and migrate greedily until
// the new slot holds ~1/n of the total. Caller holds adjustMu.
func (s *System) rebalanceOnto(task int) {
	active := s.activeWorkerSlots()
	if len(active) <= 1 {
		return
	}
	type ownedCell struct {
		owner int
		cell  migrate.Cell
	}
	var cands []ownedCell
	var total float64
	for _, w := range active {
		if w == task {
			continue
		}
		stats, err := roundAs[wire.CellStatsReply](s, w, wire.CellStatsReq{})
		if err != nil {
			continue // unobservable this round; rebalance what we can see
		}
		for _, c := range migrationCandidates(stats.Cells, nil) {
			cands = append(cands, ownedCell{owner: w, cell: c})
			total += c.Load
		}
	}
	if total <= 0 || len(cands) == 0 {
		return
	}
	target := total / float64(len(active))
	sort.Slice(cands, func(i, j int) bool { return cands[i].cell.Load > cands[j].cell.Load })
	// From -1: many sources, a join rebalance, not a pairwise move.
	m := MigrationStat{Algorithm: s.cfg.Adjust.Algorithm, From: -1, To: task}
	start := time.Now()
	var moved float64
	for _, oc := range cands {
		if moved >= target {
			break
		}
		if s.moveInto(&m, oc.owner, task, oc.cell.ID, nil) {
			moved += oc.cell.Load
		}
	}
	s.recordMoves(m, start)
}

// DecommissionWorker gracefully retires an elastic worker slot: every
// cell it serves is migrated to the remaining active workers, one cut per
// cell like an adjustment's, in one pass. A destination whose move fails
// is pruned, and the cell is retried on the next live target. Then the
// slot's remaining matches and deltas are flushed by one round in its
// stream, and the hop is half-closed so the node ends the session with a
// clean Goodbye. The slot leaves the active set permanently.
func (s *System) DecommissionWorker(task int) error {
	h := s.hop(task)
	if h == nil {
		return fmt.Errorf("core: worker %d is not an elastic remote slot", task)
	}
	if !s.canAdjust() {
		return ErrAdjustNeedsHybrid
	}
	s.adjustMu.Lock()
	defer s.adjustMu.Unlock()
	if !h.up() {
		return fmt.Errorf("core: worker %d is not up", task)
	}
	targets := slices.DeleteFunc(s.activeWorkerSlots(), func(w int) bool { return w == task })
	if len(targets) == 0 {
		return errors.New("core: cannot decommission the last active worker")
	}
	gt := s.gridT.Load()
	rr := 0
	for c := range gt.Grid().NumCells() {
		for slices.Contains(gt.CellWorkers(c), task) {
			if len(targets) == 0 {
				return fmt.Errorf("core: decommission of worker %d: migrating cell %d failed with no live destination", task, c)
			}
			dst := targets[rr%len(targets)]
			rr++
			if _, _, ok := s.migrateShare(task, dst, c); ok {
				break
			}
			if !h.up() {
				return fmt.Errorf("core: decommission of worker %d: the worker went down migrating cell %d", task, c)
			}
			targets = slices.DeleteFunc(targets, func(w int) bool { return w == dst })
		}
	}
	// All cells are off the slot; flush its last matches
	// so nothing is lost to the half-close. The round's reply follows the
	// slot's ops, and the spout has already sent their matches on and
	// applied their deltas.
	if _, err := roundAs[wire.StatsReply](s, task, wire.StatsReq{}); err != nil {
		return fmt.Errorf("core: decommission flush of worker %d: %w", task, err)
	}
	h.mu.Lock()
	h.decommissioned = true
	h.closing = true
	h.active = false
	tr := h.tr
	h.broadcastLocked()
	h.mu.Unlock()
	// The round above delivered (and applied) every delta the node
	// emitted; whatever net contribution remains tracked for the slot is
	// state the migrations already moved elsewhere — drop it so the
	// retired source cannot pin stale top-k candidates.
	s.board.dropSource(task)
	s.log.Info("worker decommissioned", "worker", task)
	return tr.CloseSend()
}
