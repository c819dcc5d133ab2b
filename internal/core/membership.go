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
// wire backpressure), and the Drain barrier recomputes its target
// whenever a generation changes under it.
package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ps2stream/internal/migrate"
	"ps2stream/internal/model"
	"ps2stream/internal/oplog"
	"ps2stream/internal/snapshot"
	"ps2stream/internal/window"
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
	// interval the coordinator runs a drain barrier per worker and folds
	// the acknowledged prefix into the compact checkpoint base
	// (default 1s).
	CheckpointInterval time.Duration
	// CheckpointOps forces a checkpoint when a worker's logged tail
	// exceeds this many entries regardless of the interval, bounding
	// replay work under load (default 8192).
	CheckpointOps int
	// HeartbeatInterval is the node→coordinator ping cadence negotiated
	// in the handshake; the connection read deadline is pinned to 4× it,
	// so a silent peer is detected within that bound (default 500ms).
	HeartbeatInterval time.Duration
	// RedialBackoff shapes recovery and AddWorker dial retries.
	RedialBackoff wire.Backoff
	// RedialTimeout bounds the total time recovery keeps redialling a
	// crashed worker before declaring the slot unrecoverable
	// (default 45s).
	RedialTimeout time.Duration
	// Dir, when set, persists one snapshot.WriteState checkpoint file
	// per worker slot (worker-<task>.ckpt) at every op-log truncation,
	// so an operator can re-prime a replacement cluster offline.
	Dir string
}

func (r *RecoveryConfig) fillDefaults() {
	if !r.Enabled {
		return
	}
	if r.CheckpointInterval <= 0 {
		r.CheckpointInterval = time.Second
	}
	if r.CheckpointOps <= 0 {
		r.CheckpointOps = 8192
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
// worker: the current session's wire client, its generation, and the
// recovery op log. It is the slot's workerEndpoint: every control round
// runs on whatever session is current. All mutable fields are guarded by
// mu; notify is a closed-and-replaced broadcast channel (wait on the
// current one, and any state change wakes you).
type workerHop struct {
	task int
	// board receives the deltas of the slot's control rounds, under the
	// slot's epoch-fenced ledger (see topkBoard.ApplyFrom).
	board *topkBoard

	mu     sync.Mutex
	notify chan struct{}
	// addr/hello redial the same node after a crash.
	addr  string
	hello wire.Hello
	// tr is the current session's client (nil for an unclaimed spare).
	tr *wire.WorkerClient
	// lastStats is what the latest successful stats round reported.
	lastStats wire.StatsReply
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
	// session's wire — the checkpoint watermark candidate.
	sentSeq uint64
	// sessionRecv counts match envelopes the spout received from the
	// current session; retired accumulates them when sessions end.
	sessionRecv int64
	retired     int64

	// log is the recovery op log (nil when Recovery is disabled — the
	// slot then keeps the legacy fail-loudly contract).
	log *oplog.Log
}

// broadcastLocked wakes every waiter. Caller holds h.mu.
func (h *workerHop) broadcastLocked() {
	close(h.notify)
	h.notify = make(chan struct{})
}

// errNoSession is what a control round on an unclaimed spare slot
// returns.
var errNoSession = errors.New("core: worker slot has no session")

// client returns the current session's client regardless of its health:
// a control round on a dead connection fails fast, and every caller
// treats a failed round as "slot unobservable, skip or abort".
func (h *workerHop) client() (*wire.WorkerClient, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.tr == nil {
		return nil, errNoSession
	}
	return h.tr, nil
}

// The workerEndpoint methods: each is one control round on the current
// session, FIFO-ordered behind every op batch and fence frame sent
// before it.

func (h *workerHop) Stats() (wire.StatsReply, error) {
	c, err := h.client()
	if err != nil {
		return wire.StatsReply{}, err
	}
	sr, err := c.Stats()
	if err == nil {
		h.mu.Lock()
		h.lastStats = sr
		h.mu.Unlock()
	}
	return sr, err
}

func (h *workerHop) LastStats() wire.StatsReply {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastStats
}

func (h *workerHop) CellStats() ([]wire.CellStat, error) {
	c, err := h.client()
	if err != nil {
		return nil, err
	}
	return c.CellStats()
}

func (h *workerHop) ExtractCells(cells []wire.CellSpec, remove, subs bool) (wire.CellShare, error) {
	c, err := h.client()
	if err != nil {
		return wire.CellShare{}, err
	}
	return c.ExtractCells(cells, remove, subs)
}

func (h *workerHop) InstallCells(cells []wire.CellPayload, deletes []uint64) (int64, error) {
	c, err := h.client()
	if err != nil {
		return 0, err
	}
	ack, n, err := c.InstallCells(cells, deletes)
	if err == nil {
		// The node registered any migrated top-k subscriptions in its
		// window store; its admission deltas fold into the board here so
		// the reconciler sees the destination's copy the moment it goes
		// live.
		h.board.ApplyFrom(h.task, ack.Epoch, ack.Deltas)
	}
	return n, err
}

func (h *workerHop) AdvanceWindow(now time.Time) error {
	c, err := h.client()
	if err != nil {
		return err
	}
	ack, err := c.AdvanceWindow(now)
	if err == nil {
		h.board.ApplyFrom(h.task, ack.Epoch, ack.Deltas)
	}
	return err
}

func (h *workerHop) ResetWindow() error {
	c, err := h.client()
	if err != nil {
		return err
	}
	return c.ResetWindow()
}

func (h *workerHop) SendFence(epoch uint64) error {
	c, err := h.client()
	if err != nil {
		return err
	}
	return c.SendFence(epoch)
}

// snapshotLocked-style helper: is the hop currently serving traffic?
func (h *workerHop) up() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.active && !h.down && !h.replaying && !h.closing && h.tr != nil
}

// initHops builds the per-slot hop table. Called from New before the
// slot endpoints are assembled; nil when the deployment has neither
// remote workers nor spare slots.
func (s *System) initHops() {
	if len(s.cfg.RemoteWorkers) == 0 && s.cfg.SpareWorkers <= 0 {
		return
	}
	s.hops = make([]*workerHop, s.totalSlots())
	newHop := func(task int) *workerHop {
		h := &workerHop{task: task, board: s.board, notify: make(chan struct{})}
		if s.cfg.Recovery.Enabled {
			h.log = oplog.New()
		}
		s.board.track(task)
		s.hops[task] = h
		return h
	}
	for task, cl := range s.cfg.RemoteWorkers {
		h := newHop(task)
		s.installDeltaHandler(task, cl)
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
	out := make([]int, 0, len(s.slots))
	for i := range s.slots {
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
// spout drain (its received matches must be retired before the Drain
// barrier can re-account them), install the new transport *before*
// replaying — the spout then consumes replay-produced matches, so a
// long replay cannot deadlock on wire backpressure — replay the op
// log's checkpoint base and tail, and finally catch up under the hop
// lock with anything appended mid-replay before re-opening the slot.
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
	b := s.cfg.Recovery.RedialBackoff
	b.MaxElapsed = s.cfg.Recovery.RedialTimeout
	// MaxElapsed is the binding cap; raise the attempt count so it
	// cannot exhaust first.
	b.Attempts = 1 << 20
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
	s.installDeltaHandler(h.task, cl)
	// Install the recovery session (still under h.mu from the loop).
	h.tr = cl
	h.gen = newGen
	h.down = false
	h.replaying = true
	h.sessionRecv = 0
	h.broadcastLocked()
	h.mu.Unlock()
	base, tail, watermark := h.log.Replay()
	s.log.Info("remote worker redialled; replaying",
		"worker", h.task, "gen", newGen, "base", len(base), "tail", len(tail))
	lastSeq := watermark
	baseEnts := make([]oplog.Entry, 0, len(base))
	for _, q := range base {
		baseEnts = append(baseEnts, oplog.Entry{Op: model.Op{Kind: model.OpInsert, Query: q}})
	}
	if err := s.replaySend(cl, baseEnts); err != nil {
		s.hopFailed(h, newGen, err)
		return
	}
	if err := s.replaySend(cl, tail); err != nil {
		s.hopFailed(h, newGen, err)
		return
	}
	if len(tail) > 0 {
		lastSeq = tail[len(tail)-1].Seq
	}
	// Catch-up and re-open atomically: ops appended while replay ran are
	// sent under the hop lock, then replaying flips off — the bolt's
	// sentSeq check suppresses the one batch that may race the flip.
	h.mu.Lock()
	if h.gen != newGen || h.down || h.closing {
		h.mu.Unlock()
		return
	}
	pending := h.log.Since(lastSeq)
	if err := s.replaySend(h.tr, pending); err != nil {
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

// replaySend ships logged entries to a session in BatchSize chunks.
// Each entry keeps its original submit stamp — window entry ranks and
// expiry are functions of the publish instant, so re-stamping would
// corrupt the recovered node's top-k state. Entries without a stamp
// (checkpoint-base query registrations) are stamped at the replay
// instant; a query's T0 only feeds latency accounting.
func (s *System) replaySend(cl *wire.WorkerClient, ents []oplog.Entry) error {
	now := s.now()
	bs := s.cfg.BatchSize
	ops := make([]wire.OpEnv, 0, bs)
	for off := 0; off < len(ents); off += bs {
		end := off + bs
		if end > len(ents) {
			end = len(ents)
		}
		ops = ops[:0]
		for _, e := range ents[off:end] {
			t0 := e.T0
			if t0.IsZero() {
				t0 = now
			}
			ops = append(ops, wire.OpEnv{Op: e.Op, T0: t0, Refill: e.Refill})
		}
		if err := cl.SendOps(wire.OpBatch{Ops: ops}); err != nil {
			return err
		}
	}
	return nil
}

// logAdoptions appends migration-install entries to worker w's op log:
// queries the slot adopted, ids deleted from its adopted copy, and the
// window entries that travelled with the hand-off (logged as refill
// objects under their original publish stamps, so a later crash replay
// can rebuild the adopted window state without re-emitting matches).
// The InstallCells round that applied them is synchronously acked
// before any later traffic, so the checkpoint barrier covers them like
// any op.
func (s *System) logAdoptions(w int, adopted []*model.Query, dropped []uint64, entries []window.Entry) {
	h := s.hop(w)
	if h == nil || h.log == nil {
		return
	}
	now := s.now()
	for _, q := range adopted {
		h.log.AdoptQuery(q, now)
	}
	for _, id := range dropped {
		h.log.Append(model.Op{Kind: model.OpDelete, Query: &model.Query{ID: id}}, now)
	}
	seen := make(map[uint64]bool, len(entries))
	for _, e := range entries {
		if seen[e.MsgID] {
			continue // ring and subscription copies overlap; one refill is enough
		}
		seen[e.MsgID] = true
		h.log.AdoptObject(&model.Object{ID: e.MsgID, Terms: e.Terms, Loc: e.Loc}, e.At)
	}
}

// logDepartures appends migration-extract entries to worker w's op log
// for the extracted queries that left the slot: replaying them there
// after a crash would resurrect queries the destination already owns. A
// query spanning several of the source's cells is only dropped from the
// replay base once its *last* cell leaves: the logged delete is
// whole-query (the node's index deletes across cells), so dropping on a
// partial departure would erase the cells the source still owns from a
// post-crash replay. Routing is already flipped, so the table answers
// whether the source still holds the query through some other cell — via
// the read-only probe: RouteQuery(q, false) is delete-routing and would
// corrupt H2's registration counts.
func (s *System) logDepartures(w int, extracted []*model.Query) {
	h := s.hop(w)
	if h == nil || h.log == nil {
		return
	}
	now := s.now()
	gt := s.gridT.Load()
	for _, q := range extracted {
		still := false
		if gt != nil {
			for _, t := range gt.PeekQuery(q) {
				if t == w {
					still = true
					break
				}
			}
		}
		if !still {
			h.log.DropQuery(q, now)
		}
	}
}

// checkpointLoop truncates each recoverable hop's op log on a cadence
// (and on tail-size pressure), persisting a restorable state snapshot
// when Recovery.Dir is set.
func (s *System) checkpointLoop(ctx context.Context) {
	poll := s.cfg.Recovery.CheckpointInterval / 4
	if poll < 50*time.Millisecond {
		poll = 50 * time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	last := make([]time.Time, len(s.hops))
	for i := range last {
		last[i] = time.Now()
	}
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
			if time.Since(last[i]) < s.cfg.Recovery.CheckpointInterval &&
				h.log.TailLen() < s.cfg.Recovery.CheckpointOps {
				continue
			}
			if s.checkpointHop(h) {
				last[i] = time.Now()
			}
		}
	}
}

// checkpointHop runs one drain barrier on the hop and folds the acked
// op prefix into the log's base. The watermark is the sequence of the
// last op put on this session's wire before the barrier: the ack
// proves the node processed everything up to it.
func (s *System) checkpointHop(h *workerHop) bool {
	h.mu.Lock()
	if !h.active || h.down || h.replaying || h.closing || h.tr == nil {
		h.mu.Unlock()
		return false
	}
	tr, gen, wm := h.tr, h.gen, h.sentSeq
	h.mu.Unlock()
	if _, err := tr.Drain(); err != nil {
		s.hopFailed(h, gen, err)
		return false
	}
	h.log.Checkpoint(wm, s.now())
	if s.cfg.Recovery.Dir != "" {
		if err := s.writeWorkerCheckpoint(h); err != nil {
			s.log.Warn("worker checkpoint persist failed", "worker", h.task, "err", err)
		}
	}
	return true
}

// writeWorkerCheckpoint persists the hop's checkpoint base as a
// snapshot.State file (worker-<task>.ckpt, atomically replaced), with
// the slot's current cell assignment from the routing table.
func (s *System) writeWorkerCheckpoint(h *workerHop) error {
	base, _, wm := h.log.Replay()
	st := snapshot.State{
		Worker:    h.task,
		Bounds:    s.bounds,
		Queries:   base,
		Watermark: wm,
		Cells:     make(map[int][]string),
	}
	if gt := s.gridT.Load(); gt != nil {
		n := gt.Grid().NumCells()
		for c := 0; c < n; c++ {
			for _, w := range gt.CellWorkers(c) {
				if w != h.task {
					continue
				}
				if gt.IsTextCell(c) {
					st.Cells[c] = gt.H2Keys(c, h.task)
				} else {
					st.Cells[c] = nil
				}
				break
			}
		}
	}
	f, err := os.CreateTemp(s.cfg.Recovery.Dir, "worker-ckpt-*")
	if err != nil {
		return err
	}
	if err := snapshot.WriteState(f, st); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	dst := filepath.Join(s.cfg.Recovery.Dir, fmt.Sprintf("worker-%d.ckpt", h.task))
	if err := os.Rename(f.Name(), dst); err != nil {
		os.Remove(f.Name())
		return err
	}
	return nil
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
	cl, err := wire.DialWorker(addr, hello, s.cfg.Recovery.RedialBackoff)
	if err != nil {
		return -1, fmt.Errorf("core: adding worker at %s: %w", addr, err)
	}
	s.installDeltaHandler(h.task, cl)
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
	s.processPendingExtracts()
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
		stats, err := s.slots[w].CellStats()
		if err != nil {
			continue // unobservable this round; rebalance what we can see
		}
		for _, c := range s.migrationCandidates(stats) {
			cands = append(cands, ownedCell{owner: w, cell: c})
			total += c.Load
		}
	}
	if total <= 0 || len(cands) == 0 {
		return
	}
	target := total / float64(len(active))
	sort.Slice(cands, func(i, j int) bool { return cands[i].cell.Load > cands[j].cell.Load })
	start := time.Now()
	var moved float64
	var nCells, nQueries int
	var nBytes int64
	for _, oc := range cands {
		if moved >= target {
			break
		}
		q, b, ok := s.migrateShare(oc.owner, task, oc.cell.ID)
		if !ok {
			continue
		}
		moved += oc.cell.Load
		nCells++
		nQueries += q
		nBytes += b
	}
	if nCells == 0 {
		return
	}
	s.recordMigration(MigrationStat{
		Algorithm:    s.cfg.Adjust.Algorithm,
		Duration:     time.Since(start),
		Bytes:        nBytes,
		Cells:        nCells,
		QueriesMoved: nQueries,
		From:         -1, // many sources: a join rebalance, not a pairwise move
		To:           task,
	})
}

// DecommissionWorker gracefully retires an elastic worker slot: every
// cell it serves is migrated to the remaining active workers (routing
// flips first, deferred extracts reconcile, exactly like adjustment
// migrations), its remaining matches are flushed with a drain barrier,
// and the hop is half-closed so the node ends the session with a clean
// Goodbye. The slot leaves the active set permanently.
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
	var targets []int
	for _, w := range s.activeWorkerSlots() {
		if w != task {
			targets = append(targets, w)
		}
	}
	if len(targets) == 0 {
		return errors.New("core: cannot decommission the last active worker")
	}
	gt := s.gridT.Load()
	deadline := time.Now().Add(wire.DefaultControlTimeout)
	rr := 0
	for {
		s.processPendingExtracts()
		serves := false
		n := gt.Grid().NumCells()
		for c := 0; c < n; c++ {
			owns := false
			for _, w := range gt.CellWorkers(c) {
				if w == task {
					owns = true
					break
				}
			}
			if !owns {
				continue
			}
			serves = true
			if s.cellPending(c) {
				continue // an in-flight migration already moves it
			}
			dst := targets[rr%len(targets)]
			rr++
			if _, _, ok := s.migrateShare(task, dst, c); !ok {
				// The destination may itself have crashed mid-
				// decommission: prune targets that are not currently up
				// and let the outer sweep retry the cell — recovery can
				// bring the source (or a pruned target's load) back
				// within the deadline. Only a total lack of live
				// destinations is immediately fatal.
				live := targets[:0:0]
				for _, w := range targets {
					if hw := s.hop(w); hw == nil || hw.up() {
						live = append(live, w)
					}
				}
				if len(live) == 0 {
					return fmt.Errorf("core: decommission of worker %d: migrating cell %d failed with no live destination", task, c)
				}
				targets = live
			}
		}
		if !serves && !s.hasPendingExtractsFor(task) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("core: decommission of worker %d timed out draining migrations", task)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// All cells are off the slot and reconciled; flush its last matches
	// so nothing is lost to the half-close.
	tr, err := h.client()
	if err != nil {
		return fmt.Errorf("core: decommission drain of worker %d: %w", task, err)
	}
	if _, err := tr.Drain(); err != nil {
		return fmt.Errorf("core: decommission drain of worker %d: %w", task, err)
	}
	h.mu.Lock()
	h.decommissioned = true
	h.closing = true
	h.active = false
	tr = h.tr
	h.broadcastLocked()
	h.mu.Unlock()
	// The drain barrier above delivered (and applied) every delta the
	// node emitted; whatever net contribution remains tracked for the
	// slot is state the migrations already moved elsewhere — drop it so
	// the retired source cannot pin stale top-k candidates.
	s.board.dropSource(task)
	s.log.Info("worker decommissioned", "worker", task)
	return tr.CloseSend()
}

// hasPendingExtractsFor reports whether any deferred extraction still
// involves the slot (as source or destination).
func (s *System) hasPendingExtractsFor(task int) bool {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	for _, pe := range s.pendingEx {
		if pe.wo == task || pe.wl == task {
			return true
		}
	}
	return false
}
