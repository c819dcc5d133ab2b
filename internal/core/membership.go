// Elastic membership and crash recovery: worker slots can join at
// runtime (AddWorker dials a fresh psnode and rebalances cells onto
// it), leave gracefully (DecommissionWorker drains every cell off the
// node before half-closing the hop), and survive crashes — a dead
// connection trips a per-slot op log replay onto a redialled session
// while the coordinator routes around the outage.
//
// The unit of truth is the workerHop: one per out-of-process worker
// slot, holding its lifecycle state (slotState; one transition method,
// moveLocked, makes every change), the live session client, the session
// generation (bumped on every recovery; also the Hello fencing epoch, so
// a stale session cannot reclaim the slot), and the dispatcher-side op
// log that makes replay possible. Sessions hand over exactly: a failed session's
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
	"sync/atomic"
	"time"

	"ps2stream/internal/load"
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
// worker: where the slot is in its lifecycle, the current session's wire
// client, its generation, the answers the slot owes, and the recovery op
// log. All mutable fields are guarded by mu; notify is a closed-and-replaced
// broadcast channel (wait on the current one, and any state change wakes
// you).
type workerHop struct {
	task int

	mu     sync.Mutex
	notify chan struct{}
	// state changes only through moveLocked; cause is why the slot failed,
	// kept once it is gone. lost is the run's record of lost slots, which
	// Drain waits on.
	state slotState
	cause error
	lost  *lostSlots
	// addr/hello redial the same node after a crash.
	addr  string
	hello wire.Hello
	// tr is the current session's client (nil for an unclaimed spare).
	tr *wire.WorkerClient
	// gen numbers transport sessions 1..n (also the Hello fencing
	// epoch); drainedGen is the highest session whose match stream the
	// spout has fully drained.
	gen        uint64
	drainedGen uint64

	// owed are the markers and rounds handed to the slot whose answer the
	// spout has not read yet, oldest first: the slot answers in the order
	// it was asked. The spout pops them under owedMu alone, so it never
	// waits for a sender holding mu (lock order: mu, then owedMu).
	// roundSeq numbers the control rounds sent to the slot.
	owedMu   sync.Mutex
	owed     []owedAnswer
	roundSeq uint64
	// lastStats is what the latest stats round reported, stored as the
	// spout pops its answer; a scrape reads it without waiting for
	// owedMu.
	lastStats atomic.Pointer[wire.StatsReply]

	// log is the recovery op log (nil when Recovery is disabled — the
	// slot then keeps the legacy fail-loudly contract).
	log *oplog.Log
}

// slotState is where a worker slot is in its lifecycle
// (docs/ARCHITECTURE.md, "Membership and recovery"). An in-process slot
// is always stateUp.
type slotState uint8

const (
	stateSpare     slotState = iota // a pre-allocated slot no node has claimed
	stateUp                         // the session serves traffic
	stateDown                       // the session failed; recovery redials
	stateReplaying                  // a recovery session replays the op log
	stateClosing                    // the run's shutdown or a decommission reached the slot
	stateFailed                     // the slot is lost for good
	stateGone                       // the slot's match reader has ended
)

var stateNames = [...]string{"spare", "up", "down", "replaying", "closing", "failed", "gone"}

func (st slotState) String() string { return stateNames[st] }

// slotMoves is the lifecycle's transition table: the states a slot may
// move to from each state. docs/ARCHITECTURE.md names the call that makes
// each change.
var slotMoves = [...][]slotState{
	stateSpare:     {stateUp, stateClosing},
	stateUp:        {stateDown, stateFailed, stateClosing},
	stateDown:      {stateReplaying, stateFailed, stateClosing},
	stateReplaying: {stateUp, stateDown, stateClosing},
	stateClosing:   {stateGone},
	stateFailed:    {stateGone},
	stateGone:      nil,
}

// member reports whether a slot in st takes part in routing and load
// decisions: claimed, and neither closing nor gone.
func (st slotState) member() bool {
	return st == stateUp || st == stateDown || st == stateReplaying || st == stateFailed
}

// moveLocked changes the slot's state to `to` when the transition table
// allows it, and reports whether it did. A change wakes every waiter; the
// first change to stateFailed records cause and wakes Drain. Caller holds
// h.mu.
func (h *workerHop) moveLocked(to slotState, cause error) bool {
	if !slices.Contains(slotMoves[h.state], to) {
		return false
	}
	h.state = to
	if to == stateFailed {
		h.cause = fmt.Errorf("core: worker %d: %w: %v", h.task, ErrWorkerUnrecoverable, cause)
		h.lost.add(h.cause)
	}
	h.broadcastLocked()
	return true
}

// isLocked reports whether the slot is in one of states. Caller holds
// h.mu.
func (h *workerHop) isLocked(states ...slotState) bool {
	return slices.Contains(states, h.state)
}

// status returns the slot's state and, once it has failed, why.
func (h *workerHop) status() (slotState, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state, h.cause
}

// broadcastLocked wakes every waiter. Caller holds h.mu.
func (h *workerHop) broadcastLocked() {
	close(h.notify)
	h.notify = make(chan struct{})
}

// lostSlots records the first slot of a run that failed for good: done
// closes then, and err says which and why.
type lostSlots struct {
	once sync.Once
	done chan struct{}
	err  error
}

// add records err unless a lost slot is recorded already.
func (l *lostSlots) add(err error) {
	l.once.Do(func() {
		l.err = err
		close(l.done)
	})
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
		h.lastStats.Store(&sr)
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

// slot returns slot w's state and the channel its next change closes. An
// in-process slot is up, and stays up.
func (s *System) slot(w int) (slotState, <-chan struct{}) {
	h := s.hop(w)
	if h == nil {
		return stateUp, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state, h.notify
}

// slotUp reports whether slot w serves traffic.
func (s *System) slotUp(w int) bool {
	st, _ := s.slot(w)
	return st == stateUp
}

// awaitUp waits until slot w is up, and reports whether it is: false once
// the slot is closing (as every hop is once the run ends), failed or gone,
// and after wire.DefaultControlTimeout.
func (s *System) awaitUp(w int) bool {
	timeout := time.NewTimer(wire.DefaultControlTimeout)
	defer timeout.Stop()
	for {
		st, next := s.slot(w)
		switch st {
		case stateUp:
			return true
		case stateClosing, stateFailed, stateGone:
			return false
		}
		select {
		case <-next:
		case <-timeout.C:
			return false
		}
	}
}

// untilUp runs try, and runs it again each time it fails because slot w
// had no session up and w comes back up (awaitUp).
func (s *System) untilUp(w int, try func() error) error {
	err := try()
	for errors.Is(err, errSlotNotUp) && s.awaitUp(w) {
		err = try()
	}
	return err
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
		h := &workerHop{task: task, notify: make(chan struct{}), lost: &s.lost}
		if s.cfg.Recovery.Enabled {
			h.log = oplog.New()
		}
		s.board.track(task)
		s.hops[task] = h
		return h
	}
	for task, cl := range s.cfg.RemoteWorkers {
		h := newHop(task)
		h.tr, h.gen = cl, 1
		h.addr, h.hello = cl.Addr(), cl.Hello()
		h.moveLocked(stateUp, nil) // no other goroutine sees h yet
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

// members lists the member slots (slotState.member): every in-process
// slot, and each claimed hop that is neither closing nor gone.
func (s *System) members() []int {
	out := make([]int, 0, s.totalSlots())
	for w := range s.totalSlots() {
		if st, _ := s.slot(w); st.member() {
			out = append(out, w)
		}
	}
	return out
}

// fanOut sends a round carrying req to every member slot, all before any
// is awaited. With each, the rounds ask for replies, and each is handed
// every round in turn to await; without, they are not answered.
func (s *System) fanOut(req wire.Frame, each func(c *ctrlRound)) {
	var rounds []*ctrlRound
	for _, w := range s.members() {
		rounds = append(rounds, s.send(newRound(w, req, each != nil)))
	}
	if each != nil {
		for _, c := range rounds {
			each(c)
		}
	}
}

// balance returns the balance factor of the per-slot vals over the member
// slots, and the least and the most loaded member (-1 with no members).
// Idle spares and retired slots read zero load, and counting them would
// pin the factor above θ on a balanced cluster.
func (s *System) balance(vals []float64) (factor float64, lo, hi int) {
	members := s.members()
	loads := make([]float64, len(members))
	for i, w := range members {
		loads[i] = vals[w]
	}
	if len(loads) == 0 {
		return 1, -1, -1
	}
	lo, hi = load.ArgMinMax(loads)
	return load.BalanceFactor(loads), members[lo], members[hi]
}

// hopFailed reports that session gen of h failed. The session's transport
// is closed at once, so the slot's match spout unblocks from its socket
// read, and a slot that was serving it goes down and recovers, or, without
// an op log or an address to redial, fails.
func (s *System) hopFailed(h *workerHop, gen uint64, cause error) {
	h.mu.Lock()
	if h.gen != gen {
		h.mu.Unlock()
		return
	}
	tr, to := h.tr, stateFailed
	recoverable := h.log != nil && h.addr != ""
	if recoverable {
		to = stateDown
	}
	moved := h.moveLocked(to, cause)
	h.mu.Unlock()
	if tr != nil {
		tr.Close()
	}
	if !moved {
		return
	}
	s.log.Warn("remote worker down", "worker", h.task, "gen", gen, "err", cause)
	if recoverable {
		go s.recoverWorker(h, gen)
	}
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
		err = fmt.Errorf("redialling %s: %w", addr, err)
		h.mu.Lock()
		h.moveLocked(stateFailed, err)
		h.mu.Unlock()
		s.log.Error("remote worker unrecoverable", "worker", h.task, "err", err)
		return
	}
	for {
		h.mu.Lock()
		if !h.isLocked(stateDown) { // closing too once the run ends
			h.mu.Unlock()
			cl.Close()
			return
		}
		if h.drainedGen >= failedGen {
			break // h.mu still held
		}
		ch := h.notify
		h.mu.Unlock()
		<-ch
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
	h.moveLocked(stateReplaying, nil)
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
	// are sent under the hop lock, then the slot is up; the bolt logs and
	// sends under the same lock, so it sends only what it logs after.
	h.mu.Lock()
	if h.gen != newGen || !h.isLocked(stateReplaying) {
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
	h.moveLocked(stateUp, nil)
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
	if !s.slotUp(h.task) {
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
	s.adjustMu.Lock()
	defer s.adjustMu.Unlock()
	var h *workerHop
	for w := s.cfg.Workers; w < s.totalSlots() && h == nil; w++ {
		if st, _ := s.slot(w); st == stateSpare {
			h = s.hops[w]
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
	if !h.moveLocked(stateUp, nil) {
		h.mu.Unlock()
		cl.Close()
		return -1, fmt.Errorf("core: adding worker at %s: the run is closing", addr)
	}
	h.addr, h.hello, h.tr, h.gen = addr, hello, cl, 1
	h.mu.Unlock()
	s.log.Info("worker joined", "worker", h.task, "addr", addr)
	if s.canAdjust() {
		s.rebalanceOnto(h.task)
	}
	return h.task, nil
}

// rebalanceOnto moves roughly an even share of the cluster's cell load
// onto a just-joined slot: gather every migratable cell across the
// other member slots, sort heaviest-first, and migrate greedily until
// the new slot holds ~1/n of the total. Caller holds adjustMu.
func (s *System) rebalanceOnto(task int) {
	members := s.members()
	if len(members) <= 1 {
		return
	}
	type ownedCell struct {
		owner int
		cell  migrate.Cell
	}
	var cands []ownedCell
	var total float64
	for _, w := range members {
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
	target := total / float64(len(members))
	sort.Slice(cands, func(i, j int) bool { return cands[i].cell.Load > cands[j].cell.Load })
	// From -1: many sources, a join rebalance, not a pairwise move.
	m := MigrationStat{From: -1, To: task}
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
// cell it serves is migrated to the remaining member slots, one cut per
// cell like an adjustment's, in one pass. A destination whose move fails
// is pruned, and the cell is retried on the next live target. Then the
// slot's remaining matches and deltas are flushed by one round in its
// stream, and the hop is half-closed so the node ends the session with a
// clean Goodbye. The slot leaves the member set for good.
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
	if !s.slotUp(task) {
		return fmt.Errorf("core: worker %d is not up", task)
	}
	targets := slices.DeleteFunc(s.members(), func(w int) bool { return w == task })
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
			if !s.slotUp(task) {
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
	h.moveLocked(stateClosing, nil)
	tr := h.tr
	h.mu.Unlock()
	// The round above delivered (and applied) every delta the node
	// emitted; whatever net contribution remains tracked for the slot is
	// state the migrations already moved elsewhere — drop it so the
	// retired source cannot pin stale top-k candidates.
	s.board.dropSource(task)
	s.log.Info("worker decommissioned", "worker", task)
	return tr.CloseSend()
}
