package core

import (
	"context"
	"sort"
	"sync"
	"time"

	"ps2stream/internal/window"
	"ps2stream/internal/wire"
)

// TopKUpdate is one global top-k membership change for a sliding-window
// top-k subscription, delivered through Config.OnTopK.
type TopKUpdate struct {
	QueryID    uint64
	Subscriber uint64
	MsgID      uint64
	// Score is the undecayed relevance the message had for the
	// subscription (text × proximity, in (0, 1]).
	Score float64
	// Entered is true when the message entered the subscription's global
	// top-k, false when it left (displaced by a better message, expired
	// out of the window, or unsubscribed).
	Entered bool
}

// topkBoard is the global reconciler for top-k subscriptions. Each worker
// maintains a local top-k over its partition of the object stream; the
// board merges the worker-local memberships (reference-counted, because a
// subscription replicated across workers or mid-migration contributes one
// membership per holder) into the subscription's global top-k and emits an
// update only when global membership changes. The union of the local
// top-ks always contains the global top-k, since a globally top-k message
// is necessarily top-k within its own partition.
//
// The board never reads worker state, and every delta reaches it at its
// slot's stream position: each slot's stream consumer — an in-process
// slot's bolt, a remote slot's spout — hands it the slot's deltas in the
// order the engine produced them, and a migration applies a removing
// extraction's deltas while the source is held at its cut (handOff). A
// slot whose engine can
// restart under a new session (every out-of-process slot) is tracked:
// ApplyFrom additionally keeps the slot's net
// contributions under the session's fencing epoch. A delta batch below
// the slot's highest seen epoch is a stale session's replay and is
// dropped; a batch above it first retracts everything the slot
// contributed under the old epoch — the recovering node rebuilt its
// window from the coordinator's replay, so the old session's memberships
// no longer exist anywhere — and only then applies. That pair of rules is
// what keeps TopKSet exact across kill-9 recovery. An in-process slot
// never restarts and needs no ledger.
type topkBoard struct {
	mu      sync.Mutex
	deliver func(TopKUpdate)
	qs      map[uint64]*boardQuery
	// live is the registry of top-k subscriptions currently routed: the
	// dispatcher registers an id before its insert fans out and
	// unregister it when the delete routes. Deltas for an id outside the
	// registry — a remote frame racing an Unsubscribe, or a stale
	// replay — are dropped instead of allocating a dead boardQuery.
	live map[uint64]struct{}
	// srcs holds the ledger of every tracked slot: its net membership
	// contributions by session epoch (see ApplyFrom).
	srcs map[int]*boardSrc
}

// boardSrc is one tracked worker slot's contribution ledger: the session
// epoch its deltas were produced under and, per query and message, the
// net reference count it has contributed to the candidate union.
type boardSrc struct {
	epoch uint64
	refs  map[uint64]map[uint64]int
}

type boardQuery struct {
	k          int
	subscriber uint64
	// cand is the union of worker-local top-k memberships.
	cand map[uint64]*boardCand
	// top is the delivered global top-k: message id → relevance (kept so
	// a Left update can report the score after the candidate is gone).
	top map[uint64]float64
}

type boardCand struct {
	rank, rel float64
	refs      int
}

func newTopKBoard(deliver func(TopKUpdate)) *topkBoard {
	return &topkBoard{
		deliver: deliver,
		qs:      make(map[uint64]*boardQuery),
		live:    make(map[uint64]struct{}),
		srcs:    make(map[int]*boardSrc),
	}
}

// register adds a top-k subscription to the live registry. The
// dispatcher calls it before the insert fans out to workers, so every
// delta a worker can produce for the id postdates its registration.
func (b *topkBoard) register(qid uint64) {
	b.mu.Lock()
	b.live[qid] = struct{}{}
	b.mu.Unlock()
}

// unregister retires a subscription when its delete routes: the
// delivered global set is retracted immediately (departures in
// ascending message-id order, as rebalance would emit them) and every
// later delta for the id — local retractions already in flight, or a
// remote frame racing the Unsubscribe — is dropped at the door instead
// of reviving a dead boardQuery. No-op for ids never registered
// (boolean subscriptions).
func (b *topkBoard) unregister(qid uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.live[qid]; !ok {
		return
	}
	delete(b.live, qid)
	for _, src := range b.srcs {
		delete(src.refs, qid)
	}
	bq := b.qs[qid]
	if bq == nil {
		return
	}
	delete(b.qs, qid)
	if b.deliver == nil || len(bq.top) == 0 {
		return
	}
	ids := make([]uint64, 0, len(bq.top))
	for id := range bq.top {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		b.deliver(TopKUpdate{QueryID: qid, Subscriber: bq.subscriber, MsgID: id, Score: bq.top[id]})
	}
}

// track gives slot task a contribution ledger; call it once, before the
// slot's first delta, for every slot whose sessions can be superseded.
func (b *topkBoard) track(task int) {
	b.mu.Lock()
	b.srcs[task] = &boardSrc{refs: make(map[uint64]map[uint64]int)}
	b.mu.Unlock()
}

// ApplyFrom merges a delta batch produced by worker slot task under
// session epoch and delivers the resulting global membership changes. A
// batch is applied atomically: deltas that cancel out (an entry handed
// from one worker to another during migration appears as a Left plus an
// Entered) produce no user-visible update. For a tracked slot, batches
// below the slot's highest
// seen epoch are stale (a superseded session's frames still in flight,
// or a replay re-emitting history) and are dropped whole; a higher epoch
// first retracts the slot's previous contributions (the node's window
// state was rebuilt from scratch under the new session) before applying.
// Call with an empty batch to bump the epoch eagerly — recovery does, so
// a slot whose replay produces no deltas still sheds its dead session's
// memberships. An untracked slot's epoch is ignored.
func (b *topkBoard) ApplyFrom(task int, epoch uint64, ds []window.Delta) {
	b.mu.Lock()
	defer b.mu.Unlock()
	src := b.srcs[task]
	if src == nil && len(ds) == 0 {
		return
	}
	if src != nil && epoch < src.epoch {
		return
	}
	touched := make(map[uint64]*boardQuery)
	if src != nil && epoch > src.epoch {
		b.retractLocked(src, touched)
		src.epoch = epoch
	}
	b.applyLocked(ds, src, touched)
	b.settleLocked(touched)
}

// applyAck applies the deltas an InstallAck or AdvanceAck from slot task
// carries; the slot's consumer calls it before it completes the round.
func (b *topkBoard) applyAck(task int, reply wire.Frame) {
	switch r := reply.(type) {
	case wire.InstallAck:
		b.ApplyFrom(task, r.Epoch, r.Deltas)
	case wire.AdvanceAck:
		b.ApplyFrom(task, r.Epoch, r.Deltas)
	}
}

// dropSource retracts everything a tracked slot has contributed: the
// slot is leaving the cluster for good (decommission), not recovering
// under a new epoch.
func (b *topkBoard) dropSource(task int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	src := b.srcs[task]
	if src == nil {
		return
	}
	touched := make(map[uint64]*boardQuery)
	b.retractLocked(src, touched)
	b.settleLocked(touched)
}

// applyLocked folds deltas into the candidate unions, tracking net
// contributions in src when the batch came from a tracked slot. Deltas
// for unregistered queries are dropped. Caller holds b.mu.
func (b *topkBoard) applyLocked(ds []window.Delta, src *boardSrc, touched map[uint64]*boardQuery) {
	for _, d := range ds {
		if _, ok := b.live[d.QueryID]; !ok {
			continue
		}
		bq := b.qs[d.QueryID]
		if bq == nil {
			bq = &boardQuery{
				cand: make(map[uint64]*boardCand),
				top:  make(map[uint64]float64),
			}
			b.qs[d.QueryID] = bq
		}
		bq.k = d.K
		bq.subscriber = d.Subscriber
		// Reference counts may go transiently negative if a Left
		// reaches the board before its Entered. No slot's stream does
		// that (each one's deltas arrive in engine order, and a
		// migration applies the extraction's while the source is
		// held), but the board tolerates it: such a Left records a
		// debt that the deferred Entered settles. Candidates only count
		// while refs > 0.
		c := bq.cand[d.MsgID]
		if c == nil {
			c = &boardCand{rank: d.Rank, rel: d.Rel}
			bq.cand[d.MsgID] = c
		}
		if d.Entered {
			c.refs++
		} else {
			c.refs--
		}
		if c.refs == 0 {
			delete(bq.cand, d.MsgID)
		}
		if src != nil {
			qr := src.refs[d.QueryID]
			if qr == nil {
				qr = make(map[uint64]int)
				src.refs[d.QueryID] = qr
			}
			if d.Entered {
				qr[d.MsgID]++
			} else {
				qr[d.MsgID]--
			}
			if qr[d.MsgID] == 0 {
				delete(qr, d.MsgID)
				if len(qr) == 0 {
					delete(src.refs, d.QueryID)
				}
			}
		}
		touched[d.QueryID] = bq
	}
}

// retractLocked removes a source's net contributions from the candidate
// unions, collecting the affected queries into touched. A net-negative
// contribution whose candidate is already gone is skipped: its settling
// Entered belongs to the dead session and will be dropped by the epoch
// fence, so there is no debt left to undo. Caller holds b.mu.
func (b *topkBoard) retractLocked(src *boardSrc, touched map[uint64]*boardQuery) {
	for qid, msgs := range src.refs {
		bq := b.qs[qid]
		if bq == nil {
			continue
		}
		for msg, n := range msgs {
			c := bq.cand[msg]
			if c == nil {
				continue
			}
			c.refs -= n
			if c.refs == 0 {
				delete(bq.cand, msg)
			}
		}
		touched[qid] = bq
	}
	src.refs = make(map[uint64]map[uint64]int)
}

// settleLocked rebalances every touched query and drops the ones that
// hold nothing. The boardQuery stays reachable through the live
// registry: a later delta for a still-registered id simply reallocates
// it. Caller holds b.mu.
func (b *topkBoard) settleLocked(touched map[uint64]*boardQuery) {
	for qid, bq := range touched {
		b.rebalance(qid, bq)
		if len(bq.cand) == 0 && len(bq.top) == 0 {
			delete(b.qs, qid)
		}
	}
}

// rebalance recomputes the query's global top-k from its candidate union
// and delivers the diff: departures first, then arrivals, each in
// ascending message-id order for determinism.
func (b *topkBoard) rebalance(qid uint64, bq *boardQuery) {
	type scored struct {
		id        uint64
		rank, rel float64
	}
	cands := make([]scored, 0, len(bq.cand))
	for id, c := range bq.cand {
		if c.refs <= 0 {
			continue // unsettled out-of-order debt, not a live candidate
		}
		cands = append(cands, scored{id: id, rank: c.rank, rel: c.rel})
	}
	// With a single holding worker the candidate union never exceeds k,
	// so the common case needs no ordering at all — everything is in.
	if len(cands) > bq.k {
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].rank != cands[j].rank {
				return cands[i].rank > cands[j].rank
			}
			return cands[i].id > cands[j].id
		})
		cands = cands[:bq.k]
	}
	want := make(map[uint64]float64, len(cands))
	for _, c := range cands {
		want[c.id] = c.rel
	}
	var left, entered []scored
	for id, rel := range bq.top {
		if _, keep := want[id]; !keep {
			left = append(left, scored{id: id, rel: rel})
		}
	}
	for _, c := range cands {
		if _, had := bq.top[c.id]; !had {
			entered = append(entered, c)
		}
	}
	sort.Slice(left, func(i, j int) bool { return left[i].id < left[j].id })
	sort.Slice(entered, func(i, j int) bool { return entered[i].id < entered[j].id })
	bq.top = want
	if b.deliver == nil {
		return
	}
	for _, s := range left {
		b.deliver(TopKUpdate{QueryID: qid, Subscriber: bq.subscriber, MsgID: s.id, Score: s.rel})
	}
	for _, s := range entered {
		b.deliver(TopKUpdate{QueryID: qid, Subscriber: bq.subscriber, MsgID: s.id, Score: s.rel, Entered: true})
	}
}

// set returns the query's current global top-k ids, ascending.
func (b *topkBoard) set(qid uint64) []uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	bq := b.qs[qid]
	if bq == nil {
		return nil
	}
	out := make([]uint64, 0, len(bq.top))
	for id := range bq.top {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TopKSet returns the subscription's current global top-k message ids in
// ascending order (tests, examples; empty when the subscription holds
// nothing).
func (s *System) TopKSet(queryID uint64) []uint64 { return s.board.set(queryID) }

// windowLoop drives eager window expiry: every WindowTick it sweeps every
// worker's window store, expiring entries out of the subscriptions'
// skybands, whose next entries move up into the top-k. Subscriptions
// therefore shed entries even when no new objects arrive.
func (s *System) windowLoop(ctx context.Context) {
	ticker := time.NewTicker(s.cfg.WindowTick)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			s.AdvanceWindows()
		}
	}
}

// AdvanceWindows runs one synchronous expiry sweep at the current clock
// reading. The periodic windowLoop calls it; tests with a fake clock call
// it directly after advancing time.
//
// Expiry is a fenced cluster-wide round: every member slot serves one
// AdvanceWindow carrying the coordinator's clock (the single clock
// domain the windows slide in) in its stream, after every operation
// submitted before the call, and its eviction deltas reach the board
// before the round returns. The rounds are asked for all at once and
// awaited in turn. A slot that is down or mid-replay fails the round fast
// and is skipped — its recovery replay rebuilds the window against the
// coordinator's current clock anyway.
func (s *System) AdvanceWindows() {
	s.fanOut(wire.AdvanceWindow{Now: s.now()}, func(c *ctrlRound) {
		if _, err := s.await(c); err != nil {
			s.log.Debug("advance window round failed", "worker", c.slot, "err", err)
		}
	})
}
