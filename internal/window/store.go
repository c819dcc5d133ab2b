package window

import (
	"sort"
	"time"

	"ps2stream/internal/index/grid"
	"ps2stream/internal/model"
)

// Delta reports one worker-local top-k membership change. The global
// reconciler in internal/core reference-counts deltas per (query, message)
// across workers — a query replicated on several workers (its region spans
// cells of different owners, or a migration hand-off is in flight)
// contributes one membership per worker, and the message leaves the global
// candidate set only when every worker-local membership is gone.
type Delta struct {
	QueryID    uint64
	Subscriber uint64
	MsgID      uint64
	// K is the subscription's k (carried so the reconciler can size the
	// global set without a second lookup).
	K int
	// Rank and Rel are the entry's score for the query (Score fields).
	Rank, Rel float64
	// Entered is true when the entry gained a slot in this worker's local
	// top-k, false when it lost it.
	Entered bool
}

// Store holds one worker's share of all sliding-window top-k state: a ring
// of recent publications per occupied grid cell (the same grid geometry as
// the worker's GI2 index, so window state migrates in the same cell units)
// and a TopK heap per registered top-k subscription.
//
// The Store is not safe for concurrent use; internal/core guards it with
// the owning worker's mutex.
type Store struct {
	g     *grid.Grid
	rings map[int]*Ring
	subs  map[uint64]*subState
	// maxW is the longest window over live subscriptions; rings retain
	// entries this long.
	maxW time.Duration
}

type subState struct {
	q  *model.Query
	tk *TopK
	// score is the subscription's compiled DecayScorer.
	score func(Entry) Score
}

// NewStore returns an empty store over the grid geometry. Entries are
// ranked by DecayScorer and each cell's ring holds DefaultRingCap.
func NewStore(g *grid.Grid) *Store {
	return &Store{
		g:     g,
		rings: make(map[int]*Ring),
		subs:  make(map[uint64]*subState),
	}
}

// SubCount returns the number of registered top-k subscriptions.
func (st *Store) SubCount() int { return len(st.subs) }

// HasSub reports whether the subscription id is registered.
func (st *Store) HasSub(id uint64) bool {
	_, ok := st.subs[id]
	return ok
}

// MaxWindow returns the longest window over registered subscriptions.
func (st *Store) MaxWindow() time.Duration { return st.maxW }

// AddSub registers a top-k subscription (q.IsTopK must hold) and
// immediately fills its heap from the buffered window, so a subscription
// arriving mid-stream starts with the k best already-published entries.
// Registering an existing id is a no-op.
func (st *Store) AddSub(q *model.Query, now time.Time) []Delta {
	if !q.IsTopK() || st.HasSub(q.ID) {
		return nil
	}
	ss := &subState{q: q, tk: NewTopK(q.TopK), score: DecayScorer{}.Compile(q)}
	st.subs[q.ID] = ss
	if q.Window > st.maxW {
		st.maxW = q.Window
	}
	return st.refill(ss, now, nil)
}

// RemoveSub drops a subscription, emitting a Left delta per held entry.
func (st *Store) RemoveSub(id uint64) []Delta {
	ss, ok := st.subs[id]
	if !ok {
		return nil
	}
	delete(st.subs, id)
	st.recomputeMaxW()
	var ds []Delta
	for _, r := range ss.tk.Entries() {
		ds = append(ds, st.delta(ss, r, false))
	}
	return ds
}

func (st *Store) recomputeMaxW() {
	st.maxW = 0
	for _, ss := range st.subs {
		if ss.q.Window > st.maxW {
			st.maxW = ss.q.Window
		}
	}
}

// Observe buffers a publication in its cell's ring so it can later repair
// a top-k when a better entry expires. Call it for every published object
// once any top-k subscription is registered, whether or not it matched.
func (st *Store) Observe(e Entry) {
	cell := st.g.CellOf(e.Loc)
	r, ok := st.rings[cell]
	if !ok {
		r = NewRing(DefaultRingCap)
		st.rings[cell] = r
	}
	r.Add(e, e.At.Add(-st.maxW))
}

// Offer proposes a freshly published, already-matched entry to the
// subscription's top-k. The subscription is registered on first use (a
// migrated query can reach a worker outside the normal insert path).
func (st *Store) Offer(q *model.Query, e Entry, now time.Time) []Delta {
	return st.OfferInto(nil, q, e, now)
}

// OfferInto is Offer with caller-owned delta accumulation: resulting
// deltas are appended to dst and the extended slice is returned, so a
// worker processing a whole batch of publications reuses one scratch
// buffer across offers instead of allocating a slice per matched entry.
func (st *Store) OfferInto(dst []Delta, q *model.Query, e Entry, now time.Time) []Delta {
	ss, ok := st.subs[q.ID]
	if !ok {
		dst = append(dst, st.AddSub(q, now)...)
		ss = st.subs[q.ID]
		if ss == nil || !e.Live(now.Add(-q.Window)) {
			return dst
		}
		// The refill above already saw every buffered entry; e is new.
		return st.offerInto(dst, ss, e)
	}
	if !e.Live(now.Add(-ss.q.Window)) {
		return dst
	}
	return st.offerInto(dst, ss, e)
}

func (st *Store) offerInto(dst []Delta, ss *subState, e Entry) []Delta {
	r := Ranked{E: e, S: ss.score(e)}
	entered, evicted := ss.tk.Offer(r)
	if !entered {
		return dst
	}
	dst = append(dst, st.delta(ss, r, true))
	if evicted != nil {
		dst = append(dst, st.delta(ss, *evicted, false))
	}
	return dst
}

// Advance runs the eager expiry sweep at time now: rings are compacted,
// expired entries fall out of every top-k (Left deltas), and depleted
// top-ks are repaired from the surviving window contents (Entered deltas).
func (st *Store) Advance(now time.Time) []Delta {
	for cell, r := range st.rings {
		r.ExpireBefore(now.Add(-st.maxW))
		if r.Len() == 0 {
			delete(st.rings, cell)
		}
	}
	var ds []Delta
	for _, ss := range st.subs {
		expired := ss.tk.ExpireBefore(now.Add(-ss.q.Window))
		for _, r := range expired {
			ds = append(ds, st.delta(ss, r, false))
		}
		if len(expired) > 0 {
			ds = append(ds, st.refill(ss, now, nil)...)
		}
	}
	return ds
}

// refill tops the subscription's heap back up to k from the buffered
// window, skipping entries already held and ids in exclude. Candidates are
// ranked with the same scorer as live offers, so a repaired top-k is
// exactly what it would have been had the evicted entries never existed.
func (st *Store) refill(ss *subState, now time.Time, exclude map[uint64]struct{}) []Delta {
	need := ss.q.TopK - ss.tk.Len()
	if need <= 0 {
		return nil
	}
	cutoff := now.Add(-ss.q.Window)
	var cands []Ranked
	seen := make(map[uint64]struct{})
	st.g.VisitOverlapping(ss.q.Region, func(cell int) {
		r, ok := st.rings[cell]
		if !ok {
			return
		}
		r.Each(cutoff, func(e Entry) bool {
			if _, dup := seen[e.MsgID]; dup {
				return true
			}
			if ss.tk.Contains(e.MsgID) {
				return true
			}
			if exclude != nil {
				if _, skip := exclude[e.MsgID]; skip {
					return true
				}
			}
			if !ss.q.Region.Contains(e.Loc) || !ss.q.Expr.MatchesSlice(e.Terms) {
				return true
			}
			seen[e.MsgID] = struct{}{}
			cands = append(cands, Ranked{E: e, S: ss.score(e)})
			return true
		})
	})
	sort.Slice(cands, func(i, j int) bool {
		return cands[i].S.Better(cands[j].S, cands[i].E.MsgID, cands[j].E.MsgID)
	})
	var ds []Delta
	for _, c := range cands {
		entered, evicted := ss.tk.Offer(c)
		if !entered {
			break // candidates are sorted; the rest rank lower
		}
		ds = append(ds, st.delta(ss, c, true))
		if evicted != nil {
			// Cannot happen while need > 0, but keep the accounting safe.
			ds = append(ds, st.delta(ss, *evicted, false))
		}
	}
	return ds
}

func (st *Store) delta(ss *subState, r Ranked, entered bool) Delta {
	return Delta{
		QueryID:    ss.q.ID,
		Subscriber: ss.q.Subscriber,
		MsgID:      r.E.MsgID,
		K:          ss.q.TopK,
		Rank:       r.S.Rank,
		Rel:        r.S.Rel,
		Entered:    entered,
	}
}

// --- migration support --------------------------------------------------

// SnapshotCell copies the cell's live window contents: its ring entries
// plus any top-k-held entries located in the cell that the count-bounded
// ring has already dropped. This is the copy-before-flip half of moving a
// gridt cell to another worker.
func (st *Store) SnapshotCell(cell int, now time.Time) []Entry {
	var out []Entry
	seen := make(map[uint64]struct{})
	if r, ok := st.rings[cell]; ok {
		// Everything buffered is snapshotted, regardless of the current
		// retention horizon: the receiver filters on adoption against its
		// own subscriptions, and a hand-off must not silently narrow when
		// the source's subscription set shrinks mid-migration.
		for _, e := range r.Snapshot(time.Time{}) {
			seen[e.MsgID] = struct{}{}
			out = append(out, e)
		}
	}
	for _, ss := range st.subs {
		cutoff := now.Add(-ss.q.Window)
		for _, r := range ss.tk.Entries() {
			if st.g.CellOf(r.E.Loc) != cell || !r.E.Live(cutoff) {
				continue
			}
			if _, dup := seen[r.E.MsgID]; dup {
				continue
			}
			seen[r.E.MsgID] = struct{}{}
			out = append(out, r.E)
		}
	}
	return out
}

// AdoptCell merges entries migrated with a cell into the local window:
// they are buffered in the cell's ring and offered to every local top-k
// subscription they match. Entries already buffered are skipped, as are
// entries older than the local retention horizon (the longest window over
// this store's subscriptions — the same policy Observe applies to fresh
// publications; migrated top-k queries are registered before adoption, so
// their horizon is already in force). With no local top-k subscriptions
// the horizon is zero and nothing is retained.
func (st *Store) AdoptCell(cell int, entries []Entry, now time.Time) []Delta {
	if len(entries) == 0 {
		return nil
	}
	r, ok := st.rings[cell]
	if !ok {
		r = NewRing(DefaultRingCap)
		st.rings[cell] = r
	}
	// One pass over the ring builds the dedup set; per-entry Contains
	// scans would make adopting a full cell quadratic under the worker
	// lock.
	have := make(map[uint64]struct{}, r.Len())
	r.Each(time.Time{}, func(e Entry) bool {
		have[e.MsgID] = struct{}{}
		return true
	})
	var ds []Delta
	for _, e := range entries {
		if _, dup := have[e.MsgID]; dup || !e.Live(now.Add(-st.maxW)) {
			continue
		}
		have[e.MsgID] = struct{}{}
		r.Add(e, e.At.Add(-st.maxW))
		for _, ss := range st.subs {
			if !e.Live(now.Add(-ss.q.Window)) {
				continue
			}
			if !ss.q.Region.Contains(e.Loc) || !ss.q.Expr.MatchesSlice(e.Terms) {
				continue
			}
			ds = st.offerInto(ds, ss, e)
		}
	}
	if r.Len() == 0 {
		delete(st.rings, cell)
	}
	return ds
}

// DropCell releases the worker's window share of a migrated cell: the
// cell's ring is removed and returned (so entries that arrived between the
// migration's copy and the routing flip can be forwarded to the new
// owner), and every subscription's top-k sheds its entries located in the
// cell — the new owner's adopted copy is now responsible for them — then
// repairs itself from the cells this worker still holds.
func (st *Store) DropCell(cell int, now time.Time) ([]Entry, []Delta) {
	var ring []Entry
	seen := make(map[uint64]struct{})
	if r, ok := st.rings[cell]; ok {
		for _, e := range r.Snapshot(time.Time{}) { // see SnapshotCell on the cutoff
			seen[e.MsgID] = struct{}{}
			ring = append(ring, e)
		}
		delete(st.rings, cell)
	}
	var ds []Delta
	for _, ss := range st.subs {
		var dropped map[uint64]struct{}
		for _, r := range ss.tk.Entries() {
			if st.g.CellOf(r.E.Loc) != cell {
				continue
			}
			if removed, ok := ss.tk.Remove(r.E.MsgID); ok {
				ds = append(ds, st.delta(ss, removed, false))
				if dropped == nil {
					dropped = make(map[uint64]struct{})
				}
				dropped[removed.E.MsgID] = struct{}{}
				// Heap-held entries the count-bounded ring already
				// evicted still belong to the cell's window state; hand
				// them off too (SnapshotCell does the same on copy).
				if _, dup := seen[removed.E.MsgID]; !dup {
					seen[removed.E.MsgID] = struct{}{}
					ring = append(ring, removed.E)
				}
			}
		}
		if dropped != nil {
			ds = append(ds, st.refill(ss, now, dropped)...)
		}
	}
	return ring, ds
}

// SubEntries returns copies of the subscription's currently held window
// entries, in unspecified order (global-repartition hand-off: unlike
// cell-granular migration, a whole-subscription relocation carries its
// heap contents rather than cell rings).
func (st *Store) SubEntries(id uint64) []Entry {
	ss, ok := st.subs[id]
	if !ok {
		return nil
	}
	out := make([]Entry, 0, ss.tk.Len())
	for _, r := range ss.tk.Entries() {
		out = append(out, r.E)
	}
	return out
}

// AdoptEntries offers relocated entries to one subscription and buffers
// them in their cells' rings so later refills can see them. Expired and
// already-buffered entries are skipped.
func (st *Store) AdoptEntries(id uint64, entries []Entry, now time.Time) []Delta {
	ss, ok := st.subs[id]
	if !ok {
		return nil
	}
	var ds []Delta
	for _, e := range entries {
		if !e.Live(now.Add(-ss.q.Window)) {
			continue
		}
		cell := st.g.CellOf(e.Loc)
		r, okr := st.rings[cell]
		if !okr {
			r = NewRing(DefaultRingCap)
			st.rings[cell] = r
		}
		if !r.Contains(e.MsgID) { // few entries (≤ k); linear scan is fine
			r.Add(e, e.At.Add(-st.maxW))
		}
		ds = st.offerInto(ds, ss, e)
	}
	return ds
}

// TopKSet returns the message ids currently held for the subscription,
// sorted ascending (tests).
func (st *Store) TopKSet(id uint64) []uint64 {
	ss, ok := st.subs[id]
	if !ok {
		return nil
	}
	out := make([]uint64, 0, ss.tk.Len())
	for _, r := range ss.tk.Entries() {
		out = append(out, r.E.MsgID)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Footprint estimates resident bytes (worker-memory accounting).
func (st *Store) Footprint() int64 {
	var b int64
	for _, r := range st.rings {
		b += int64(cap(r.buf)) * 64
	}
	for _, ss := range st.subs {
		b += int64(ss.tk.Len()) * 80
	}
	return b
}
