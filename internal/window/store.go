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

// Store holds one worker's share of all sliding-window top-k state: a
// Skyband per registered top-k subscription. Entries are located in the
// cells of the worker's GI2 grid, so window state migrates in the same
// cell units as the queries.
//
// The Store is not safe for concurrent use; internal/core guards it with
// the owning worker's mutex.
type Store struct {
	g    *grid.Grid
	subs map[uint64]*subState
}

type subState struct {
	q    *model.Query
	band *Skyband
	// score is the subscription's compiled DecayScorer.
	score func(Entry) Score
}

// NewStore returns an empty store over the grid geometry. Entries are
// ranked by DecayScorer.
func NewStore(g *grid.Grid) *Store {
	return &Store{g: g, subs: make(map[uint64]*subState)}
}

// HasSub reports whether the subscription id is registered.
func (st *Store) HasSub(id uint64) bool {
	_, ok := st.subs[id]
	return ok
}

// AddSub registers a top-k subscription (q.IsTopK must hold) with an
// empty band: it ranks the objects offered after it. Registering an
// existing id is a no-op.
func (st *Store) AddSub(q *model.Query) {
	if q.IsTopK() && !st.HasSub(q.ID) {
		st.subs[q.ID] = &subState{q: q, band: NewSkyband(q.TopK), score: DecayScorer{}.Compile(q)}
	}
}

// RemoveSub drops a subscription, emitting a Left delta per top-k entry.
func (st *Store) RemoveSub(id uint64) []Delta {
	ss, ok := st.subs[id]
	if !ok {
		return nil
	}
	delete(st.subs, id)
	var ds []Delta
	for _, h := range ss.band.top() {
		ds = append(ds, st.delta(ss, h.Ranked, false))
	}
	return ds
}

// Insert offers an entry that matched the registered subscription id to
// its band, appending the membership changes to dst (a worker reuses one
// buffer across a batch). fresh marks a publication this worker sees for
// the first time, which counts against the entries it dominates; an
// entry adopted from a band (a migration's, or a recovery's base) may
// have counted here before, so it does not. An unregistered id, or an entry
// already outside the subscription's window at now, changes nothing.
func (st *Store) Insert(dst []Delta, id uint64, e Entry, now time.Time, fresh bool) []Delta {
	ss, ok := st.subs[id]
	if !ok || !e.Live(now.Add(-ss.q.Window)) {
		return dst
	}
	ss.band.Insert(Ranked{E: e, S: ss.score(e)}, fresh, func(r Ranked, entered bool) {
		dst = append(dst, st.delta(ss, r, entered))
	})
	return dst
}

// AdoptEntries inserts entries another worker held for the subscription
// (a migration hand-off). Expired and already-held entries are skipped.
func (st *Store) AdoptEntries(dst []Delta, id uint64, entries []Entry, now time.Time) []Delta {
	for _, e := range entries {
		dst = st.Insert(dst, id, e, now, false)
	}
	return dst
}

// Advance runs the eager expiry sweep at time now: expired entries leave
// every band (Left deltas for top-k members), and the held entries that
// move up into a top-k report Entered.
func (st *Store) Advance(now time.Time) []Delta {
	var ds []Delta
	for _, ss := range st.subs {
		cutoff := now.Add(-ss.q.Window)
		ds = st.remove(ds, ss, func(e Entry) bool { return !e.Live(cutoff) })
	}
	return ds
}

// DropCell removes the subscription's entries located in the cell — the
// cell's new owner adopted them — and returns the membership changes.
func (st *Store) DropCell(id uint64, cell int) []Delta {
	ss, ok := st.subs[id]
	if !ok {
		return nil
	}
	return st.remove(nil, ss, func(e Entry) bool { return st.g.CellOf(e.Loc) == cell })
}

func (st *Store) remove(dst []Delta, ss *subState, drop func(Entry) bool) []Delta {
	ss.band.RemoveIf(drop, func(r Ranked, entered bool) {
		dst = append(dst, st.delta(ss, r, entered))
	})
	return dst
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

// SubEntries copies the subscription's held entries located in the cell,
// or all of them when cell is negative, in rank order (migration
// hand-off).
func (st *Store) SubEntries(id uint64, cell int) []Entry {
	ss, ok := st.subs[id]
	if !ok {
		return nil
	}
	var out []Entry
	for _, h := range ss.band.es {
		if cell < 0 || st.g.CellOf(h.E.Loc) == cell {
			out = append(out, h.E)
		}
	}
	return out
}

// TopKSet returns the message ids in the subscription's top-k, sorted
// ascending (tests).
func (st *Store) TopKSet(id uint64) []uint64 {
	ss, ok := st.subs[id]
	if !ok {
		return nil
	}
	out := make([]uint64, 0, ss.band.k)
	for _, h := range ss.band.top() {
		out = append(out, h.E.MsgID)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Bands appends each subscription's band length to dst (benchmarks).
func (st *Store) Bands(dst []int) []int {
	for _, ss := range st.subs {
		dst = append(dst, ss.band.Len())
	}
	return dst
}

// Footprint estimates resident bytes (worker-memory accounting): a
// subscription's state plus 112 bytes per band slot.
func (st *Store) Footprint() int64 {
	var b int64
	for _, ss := range st.subs {
		b += 96 + int64(cap(ss.band.es))*112
	}
	return b
}
