package window

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"ps2stream/internal/geo"
	"ps2stream/internal/index/grid"
	"ps2stream/internal/model"
)

var t0 = time.Date(2026, 1, 2, 12, 0, 0, 0, time.UTC)

func entry(id uint64, terms []string, x, y float64, at time.Time) Entry {
	return Entry{MsgID: id, Terms: terms, Loc: geo.Point{X: x, Y: y}, At: at}
}

func TestRingCountBound(t *testing.T) {
	r := NewRing(3)
	cutoff := t0.Add(-time.Hour)
	for i := 1; i <= 5; i++ {
		r.Add(entry(uint64(i), nil, 0, 0, t0.Add(time.Duration(i)*time.Second)), cutoff)
	}
	if r.Len() != 3 {
		t.Fatalf("ring holds %d entries, want 3", r.Len())
	}
	var ids []uint64
	r.Each(cutoff, func(e Entry) bool { ids = append(ids, e.MsgID); return true })
	if len(ids) != 3 || ids[0] != 3 || ids[2] != 5 {
		t.Fatalf("ring kept %v, want oldest-first [3 4 5]", ids)
	}
}

func TestRingLazyAndEagerExpiry(t *testing.T) {
	r := NewRing(10)
	for i := 0; i < 6; i++ {
		r.Add(entry(uint64(i+1), nil, 0, 0, t0.Add(time.Duration(i)*time.Second)), t0.Add(-time.Hour))
	}
	// Lazy: Add trims expired heads against the supplied cutoff.
	r.Add(entry(7, nil, 0, 0, t0.Add(6*time.Second)), t0.Add(2*time.Second))
	if r.Len() != 4 { // entries at t+3..t+6 survive (t+2 is exactly cutoff → expired)
		t.Fatalf("after lazy trim ring holds %d, want 4", r.Len())
	}
	// Eager: ExpireBefore compacts everything at or before the cutoff.
	if removed := r.ExpireBefore(t0.Add(4 * time.Second)); removed != 2 {
		t.Fatalf("eager expiry removed %d, want 2", removed)
	}
	var ids []uint64
	r.Each(time.Time{}, func(e Entry) bool { ids = append(ids, e.MsgID); return true })
	if len(ids) != 2 || ids[0] != 6 || ids[1] != 7 {
		t.Fatalf("survivors %v, want [6 7]", ids)
	}
}

func TestRingExpireOutOfOrder(t *testing.T) {
	r := NewRing(10)
	far := t0.Add(-time.Hour)
	r.Add(entry(1, nil, 0, 0, t0.Add(5*time.Second)), far)
	r.Add(entry(2, nil, 0, 0, t0.Add(1*time.Second)), far) // older arrives later
	r.Add(entry(3, nil, 0, 0, t0.Add(6*time.Second)), far)
	if removed := r.ExpireBefore(t0.Add(3 * time.Second)); removed != 1 {
		t.Fatalf("removed %d, want the out-of-order stale entry only", removed)
	}
	if r.Len() != 2 || r.Contains(2) {
		t.Fatalf("stale entry 2 still buffered")
	}
}

func TestTopKOfferEvictExpire(t *testing.T) {
	tk := NewTopK(2)
	a := Ranked{E: entry(1, nil, 0, 0, t0), S: Score{Rank: 1}}
	b := Ranked{E: entry(2, nil, 0, 0, t0.Add(time.Second)), S: Score{Rank: 2}}
	c := Ranked{E: entry(3, nil, 0, 0, t0.Add(2*time.Second)), S: Score{Rank: 3}}
	low := Ranked{E: entry(4, nil, 0, 0, t0), S: Score{Rank: 0}}

	for _, r := range []Ranked{a, b} {
		if entered, _ := tk.Offer(r); !entered {
			t.Fatalf("offer %d rejected with free capacity", r.E.MsgID)
		}
	}
	if entered, _ := tk.Offer(low); entered {
		t.Fatal("low-ranked offer accepted into a full better heap")
	}
	entered, evicted := tk.Offer(c)
	if !entered || evicted == nil || evicted.E.MsgID != 1 {
		t.Fatalf("offer c: entered=%v evicted=%+v, want eviction of msg 1", entered, evicted)
	}
	if entered, _ := tk.Offer(c); entered {
		t.Fatal("duplicate id re-entered")
	}
	exp := tk.ExpireBefore(t0.Add(1500 * time.Millisecond))
	if len(exp) != 1 || exp[0].E.MsgID != 2 {
		t.Fatalf("expired %v, want msg 2", exp)
	}
	if tk.Len() != 1 || !tk.Contains(3) {
		t.Fatalf("heap should hold only msg 3")
	}
}

// The decay scorer's rank keys must order entries exactly as their decayed
// scores would at any observation time.
func TestDecayScorerOrderPreserving(t *testing.T) {
	q := &model.Query{
		ID: 1, Expr: model.And("a", "b"),
		Region: geo.NewRect(0, 0, 1, 1),
		TopK:   3, Window: time.Minute,
	}
	sc := DecayScorer{}
	// Older but fully relevant vs newer but half relevant.
	old := entry(1, []string{"a", "b"}, 0.5, 0.5, t0)
	fresh := entry(2, []string{"a"}, 0.9, 0.9, t0.Add(20*time.Second))
	so, sf := sc.Score(q, old), sc.Score(q, fresh)
	// Explicit decayed comparison at two observation instants.
	decayed := func(s Score, e Entry, now time.Time) float64 {
		hl := q.Window.Seconds() * DefaultHalfLifeFraction
		age := now.Sub(e.At).Seconds()
		return s.Rel * math.Exp2(-age/hl)
	}
	for _, now := range []time.Time{t0.Add(25 * time.Second), t0.Add(50 * time.Second)} {
		wantOldBetter := decayed(so, old, now) > decayed(sf, fresh, now)
		if gotOldBetter := so.Better(sf, 1, 2); gotOldBetter != wantOldBetter {
			t.Fatalf("rank order disagrees with decayed score order at %v", now)
		}
	}
}

// --- brute-force reference ----------------------------------------------

// BruteTopK is the reference implementation: the k best live, matching
// entries of the window, ranked with the same scorer.
func bruteTopK(q *model.Query, all []Entry, now time.Time, sc DecayScorer) []uint64 {
	cutoff := now.Add(-q.Window)
	type cand struct {
		id uint64
		s  Score
	}
	var cands []cand
	seen := make(map[uint64]bool)
	for _, e := range all {
		if !e.Live(cutoff) || seen[e.MsgID] {
			continue
		}
		if !q.Region.Contains(e.Loc) || !q.Expr.MatchesSlice(e.Terms) {
			continue
		}
		seen[e.MsgID] = true
		cands = append(cands, cand{id: e.MsgID, s: sc.Score(q, e)})
	}
	sort.Slice(cands, func(i, j int) bool {
		return cands[i].s.Better(cands[j].s, cands[i].id, cands[j].id)
	})
	if len(cands) > q.TopK {
		cands = cands[:q.TopK]
	}
	ids := make([]uint64, 0, len(cands))
	for _, c := range cands {
		ids = append(ids, c.id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The store must track the brute-force top-k through interleaved
// publications and expiry sweeps.
func TestStoreMatchesBruteForce(t *testing.T) {
	bounds := geo.NewRect(0, 0, 10, 10)
	g := grid.New(bounds, 8, 8)
	st := NewStore(g)
	q := &model.Query{
		ID: 7, Expr: model.Or("x", "y"),
		Region: geo.NewRect(2, 2, 8, 8),
		TopK:   5, Window: 30 * time.Second,
	}
	now := t0
	st.AddSub(q, now)

	rng := rand.New(rand.NewSource(42))
	vocab := []string{"x", "y", "z", "w"}
	var published []Entry
	for i := 1; i <= 400; i++ {
		now = now.Add(time.Duration(rng.Intn(900)) * time.Millisecond)
		terms := []string{vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]}
		e := entry(uint64(i), terms, rng.Float64()*10, rng.Float64()*10, now)
		published = append(published, e)
		obj := &model.Object{ID: e.MsgID, Terms: e.Terms, Loc: e.Loc}
		if q.Matches(obj) {
			st.Offer(q, e, now)
		}
		st.Observe(e)
		if i%37 == 0 {
			st.Advance(now)
		}
		if i%20 == 0 {
			st.Advance(now) // expiry must run before comparing sets
			got := st.TopKSet(q.ID)
			want := bruteTopK(q, published, now, DecayScorer{})
			if !equalIDs(got, want) {
				t.Fatalf("step %d: store top-k %v, brute force %v", i, got, want)
			}
		}
	}
	// Let everything expire.
	now = now.Add(time.Minute)
	st.Advance(now)
	if got := st.TopKSet(q.ID); len(got) != 0 {
		t.Fatalf("entries survived past the window: %v", got)
	}
}

// Unsubscribing releases every held entry exactly once.
func TestStoreRemoveSubDeltas(t *testing.T) {
	g := grid.New(geo.NewRect(0, 0, 10, 10), 4, 4)
	st := NewStore(g)
	q := &model.Query{ID: 1, Expr: model.And("x"), Region: geo.NewRect(0, 0, 10, 10), TopK: 3, Window: time.Minute}
	st.AddSub(q, t0)
	for i := 1; i <= 3; i++ {
		e := entry(uint64(i), []string{"x"}, 1, 1, t0.Add(time.Duration(i)*time.Second))
		st.Offer(q, e, e.At)
		st.Observe(e)
	}
	ds := st.RemoveSub(q.ID)
	if len(ds) != 3 {
		t.Fatalf("RemoveSub emitted %d deltas, want 3 Left", len(ds))
	}
	for _, d := range ds {
		if d.Entered {
			t.Fatalf("RemoveSub emitted an Entered delta: %+v", d)
		}
	}
	if st.HasSub(q.ID) || len(st.RemoveSub(q.ID)) != 0 {
		t.Fatal("RemoveSub is not idempotent")
	}
}

// Once the last subscription is gone the retention horizon is zero: the
// next sweep must release every buffered ring entry.
func TestStoreRingsSweptAfterLastUnsubscribe(t *testing.T) {
	g := grid.New(geo.NewRect(0, 0, 10, 10), 4, 4)
	st := NewStore(g)
	q := &model.Query{ID: 1, Expr: model.And("x"), Region: geo.NewRect(0, 0, 10, 10), TopK: 2, Window: time.Minute}
	st.AddSub(q, t0)
	for i := 1; i <= 20; i++ {
		st.Observe(entry(uint64(i), []string{"x"}, float64(i%10), float64(i%10), t0.Add(time.Duration(i)*time.Second)))
	}
	if st.Footprint() == 0 {
		t.Fatal("rings should be populated before the unsubscribe")
	}
	st.RemoveSub(q.ID)
	st.Advance(t0.Add(30 * time.Second)) // well inside the old window
	if fp := st.Footprint(); fp != 0 {
		t.Fatalf("ring entries pinned after last unsubscribe: footprint %d", fp)
	}
}

// A cell hand-off (snapshot → adopt → drop) preserves top-k membership:
// the receiving store reconstructs exactly the entries the source held in
// that cell, and the source repairs itself from its remaining cells.
func TestStoreCellHandoff(t *testing.T) {
	bounds := geo.NewRect(0, 0, 10, 10)
	g := grid.New(bounds, 2, 2) // 4 big cells
	src := NewStore(g)
	dst := NewStore(g)
	q := &model.Query{ID: 9, Expr: model.And("x"), Region: bounds, TopK: 4, Window: time.Minute}
	now := t0
	src.AddSub(q, now)

	// Two entries in cell of (2,2), two in cell of (7,7).
	locs := []geo.Point{{X: 2, Y: 2}, {X: 2.5, Y: 2.5}, {X: 7, Y: 7}, {X: 7.5, Y: 7.5}}
	for i, p := range locs {
		e := entry(uint64(i+1), []string{"x"}, p.X, p.Y, now.Add(time.Duration(i)*time.Second))
		src.Offer(q, e, e.At)
		src.Observe(e)
	}
	cell := g.CellOf(geo.Point{X: 2, Y: 2})
	now = now.Add(10 * time.Second)

	snap := src.SnapshotCell(cell, now)
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries, want the cell's 2", len(snap))
	}
	// Destination holds the migrated copy of the query.
	dst.AddSub(q, now)
	dst.AdoptCell(cell, snap, now)
	if got := dst.TopKSet(q.ID); !equalIDs(got, []uint64{1, 2}) {
		t.Fatalf("destination adopted %v, want [1 2]", got)
	}
	ring, ds := src.DropCell(cell, now)
	if len(ring) != 2 {
		t.Fatalf("DropCell returned %d ring entries, want 2", len(ring))
	}
	// Source keeps only the other cell's entries.
	if got := src.TopKSet(q.ID); !equalIDs(got, []uint64{3, 4}) {
		t.Fatalf("source holds %v after drop, want [3 4]", got)
	}
	// Lefts for 1,2; no refill available (k not depleted below holdings).
	lefts := 0
	for _, d := range ds {
		if !d.Entered {
			lefts++
		}
	}
	if lefts != 2 {
		t.Fatalf("DropCell emitted %d Left deltas, want 2", lefts)
	}
	// Union across stores equals the pre-migration top-k.
	union := append(dst.TopKSet(q.ID), src.TopKSet(q.ID)...)
	sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
	if !equalIDs(union, []uint64{1, 2, 3, 4}) {
		t.Fatalf("hand-off lost or duplicated entries: %v", union)
	}
}

// Expiry of a top-k slot must repair from window contents that never made
// the top-k (the re-fill path).
func TestStoreRefillAfterExpiry(t *testing.T) {
	g := grid.New(geo.NewRect(0, 0, 10, 10), 4, 4)
	st := NewStore(g)
	q := &model.Query{ID: 3, Expr: model.And("x"), Region: geo.NewRect(0, 0, 10, 10), TopK: 1, Window: 20 * time.Second}
	now := t0
	st.AddSub(q, now)
	center := q.Region.Center()
	// e1 at the centre (best), e2 a little later on the rim — its recency
	// boost (2^1 over half-life 5s) doesn't offset the distance penalty,
	// so it never enters the k=1 heap and lives only in the ring.
	e1 := entry(1, []string{"x"}, center.X, center.Y, now)
	e2 := entry(2, []string{"x"}, 0.5, 0.5, now.Add(2*time.Second))
	for _, e := range []Entry{e1, e2} {
		st.Offer(q, e, e.At)
		st.Observe(e)
	}
	if got := st.TopKSet(q.ID); !equalIDs(got, []uint64{1}) {
		t.Fatalf("top-1 is %v, want [1]", got)
	}
	// Advance so e1 expires but e2 is still live → refill promotes e2.
	now = now.Add(21 * time.Second)
	ds := st.Advance(now)
	if got := st.TopKSet(q.ID); !equalIDs(got, []uint64{2}) {
		t.Fatalf("after expiry top-1 is %v, want refilled [2]", got)
	}
	var sawLeft1, sawEnter2 bool
	for _, d := range ds {
		if d.MsgID == 1 && !d.Entered {
			sawLeft1 = true
		}
		if d.MsgID == 2 && d.Entered {
			sawEnter2 = true
		}
	}
	if !sawLeft1 || !sawEnter2 {
		t.Fatalf("deltas %+v missing Left(1) or Entered(2)", ds)
	}
}
