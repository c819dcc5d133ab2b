package window

import (
	"fmt"
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

// moves records a band's membership reports as signed ids: +id entered,
// -id left.
type moves []int64

func (m *moves) add(r Ranked, entered bool) {
	if entered {
		*m = append(*m, int64(r.E.MsgID))
	} else {
		*m = append(*m, -int64(r.E.MsgID))
	}
}

func ranked(id uint64, rank float64, at time.Time) Ranked {
	return Ranked{E: entry(id, nil, 0, 0, at), S: Score{Rank: rank}}
}

func bandIDs(b *Skyband) []uint64 {
	var ids []uint64
	for _, h := range b.es {
		ids = append(ids, h.E.MsgID)
	}
	return ids
}

// Domination pruning bounds the band: an entry k newer, better entries
// dominate can never re-enter the top-k, so it leaves at once.
func TestRingCountBound(t *testing.T) {
	b := NewSkyband(3)
	var m moves
	for i := 1; i <= 1000; i++ {
		b.Insert(ranked(uint64(i), float64(i), t0.Add(time.Duration(i)*time.Second)), true, m.add)
	}
	if b.Len() != 3 || fmt.Sprint(bandIDs(b)) != "[1000 999 998]" {
		t.Fatalf("band holds %v, want the 3 newest best-first", bandIDs(b))
	}
	// An older, worse entry arriving late is dominated by all three.
	b.Insert(ranked(5000, 1, t0), true, m.add)
	if b.Len() != 3 {
		t.Fatalf("a dominated late entry was admitted: %v", bandIDs(b))
	}
	// Entries that rank below older ones stay: each can still reach the
	// top-k once the better, older ones expire.
	b = NewSkyband(2)
	for i := 1; i <= 50; i++ {
		b.Insert(ranked(uint64(i), float64(-i), t0.Add(time.Duration(i)*time.Second)), true, m.add)
	}
	if b.Len() != 50 {
		t.Fatalf("band of decreasing ranks holds %d entries, want all 50", b.Len())
	}
}

// Expiry promotes the next held entry without any scan, reporting the
// departure and the promotion.
func TestRingLazyAndEagerExpiry(t *testing.T) {
	b := NewSkyband(2)
	var m moves
	b.Insert(ranked(1, 9, t0), true, m.add)
	b.Insert(ranked(2, 8, t0.Add(time.Second)), true, m.add)
	b.Insert(ranked(3, 7, t0.Add(2*time.Second)), true, m.add)
	if fmt.Sprint(m) != "[1 2]" {
		t.Fatalf("reports %v, want 1 and 2 entering", m)
	}
	m = nil
	b.RemoveIf(func(e Entry) bool { return !e.Live(t0) }, m.add)
	if fmt.Sprint(m) != "[-1 3]" || fmt.Sprint(bandIDs(b)) != "[2 3]" {
		t.Fatalf("after expiring 1: reports %v, band %v; want [-1 3] and [2 3]", m, bandIDs(b))
	}
	// A better, newer entry pushes 3 out of the top-2 but cannot prune it
	// with k = 2; a second one does.
	m = nil
	b.Insert(ranked(4, 10, t0.Add(3*time.Second)), true, m.add)
	b.Insert(ranked(5, 11, t0.Add(4*time.Second)), true, m.add)
	if fmt.Sprint(m) != "[4 -3 -2 5]" || fmt.Sprint(bandIDs(b)) != "[5 4]" {
		t.Fatalf("reports %v, band %v; want [4 -3 -2 5] and [5 4]", m, bandIDs(b))
	}
}

// An adopted entry older than the ones held expires in publish order,
// not in arrival order.
func TestRingExpireOutOfOrder(t *testing.T) {
	g := grid.New(geo.NewRect(0, 0, 10, 10), 4, 4)
	st := NewStore(g)
	q := &model.Query{ID: 1, Expr: model.And("x"), Region: geo.NewRect(0, 0, 10, 10), TopK: 3, Window: 10 * time.Second}
	st.AddSub(q)
	st.Insert(nil, q.ID, entry(1, []string{"x"}, 5, 5, t0.Add(5*time.Second)), t0.Add(5*time.Second), true)
	st.AdoptEntries(nil, q.ID, []Entry{entry(2, []string{"x"}, 5, 5, t0.Add(time.Second))}, t0.Add(5*time.Second))
	st.Insert(nil, q.ID, entry(3, []string{"x"}, 5, 5, t0.Add(6*time.Second)), t0.Add(6*time.Second), true)
	if got := st.TopKSet(q.ID); !equalIDs(got, []uint64{1, 2, 3}) {
		t.Fatalf("top-3 is %v, want [1 2 3]", got)
	}
	ds := st.Advance(t0.Add(12 * time.Second))
	if got := st.TopKSet(q.ID); !equalIDs(got, []uint64{1, 3}) {
		t.Fatalf("after expiry top-3 is %v, want the adopted old entry gone: [1 3]", got)
	}
	if len(ds) != 1 || ds[0].MsgID != 2 || ds[0].Entered {
		t.Fatalf("deltas %+v, want Left(2) alone", ds)
	}
}

func TestTopKOfferEvictExpire(t *testing.T) {
	b := NewSkyband(2)
	var m moves
	a := ranked(1, 1, t0)
	bb := ranked(2, 2, t0.Add(time.Second))
	c := ranked(3, 3, t0.Add(2*time.Second))
	low := ranked(4, 0, t0)

	b.Insert(a, true, m.add)
	b.Insert(bb, true, m.add)
	if fmt.Sprint(m) != "[1 2]" {
		t.Fatalf("offers with free capacity reported %v, want [1 2]", m)
	}
	m = nil
	b.Insert(low, true, m.add)
	if len(m) != 0 || b.Len() != 2 {
		t.Fatalf("low-ranked older offer: reports %v, band %v; want it dominated out", m, bandIDs(b))
	}
	b.Insert(c, true, m.add)
	if fmt.Sprint(m) != "[-1 3]" || b.Len() != 2 {
		t.Fatalf("offer c: reports %v, band %v; want 3 in, 1 out and pruned", m, bandIDs(b))
	}
	m = nil
	b.Insert(c, true, m.add)
	if len(m) != 0 || b.Len() != 2 {
		t.Fatal("duplicate id re-entered")
	}
	b.RemoveIf(func(e Entry) bool { return !e.Live(t0.Add(1500 * time.Millisecond)) }, m.add)
	if fmt.Sprint(m) != "[-2]" || fmt.Sprint(bandIDs(b)) != "[3]" {
		t.Fatalf("expiry reports %v, band %v; want [-2] and [3]", m, bandIDs(b))
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
	st.AddSub(q)

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
			st.Insert(nil, q.ID, e, now, true)
		}
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
	st.AddSub(q)
	for i := 1; i <= 3; i++ {
		e := entry(uint64(i), []string{"x"}, 1, 1, t0.Add(time.Duration(i)*time.Second))
		st.Insert(nil, q.ID, e, e.At, true)
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

// Window state is per subscription: once the last one is gone nothing
// is held, without waiting for a sweep.
func TestStoreRingsSweptAfterLastUnsubscribe(t *testing.T) {
	g := grid.New(geo.NewRect(0, 0, 10, 10), 4, 4)
	st := NewStore(g)
	q := &model.Query{ID: 1, Expr: model.And("x"), Region: geo.NewRect(0, 0, 10, 10), TopK: 2, Window: time.Minute}
	st.AddSub(q)
	for i := 1; i <= 20; i++ {
		// Decreasing relevance with age: the rim entries rank below the
		// older central ones, so the band keeps several of them.
		st.Insert(nil, q.ID, entry(uint64(i), []string{"x"}, 5+float64(i)/5, 5, t0.Add(time.Duration(i)*time.Second)), t0.Add(time.Duration(i)*time.Second), true)
	}
	if st.Footprint() == 0 || len(st.Bands(nil)) != 1 {
		t.Fatal("the band should be populated before the unsubscribe")
	}
	st.RemoveSub(q.ID)
	if fp := st.Footprint(); fp != 0 || len(st.Bands(nil)) != 0 {
		t.Fatalf("window state pinned after last unsubscribe: footprint %d", fp)
	}
}

// A cell hand-off (copy → adopt → drop) preserves top-k membership: the
// receiving store adopts exactly the subscription's entries located in
// the cell, and the source keeps the others.
func TestStoreCellHandoff(t *testing.T) {
	bounds := geo.NewRect(0, 0, 10, 10)
	g := grid.New(bounds, 2, 2) // 4 big cells
	src := NewStore(g)
	dst := NewStore(g)
	q := &model.Query{ID: 9, Expr: model.And("x"), Region: bounds, TopK: 4, Window: time.Minute}
	now := t0
	src.AddSub(q)

	// Two entries in cell of (2,2), two in cell of (7,7).
	locs := []geo.Point{{X: 2, Y: 2}, {X: 2.5, Y: 2.5}, {X: 7, Y: 7}, {X: 7.5, Y: 7.5}}
	for i, p := range locs {
		e := entry(uint64(i+1), []string{"x"}, p.X, p.Y, now.Add(time.Duration(i)*time.Second))
		src.Insert(nil, q.ID, e, e.At, true)
	}
	cell := g.CellOf(geo.Point{X: 2, Y: 2})
	now = now.Add(10 * time.Second)

	snap := src.SubEntries(q.ID, cell)
	if len(snap) != 2 || len(src.SubEntries(q.ID, -1)) != 4 {
		t.Fatalf("the cell holds %d entries and the band %d, want 2 and 4", len(snap), len(src.SubEntries(q.ID, -1)))
	}
	// Destination holds the migrated copy of the query.
	dst.AddSub(q)
	dst.AdoptEntries(nil, q.ID, snap, now)
	if got := dst.TopKSet(q.ID); !equalIDs(got, []uint64{1, 2}) {
		t.Fatalf("destination adopted %v, want [1 2]", got)
	}
	ds := src.DropCell(q.ID, cell)
	// Source keeps only the other cell's entries.
	if got := src.TopKSet(q.ID); !equalIDs(got, []uint64{3, 4}) {
		t.Fatalf("source holds %v after drop, want [3 4]", got)
	}
	if len(ds) != 2 || ds[0].Entered || ds[1].Entered {
		t.Fatalf("DropCell emitted %+v, want Left for 1 and 2 only", ds)
	}
	// Union across stores equals the pre-migration top-k.
	union := append(dst.TopKSet(q.ID), src.TopKSet(q.ID)...)
	sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
	if !equalIDs(union, []uint64{1, 2, 3, 4}) {
		t.Fatalf("hand-off lost or duplicated entries: %v", union)
	}
}

// Expiry of a top-k slot promotes a held entry that never made the
// top-k: the band already holds it, no history is rescanned.
func TestStoreRefillAfterExpiry(t *testing.T) {
	g := grid.New(geo.NewRect(0, 0, 10, 10), 4, 4)
	st := NewStore(g)
	q := &model.Query{ID: 3, Expr: model.And("x"), Region: geo.NewRect(0, 0, 10, 10), TopK: 1, Window: 20 * time.Second}
	now := t0
	st.AddSub(q)
	center := q.Region.Center()
	// e1 at the centre (best), e2 a little later on the rim — its recency
	// boost (2^1 over half-life 5s) doesn't offset the distance penalty,
	// so it never enters the top-1 and waits in the band.
	e1 := entry(1, []string{"x"}, center.X, center.Y, now)
	e2 := entry(2, []string{"x"}, 0.5, 0.5, now.Add(2*time.Second))
	for _, e := range []Entry{e1, e2} {
		st.Insert(nil, q.ID, e, e.At, true)
	}
	if got := st.TopKSet(q.ID); !equalIDs(got, []uint64{1}) {
		t.Fatalf("top-1 is %v, want [1]", got)
	}
	// Advance so e1 expires but e2 is still live → e2 is promoted.
	now = now.Add(21 * time.Second)
	ds := st.Advance(now)
	if got := st.TopKSet(q.ID); !equalIDs(got, []uint64{2}) {
		t.Fatalf("after expiry top-1 is %v, want promoted [2]", got)
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
