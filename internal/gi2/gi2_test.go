package gi2

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ps2stream/internal/geo"
	"ps2stream/internal/model"
	"ps2stream/internal/textutil"
)

var testBounds = geo.NewRect(0, 0, 100, 100)

func newTestIndex() *Index {
	stats := textutil.NewStats()
	stats.AddWeighted("common", 1000)
	stats.AddWeighted("mid", 100)
	stats.AddWeighted("rare", 1)
	return New(testBounds, 16, stats)
}

func q(id uint64, expr model.Expr, r geo.Rect) *model.Query {
	return &model.Query{ID: id, Expr: expr, Region: r}
}

func obj(id uint64, loc geo.Point, terms ...string) *model.Object {
	return &model.Object{ID: id, Terms: terms, Loc: loc}
}

func TestRegistrationKeys(t *testing.T) {
	stats := textutil.NewStats()
	stats.AddWeighted("common", 1000)
	stats.AddWeighted("rare", 1)
	tests := []struct {
		name string
		e    model.Expr
		want []string
	}{
		{"and picks rare", model.And("common", "rare"), []string{"rare"}},
		{"or registers each", model.Or("common", "rare"), []string{"common", "rare"}},
		{"duplicate keys merged", model.Expr{Conj: [][]string{{"rare", "common"}, {"rare"}}}, []string{"rare"}},
		{"empty expr", model.Expr{}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ix := New(testBounds, 16, stats)
			ix.Insert(&model.Query{ID: 1, Expr: tt.e, Region: geo.NewRect(1, 1, 2, 2)})
			var got []string
			for _, ts := range ix.CellTermStats(ix.Grid().CellOf(geo.Point{X: 1, Y: 1})) {
				got = append(got, ts.Term)
			}
			want := append([]string(nil), tt.want...)
			sort.Strings(want)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("registered under %v, want %v", got, want)
			}
		})
	}
}

func TestInsertMatchBasic(t *testing.T) {
	ix := newTestIndex()
	ix.Insert(q(1, model.And("rare"), geo.NewRect(10, 10, 30, 30)))
	ix.Insert(q(2, model.And("common", "rare"), geo.NewRect(0, 0, 50, 50)))
	ix.Insert(q(3, model.And("mid"), geo.NewRect(60, 60, 90, 90)))

	got := ix.MatchIDs(obj(1, geo.Point{X: 20, Y: 20}, "rare", "common"))
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if fmt.Sprint(got) != "[1 2]" {
		t.Errorf("MatchIDs = %v, want [1 2]", got)
	}
	// Object outside both regions.
	if got := ix.MatchIDs(obj(2, geo.Point{X: 95, Y: 5}, "rare", "common")); len(got) != 0 {
		t.Errorf("out-of-region match = %v", got)
	}
	// Object lacking the AND term.
	if got := ix.MatchIDs(obj(3, geo.Point{X: 20, Y: 20}, "common")); len(got) != 0 {
		t.Errorf("text mismatch matched = %v", got)
	}
}

func TestOrQueryMatchedOnce(t *testing.T) {
	ix := newTestIndex()
	// Both disjuncts present in the object: the query must fire once.
	ix.Insert(q(1, model.Or("rare", "mid"), geo.NewRect(0, 0, 100, 100)))
	got := ix.MatchIDs(obj(1, geo.Point{X: 50, Y: 50}, "rare", "mid"))
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("MatchIDs = %v, want exactly [1]", got)
	}
}

func TestQueryRegisteredUnderLeastFrequentOnly(t *testing.T) {
	ix := newTestIndex()
	ix.Insert(q(1, model.And("common", "rare"), geo.NewRect(0, 0, 10, 10)))
	// An object containing only "common" cannot hit the list (query sits
	// under "rare"), and indeed does not match the AND anyway.
	if got := ix.MatchIDs(obj(1, geo.Point{X: 5, Y: 5}, "common")); len(got) != 0 {
		t.Errorf("unexpected match %v", got)
	}
	// Object with both terms finds it via the rare list.
	if got := ix.MatchIDs(obj(2, geo.Point{X: 5, Y: 5}, "common", "rare")); len(got) != 1 {
		t.Errorf("expected match, got %v", got)
	}
}

func TestLazyDeletion(t *testing.T) {
	ix := newTestIndex()
	ix.Insert(q(1, model.And("rare"), geo.NewRect(0, 0, 20, 20)))
	before := ix.EntryCount()
	if before == 0 {
		t.Fatal("no entries after insert")
	}
	ix.Delete(1)
	// Entry still physically present until a match traverses the list.
	if ix.EntryCount() != before {
		t.Fatalf("Delete physically removed entries (lazy expected)")
	}
	if got := ix.MatchIDs(obj(1, geo.Point{X: 5, Y: 5}, "rare")); len(got) != 0 {
		t.Errorf("deleted query matched: %v", got)
	}
	// The traversed cell's entry was purged.
	if ix.EntryCount() >= before {
		t.Errorf("lazy purge did not remove entry: %d >= %d", ix.EntryCount(), before)
	}
}

func TestDeleteUnknownID(t *testing.T) {
	ix := newTestIndex()
	ix.Delete(999) // must not panic or leak a tombstone
	if n := ix.LiveQueryCount(); n != 0 {
		t.Errorf("LiveQueryCount = %d", n)
	}
}

func TestPurge(t *testing.T) {
	ix := newTestIndex()
	for i := uint64(1); i <= 10; i++ {
		ix.Insert(q(i, model.And("rare"), geo.NewRect(0, 0, 100, 100)))
	}
	for i := uint64(1); i <= 5; i++ {
		ix.Delete(i)
	}
	ix.Purge()
	if got := ix.QueryCount(); got != 5 {
		t.Errorf("QueryCount after purge = %d, want 5", got)
	}
	got := ix.MatchIDs(obj(1, geo.Point{X: 50, Y: 50}, "rare"))
	if len(got) != 5 {
		t.Errorf("matched %d queries after purge, want 5", len(got))
	}
}

func TestReinsertAfterDelete(t *testing.T) {
	ix := newTestIndex()
	ix.Insert(q(1, model.And("rare"), geo.NewRect(0, 0, 20, 20)))
	ix.Delete(1)
	ix.Insert(q(1, model.And("rare"), geo.NewRect(0, 0, 20, 20)))
	if got := ix.MatchIDs(obj(1, geo.Point{X: 5, Y: 5}, "rare")); len(got) != 1 {
		t.Errorf("reinserted query should match once, got %v", got)
	}
}

func TestMultiCellInsertion(t *testing.T) {
	ix := newTestIndex()
	// Region spanning many cells: object anywhere inside must match.
	ix.Insert(q(1, model.And("rare"), geo.NewRect(0, 0, 100, 100)))
	for _, p := range []geo.Point{{X: 1, Y: 1}, {X: 99, Y: 99}, {X: 50, Y: 3}} {
		if got := ix.MatchIDs(obj(1, p, "rare")); len(got) != 1 {
			t.Errorf("at %v matched %v", p, got)
		}
	}
}

func TestExtractCell(t *testing.T) {
	ix := newTestIndex()
	ix.Insert(q(1, model.And("rare"), geo.NewRect(0, 0, 100, 100))) // spans all cells
	ix.Insert(q(2, model.And("mid"), geo.NewRect(1, 1, 2, 2)))      // single cell
	cid := ix.Grid().CellOf(geo.Point{X: 1.5, Y: 1.5})
	qs := ix.ExtractCell(cid)
	if len(qs) != 2 {
		t.Fatalf("ExtractCell returned %d queries, want 2", len(qs))
	}
	// Objects in the extracted cell no longer match on this worker.
	if got := ix.MatchIDs(obj(1, geo.Point{X: 1.5, Y: 1.5}, "rare", "mid")); len(got) != 0 {
		t.Errorf("extracted cell still matches: %v", got)
	}
	// Query 1 still matches in other cells.
	if got := ix.MatchIDs(obj(2, geo.Point{X: 80, Y: 80}, "rare")); len(got) != 1 {
		t.Errorf("query 1 lost outside extracted cell: %v", got)
	}
	// Query 2 is gone entirely.
	if ix.QueryCount() != 1 {
		t.Errorf("QueryCount = %d, want 1", ix.QueryCount())
	}
}

func TestExtractSkipsTombstoned(t *testing.T) {
	ix := newTestIndex()
	ix.Insert(q(1, model.And("rare"), geo.NewRect(1, 1, 2, 2)))
	ix.Insert(q(2, model.And("rare"), geo.NewRect(1, 1, 2, 2)))
	ix.Delete(1)
	cid := ix.Grid().CellOf(geo.Point{X: 1.5, Y: 1.5})
	qs := ix.ExtractCell(cid)
	if len(qs) != 1 || qs[0].ID != 2 {
		t.Errorf("ExtractCell = %v, want only query 2", qs)
	}
}

func TestInsertAtSingleCell(t *testing.T) {
	ix := newTestIndex()
	qq := q(1, model.And("rare"), geo.NewRect(0, 0, 100, 100))
	cid := ix.Grid().CellOf(geo.Point{X: 50, Y: 50})
	ix.InsertAt(cid, qq)
	if got := ix.MatchIDs(obj(1, geo.Point{X: 50, Y: 50}, "rare")); len(got) != 1 {
		t.Errorf("InsertAt cell did not match: %v", got)
	}
	// Other cells must not have it.
	if got := ix.MatchIDs(obj(2, geo.Point{X: 1, Y: 1}, "rare")); len(got) != 0 {
		t.Errorf("InsertAt leaked to other cells: %v", got)
	}
	// Duplicate InsertAt is a no-op.
	before := ix.EntryCount()
	ix.InsertAt(cid, qq)
	if ix.EntryCount() != before {
		t.Errorf("duplicate InsertAt added entries")
	}
}

func TestCellStatsAndLoad(t *testing.T) {
	ix := newTestIndex()
	// Registered under both keys, yet one query to ship.
	qq := q(1, model.Or("rare", "mid"), geo.NewRect(1, 1, 2, 2))
	ix.Insert(qq)
	p := geo.Point{X: 1.5, Y: 1.5}
	for i := 0; i < 10; i++ {
		ix.Match(obj(uint64(i), p, "rare"), func(*model.Query) {})
	}
	for i := 10; i < 14; i++ { // routed to other slots too
		ix.MatchObject(obj(uint64(i), p, "rare"), true)
	}
	stats := ix.CellStats()
	var found bool
	for _, cs := range stats {
		if cs.CellID == ix.Grid().CellOf(p) {
			found = true
			if cs.ObjSeen != 14 || cs.Shared != 4 {
				t.Errorf("ObjSeen, Shared = %d, %d, want 14, 4", cs.ObjSeen, cs.Shared)
			}
			if want := int64(qq.SizeBytes()); cs.SizeBytes != want {
				t.Errorf("SizeBytes = %d, want %d: S_g counts the query once", cs.SizeBytes, want)
			}
		}
	}
	if !found {
		t.Fatal("cell stats missing the active cell")
	}
	ix.ResetWindow()
	for _, cs := range ix.CellStats() {
		if cs.ObjSeen != 0 || cs.Shared != 0 {
			t.Errorf("ResetWindow left ObjSeen, Shared = %d, %d", cs.ObjSeen, cs.Shared)
		}
	}
}

func TestFootprintGrows(t *testing.T) {
	ix := newTestIndex()
	empty := ix.Footprint()
	for i := uint64(0); i < 100; i++ {
		ix.Insert(q(i, model.And("rare"), geo.NewRect(0, 0, 50, 50)))
	}
	full := ix.Footprint()
	if full <= empty {
		t.Errorf("Footprint did not grow: %d -> %d", empty, full)
	}
}

// Property: GI2 matching agrees with the naive oracle over random
// workloads.
func TestMatchEquivalenceProperty(t *testing.T) {
	vocab := []string{"common", "mid", "rare", "alpha", "beta", "gamma"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stats := textutil.NewStats()
		for i, v := range vocab {
			stats.AddWeighted(v, 1<<uint(len(vocab)-i))
		}
		ix := New(testBounds, 8, stats)
		var queries []*model.Query
		for i := 0; i < 40; i++ {
			nTerms := 1 + rng.Intn(3)
			terms := make([]string, 0, nTerms)
			for len(terms) < nTerms {
				c := vocab[rng.Intn(len(vocab))]
				dup := false
				for _, e := range terms {
					dup = dup || e == c
				}
				if !dup {
					terms = append(terms, c)
				}
			}
			var e model.Expr
			if rng.Intn(2) == 0 {
				e = model.And(terms...)
			} else {
				e = model.Or(terms...)
			}
			x, y := rng.Float64()*100, rng.Float64()*100
			qq := q(uint64(i+1), e, geo.NewRect(x, y, x+rng.Float64()*30, y+rng.Float64()*30))
			queries = append(queries, qq)
			ix.Insert(qq)
		}
		// Delete a third of them.
		live := map[uint64]bool{}
		for _, qq := range queries {
			live[qq.ID] = true
		}
		for i := 0; i < len(queries); i += 3 {
			ix.Delete(queries[i].ID)
			live[queries[i].ID] = false
		}
		for i := 0; i < 30; i++ {
			nT := 1 + rng.Intn(4)
			terms := make([]string, 0, nT)
			for j := 0; j < nT; j++ {
				terms = append(terms, vocab[rng.Intn(len(vocab))])
			}
			o := obj(uint64(i), geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}, terms...)
			got := map[uint64]bool{}
			for _, id := range ix.MatchIDs(o) {
				got[id] = true
			}
			want := map[uint64]bool{}
			for _, qq := range queries {
				if live[qq.ID] && qq.Matches(o) {
					want[qq.ID] = true
				}
			}
			if len(got) != len(want) {
				return false
			}
			for id := range want {
				if !got[id] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQueryOutsideBoundsClamps(t *testing.T) {
	ix := newTestIndex()
	// Region entirely outside the monitored space: clamped to boundary
	// cells so matching still works for clamped objects.
	ix.Insert(q(1, model.And("rare"), geo.NewRect(150, 150, 160, 160)))
	if ix.EntryCount() == 0 {
		t.Error("out-of-bounds query was dropped")
	}
}
