package gi2

import (
	"reflect"
	"sort"
	"testing"

	"ps2stream/internal/geo"
	"ps2stream/internal/model"
	"ps2stream/internal/textutil"
)

func TestCellTermStats(t *testing.T) {
	ix := newTestIndex()
	r := geo.NewRect(1, 1, 2, 2)
	ix.Insert(q(1, model.And("rare"), r))
	ix.Insert(q(2, model.And("rare"), r))
	ix.Insert(q(3, model.And("mid"), r))
	cid := ix.Grid().CellOf(geo.Point{X: 1.5, Y: 1.5})
	// Drive objects so term hits accumulate.
	for i := 0; i < 5; i++ {
		ix.Match(obj(uint64(i), geo.Point{X: 1.5, Y: 1.5}, "rare"), func(*model.Query) {})
	}
	stats := ix.CellTermStats(cid)
	if len(stats) != 2 {
		t.Fatalf("got %d term stats, want 2: %+v", len(stats), stats)
	}
	// Sorted by term: "mid" then "rare".
	if stats[0].Term != "mid" || stats[1].Term != "rare" {
		t.Fatalf("order: %+v", stats)
	}
	if stats[1].Queries != 2 {
		t.Errorf("rare queries = %d, want 2", stats[1].Queries)
	}
	if stats[1].ObjHits != 5 {
		t.Errorf("rare hits = %d, want 5", stats[1].ObjHits)
	}
	if stats[0].ObjHits != 0 {
		t.Errorf("mid hits = %d, want 0", stats[0].ObjHits)
	}
	// Tombstoned queries drop out of the stats.
	ix.Delete(1)
	ix.Delete(2)
	stats = ix.CellTermStats(cid)
	for _, s := range stats {
		if s.Term == "rare" {
			t.Errorf("tombstoned term still reported: %+v", s)
		}
	}
}

func TestExtractCellKeys(t *testing.T) {
	ix := newTestIndex()
	r := geo.NewRect(1, 1, 2, 2)
	ix.Insert(q(1, model.And("rare"), r))
	ix.Insert(q(2, model.And("mid"), r))
	cid := ix.Grid().CellOf(geo.Point{X: 1.5, Y: 1.5})
	got := ix.ExtractCellKeys(cid, []string{"rare"})
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("ExtractCellKeys = %v", got)
	}
	// "mid" queries stay.
	if ids := ix.MatchIDs(obj(1, geo.Point{X: 1.5, Y: 1.5}, "mid")); len(ids) != 1 || ids[0] != 2 {
		t.Errorf("mid query lost: %v", ids)
	}
	// "rare" is gone from this cell.
	if ids := ix.MatchIDs(obj(2, geo.Point{X: 1.5, Y: 1.5}, "rare")); len(ids) != 0 {
		t.Errorf("rare query still present: %v", ids)
	}
}

func TestQueriesInCellKeysReadOnly(t *testing.T) {
	ix := newTestIndex()
	r := geo.NewRect(1, 1, 2, 2)
	ix.Insert(q(1, model.And("rare"), r))
	ix.Insert(q(2, model.Or("rare", "mid"), r))
	cid := ix.Grid().CellOf(geo.Point{X: 1.5, Y: 1.5})
	got := ix.QueriesInCellKeys(cid, []string{"rare"})
	ids := make([]int, 0, len(got))
	for _, qq := range got {
		ids = append(ids, int(qq.ID))
	}
	sort.Ints(ids)
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("QueriesInCellKeys = %v", ids)
	}
	// Read-only: matching still works afterwards.
	if m := ix.MatchIDs(obj(1, geo.Point{X: 1.5, Y: 1.5}, "rare")); len(m) != 2 {
		t.Errorf("index mutated by read: %v", m)
	}
	// Tombstoned queries excluded.
	ix.Delete(1)
	got = ix.QueriesInCellKeys(cid, []string{"rare"})
	if len(got) != 1 || got[0].ID != 2 {
		t.Errorf("tombstoned query returned: %v", got)
	}
}

func TestHasLiveGetLiveQueryIDs(t *testing.T) {
	ix := newTestIndex()
	qq := q(7, model.And("rare"), geo.NewRect(1, 1, 2, 2))
	ix.Insert(qq)
	if !ix.HasLive(7) {
		t.Error("HasLive(7) = false after insert")
	}
	if got := ix.Get(7); !reflect.DeepEqual(got, qq) {
		t.Errorf("Get(7) = %v", got)
	}
	if ids := ix.LiveQueryIDs(); len(ids) != 1 || ids[0] != 7 {
		t.Errorf("LiveQueryIDs = %v", ids)
	}
	ix.Delete(7)
	if ix.HasLive(7) {
		t.Error("HasLive(7) = true after delete")
	}
	if ix.Get(7) != nil {
		t.Error("Get(7) != nil after delete")
	}
	if ids := ix.LiveQueryIDs(); len(ids) != 0 {
		t.Errorf("LiveQueryIDs after delete = %v", ids)
	}
	if ix.HasLive(999) {
		t.Error("HasLive(unknown) = true")
	}
}

func TestResetWindowClearsTermHits(t *testing.T) {
	ix := newTestIndex()
	ix.Insert(q(1, model.And("rare"), geo.NewRect(1, 1, 2, 2)))
	cid := ix.Grid().CellOf(geo.Point{X: 1.5, Y: 1.5})
	ix.Match(obj(1, geo.Point{X: 1.5, Y: 1.5}, "rare"), func(*model.Query) {})
	if ix.CellTermStats(cid)[0].ObjHits != 1 {
		t.Fatal("hit not recorded")
	}
	ix.ResetWindow()
	if got := ix.CellTermStats(cid)[0].ObjHits; got != 0 {
		t.Errorf("hits after ResetWindow = %d", got)
	}
}

func TestExtractCellKeysRefcountConsistency(t *testing.T) {
	ix := newTestIndex()
	// A query spanning two cells, extracted by key from one cell only:
	// it must remain live (refcount > 0) in the other.
	ix.Insert(q(1, model.And("rare"), geo.NewRect(1, 1, 20, 2))) // spans multiple columns
	c1 := ix.Grid().CellOf(geo.Point{X: 1.5, Y: 1.5})
	before := ix.EntryCount()
	ix.ExtractCellKeys(c1, []string{"rare"})
	if ix.EntryCount() != before-1 {
		t.Errorf("entries %d -> %d, want -1", before, ix.EntryCount())
	}
	if !ix.HasLive(1) {
		t.Error("query dropped entirely after single-cell key extraction")
	}
	if got := ix.MatchIDs(obj(1, geo.Point{X: 15, Y: 1.5}, "rare")); len(got) != 1 {
		t.Errorf("query lost in remaining cell: %v", got)
	}
}

func TestQueriesInCellAndEach(t *testing.T) {
	st := textutil.NewStats()
	st.AddWeighted("common", 100)
	ix := New(geo.NewRect(0, 0, 100, 100), 4, st)
	// Three queries in the same cell (two under the same rare key), one
	// spanning several cells, one tombstoned.
	q1 := &model.Query{ID: 1, Expr: model.And("rare", "common"), Region: geo.NewRect(1, 1, 5, 5)}
	q2 := &model.Query{ID: 2, Expr: model.Or("rare", "other"), Region: geo.NewRect(2, 2, 6, 6)}
	q3 := &model.Query{ID: 3, Expr: model.And("common"), Region: geo.NewRect(0, 0, 90, 90)}
	q4 := &model.Query{ID: 4, Expr: model.And("rare"), Region: geo.NewRect(1, 1, 4, 4)}
	for _, q := range []*model.Query{q1, q2, q3, q4} {
		ix.Insert(q)
	}
	ix.Delete(4)
	cell := ix.Grid().CellOf(geo.Point{X: 2, Y: 2})

	got := map[uint64]bool{}
	for _, q := range ix.QueriesInCell(cell) {
		if got[q.ID] {
			t.Errorf("QueriesInCell returned %d twice", q.ID)
		}
		got[q.ID] = true
	}
	for _, want := range []uint64{1, 2, 3} {
		if !got[want] {
			t.Errorf("QueriesInCell missing %d (got %v)", want, got)
		}
	}
	if got[4] {
		t.Error("QueriesInCell returned tombstoned query 4")
	}

	keyed := ix.QueriesInCellKeys(cell, []string{"rare"})
	ids := map[uint64]bool{}
	for _, q := range keyed {
		ids[q.ID] = true
	}
	if !ids[1] || !ids[2] || ids[3] || ids[4] {
		t.Errorf("QueriesInCellKeys(rare) = %v", ids)
	}

	each := map[uint64]bool{}
	ix.Each(func(q *model.Query) {
		if each[q.ID] {
			t.Errorf("Each visited %d twice", q.ID)
		}
		each[q.ID] = true
	})
	if len(each) != 3 || each[4] {
		t.Errorf("Each visited %v, want {1,2,3}", each)
	}
	if lc := ix.LiveQueryCount(); lc != 3 {
		t.Errorf("LiveQueryCount = %d, want 3", lc)
	}
}
