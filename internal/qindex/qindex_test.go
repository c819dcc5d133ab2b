package qindex

import (
	"math/rand"
	"sort"
	"testing"

	"ps2stream/internal/geo"
	"ps2stream/internal/gi2"
	"ps2stream/internal/model"
	"ps2stream/internal/textutil"
)

// gi2.Index must satisfy the worker-index contract.
var _ Index = (*gi2.Index)(nil)

var bounds = geo.NewRect(0, 0, 100, 100)

func randWorkload(seed int64, nQ, nO int) ([]*model.Query, []*model.Object) {
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var qs []*model.Query
	for i := 0; i < nQ; i++ {
		n := 1 + rng.Intn(3)
		terms := map[string]struct{}{}
		for len(terms) < n {
			terms[vocab[rng.Intn(len(vocab))]] = struct{}{}
		}
		var ts []string
		for t := range terms {
			ts = append(ts, t)
		}
		var e model.Expr
		if rng.Intn(2) == 0 {
			e = model.And(ts...)
		} else {
			e = model.Or(ts...)
		}
		x, y := rng.Float64()*100, rng.Float64()*100
		qs = append(qs, &model.Query{
			ID: uint64(i + 1), Expr: e,
			Region: geo.NewRect(x, y, x+rng.Float64()*25, y+rng.Float64()*25),
		})
	}
	var os []*model.Object
	for i := 0; i < nO; i++ {
		n := 1 + rng.Intn(4)
		var ts []string
		for j := 0; j < n; j++ {
			ts = append(ts, vocab[rng.Intn(len(vocab))])
		}
		os = append(os, &model.Object{
			ID: uint64(i + 1), Terms: ts,
			Loc: geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
		})
	}
	return qs, os
}

func matchIDs(ix Index, o *model.Object) []uint64 {
	var out []uint64
	ix.Match(o, func(q *model.Query) { out = append(out, q.ID) })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Both implementations must agree with each other and the naive oracle,
// including after deletions.
func TestImplementationsAgree(t *testing.T) {
	qs, os := randWorkload(1, 200, 300)
	stats := textutil.NewStats()
	for _, o := range os {
		stats.Add(o.Terms...)
	}
	impls := map[string]Index{
		"gi2":    gi2.New(bounds, 16, stats),
		"rtree":  NewRTree(8),
		"iqtree": NewIQTree(bounds, stats, 6, 8),
		"aptree": NewAPTree(bounds, stats, 8, 4, 10),
	}
	for _, ix := range impls {
		for _, q := range qs {
			ix.Insert(q)
		}
		for i := 0; i < len(qs); i += 3 {
			ix.Delete(qs[i].ID)
		}
	}
	live := map[uint64]bool{}
	for i, q := range qs {
		live[q.ID] = i%3 != 0
	}
	for _, o := range os {
		var oracle []uint64
		for _, q := range qs {
			if live[q.ID] && q.Matches(o) {
				oracle = append(oracle, q.ID)
			}
		}
		sort.Slice(oracle, func(i, j int) bool { return oracle[i] < oracle[j] })
		for name, ix := range impls {
			got := matchIDs(ix, o)
			if len(got) != len(oracle) {
				t.Fatalf("%s: object %d matched %v, oracle %v", name, o.ID, got, oracle)
			}
			for i := range got {
				if got[i] != oracle[i] {
					t.Fatalf("%s: object %d matched %v, oracle %v", name, o.ID, got, oracle)
				}
			}
		}
	}
}

func TestRTreeRebuild(t *testing.T) {
	ix := NewRTree(8)
	ix.rebuildAt = 16
	qs, _ := randWorkload(2, 64, 0)
	for _, q := range qs {
		ix.Insert(q)
	}
	for i := 0; i < 32; i++ {
		ix.Delete(qs[i].ID)
	}
	// Rebuild triggered at 16 tombstones: the count stays correct.
	if got := ix.QueryCount(); got != 32 {
		t.Errorf("QueryCount = %d, want 32", got)
	}
	// Survivors still match.
	q := qs[40]
	o := &model.Object{ID: 1, Terms: q.Expr.Terms(), Loc: q.Region.Center()}
	found := false
	for _, id := range matchIDs(ix, o) {
		found = found || id == q.ID
	}
	if !found {
		t.Error("survivor lost after rebuild")
	}
}

func TestRTreeDuplicateInsertAndUnknownDelete(t *testing.T) {
	ix := NewRTree(8)
	q := &model.Query{ID: 1, Expr: model.And("a"), Region: geo.NewRect(0, 0, 10, 10)}
	ix.Insert(q)
	ix.Insert(q)
	if ix.QueryCount() != 1 {
		t.Errorf("duplicate insert counted: %d", ix.QueryCount())
	}
	ix.Delete(999) // no-op
	if ix.QueryCount() != 1 {
		t.Errorf("unknown delete changed count: %d", ix.QueryCount())
	}
	o := &model.Object{ID: 1, Terms: []string{"a"}, Loc: geo.Point{X: 5, Y: 5}}
	if got := matchIDs(ix, o); len(got) != 1 {
		t.Errorf("matched %v, want one hit", got)
	}
}

func TestRTreeReinsertAfterDelete(t *testing.T) {
	ix := NewRTree(8)
	q := &model.Query{ID: 1, Expr: model.And("a"), Region: geo.NewRect(0, 0, 10, 10)}
	ix.Insert(q)
	ix.Delete(1)
	ix.Insert(q)
	o := &model.Object{ID: 1, Terms: []string{"a"}, Loc: geo.Point{X: 5, Y: 5}}
	if got := matchIDs(ix, o); len(got) != 1 {
		t.Errorf("matched %v after reinsert, want one hit", got)
	}
	if ix.Footprint() <= 0 {
		t.Error("Footprint <= 0")
	}
}

// TestMatchReportsAQueryOnce: the at-most-once clause of Index.Match. An
// OR query of two conjunctions is registered under two keys, its region
// spans several cells of every index, and the object carries both keys —
// every way an index could meet the query twice for one object.
func TestMatchReportsAQueryOnce(t *testing.T) {
	stats := textutil.NewStats()
	stats.Add("a", "b", "c")
	q := &model.Query{ID: 1, Expr: model.Or("a", "b"), Region: geo.NewRect(5, 5, 95, 95)}
	o := &model.Object{ID: 1, Terms: []string{"a", "b"}, Loc: geo.Point{X: 50, Y: 50}}
	for name, ix := range map[string]Index{
		"gi2":    gi2.New(bounds, 16, stats),
		"rtree":  NewRTree(8),
		"iqtree": NewIQTree(bounds, stats, 6, 1),
		"aptree": NewAPTree(bounds, stats, 1, 4, 10),
	} {
		ix.Insert(q)
		// Neighbours force the trees to split around q.
		for i := 0; i < 40; i++ {
			x := float64(i%10) * 10
			ix.Insert(&model.Query{ID: uint64(10 + i), Expr: model.And("c"), Region: geo.NewRect(x, x, x+5, x+5)})
		}
		calls := 0
		ix.Match(o, func(got *model.Query) {
			if got.ID == q.ID {
				calls++
			}
		})
		if calls != 1 {
			t.Errorf("%s: Match reported the query %d times for one object, want 1", name, calls)
		}
	}
}
