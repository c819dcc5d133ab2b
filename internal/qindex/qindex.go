// Package qindex defines the worker-side query-index abstraction and an
// R-tree-based alternative implementation. §IV-D of the paper adopts GI2
// for its cheap construction and maintenance but notes "our system can be
// extended to adopt other index structures"; this package provides that
// extension point and a concrete second index so the design choice can be
// benchmarked (see BenchmarkAblationWorkerIndex).
package qindex

import (
	"ps2stream/internal/geo"
	"ps2stream/internal/index/rtree"
	"ps2stream/internal/model"
)

// Index is the contract a worker-side STS-query index must satisfy.
// gi2.Index implements it natively.
type Index interface {
	// Insert registers a query.
	Insert(q *model.Query)
	// Delete drops a query by id (lazily or eagerly).
	Delete(id uint64)
	// Match invokes fn exactly once per live query matching o — at most
	// once per query per call, however many of the query's conjunctions
	// and cells o hits. The dispatchers rely on it: an object routed to
	// one worker cannot yield the same (query, object) pair twice, so the
	// mergers deliver its matches without a dedup probe (wire.OpEnv.Solo).
	// The query fn receives may be a view the index refills for the next
	// match: it is valid until fn returns, and fn must neither keep nor
	// modify it.
	Match(o *model.Object, fn func(q *model.Query))
	// Each invokes fn once per live query, in unspecified order
	// (checkpointing, tests). Each query equals the inserted definition
	// field for field but need not be the same pointer; fn may keep it.
	Each(fn func(q *model.Query))
	// Get returns the stored definition of a live query, or nil: equal
	// to the inserted one, not necessarily the same pointer.
	Get(id uint64) *model.Query
	// QueryCount reports stored distinct queries.
	QueryCount() int
	// Footprint estimates resident bytes.
	Footprint() int64
}

// RTree indexes STS queries by their regions in an R-tree; matching does a
// point search then evaluates the boolean expression. Compared to GI2 it
// prunes better on spatial selectivity but pays insertion-time tree
// maintenance and cannot prune on keywords — the trade-off the paper's
// cost argument is about.
type RTree struct {
	tree    *rtree.Tree
	queries map[uint64]*model.Query
	// tombstones defers physical removal to the periodic rebuild, the
	// standard way to delete from an R-tree under churn.
	tombstones map[uint64]struct{}
	// rebuildAt bounds tombstone accumulation.
	rebuildAt int
}

var _ Index = (*RTree)(nil)

// NewRTree returns an empty R-tree query index. fanout <= 0 uses the
// rtree default.
func NewRTree(fanout int) *RTree {
	if fanout <= 0 {
		fanout = rtree.DefaultMaxEntries
	}
	return &RTree{
		tree:       rtree.New(fanout),
		queries:    make(map[uint64]*model.Query),
		tombstones: make(map[uint64]struct{}),
		rebuildAt:  1024,
	}
}

// Insert implements Index.
func (ix *RTree) Insert(q *model.Query) {
	delete(ix.tombstones, q.ID)
	if _, dup := ix.queries[q.ID]; dup {
		return
	}
	ix.queries[q.ID] = q
	ix.tree.Insert(rtree.Entry{Rect: q.Region, Data: q})
}

// Delete implements Index.
func (ix *RTree) Delete(id uint64) {
	if _, ok := ix.queries[id]; !ok {
		return
	}
	ix.tombstones[id] = struct{}{}
	if len(ix.tombstones) >= ix.rebuildAt {
		ix.rebuild()
	}
}

// rebuild drops tombstoned entries by bulk-loading the survivors.
func (ix *RTree) rebuild() {
	live := make([]rtree.Entry, 0, len(ix.queries)-len(ix.tombstones))
	for id, q := range ix.queries {
		if _, dead := ix.tombstones[id]; dead {
			delete(ix.queries, id)
			continue
		}
		live = append(live, rtree.Entry{Rect: q.Region, Data: q})
	}
	ix.tombstones = make(map[uint64]struct{})
	ix.tree = rtree.BulkLoad(live, rtree.DefaultMaxEntries)
}

// Match implements Index.
func (ix *RTree) Match(o *model.Object, fn func(q *model.Query)) {
	pt := geo.Rect{Min: o.Loc, Max: o.Loc}
	ix.tree.Search(pt, func(e rtree.Entry) bool {
		q := e.Data.(*model.Query)
		if _, dead := ix.tombstones[q.ID]; dead {
			return true
		}
		if q.Expr.MatchesSlice(o.Terms) {
			fn(q)
		}
		return true
	})
}

// Get implements Index.
func (ix *RTree) Get(id uint64) *model.Query {
	if _, dead := ix.tombstones[id]; dead {
		return nil
	}
	return ix.queries[id]
}

// Each implements Index.
func (ix *RTree) Each(fn func(q *model.Query)) {
	for id, q := range ix.queries {
		if _, dead := ix.tombstones[id]; dead {
			continue
		}
		fn(q)
	}
}

// QueryCount implements Index.
func (ix *RTree) QueryCount() int {
	return len(ix.queries) - len(ix.tombstones)
}

// Footprint implements Index.
func (ix *RTree) Footprint() int64 {
	var b int64
	for _, q := range ix.queries {
		b += int64(q.SizeBytes()) + 48 // entry + node amortisation
	}
	b += int64(len(ix.tombstones)) * 16
	return b
}
