package core

import (
	"context"
	"testing"
	"time"

	"ps2stream/internal/geo"
	"ps2stream/internal/hybrid"
	"ps2stream/internal/model"
	"ps2stream/internal/wire"
	"ps2stream/internal/workload"
)

// TestMigrateSplitMovesOneKeyShare exercises the Phase I split path
// directly: a space cell's share under one registration key moves to
// another worker, the gridt cell becomes a text cell, and matching
// continues for both the moved and the remaining key with no lost
// deliveries.
func TestMigrateSplitMovesOneKeyShare(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 51, 0)
	ms := newMatchSet()
	sys, err := New(Config{
		Workers: 4,
		Builder: hybrid.Builder{},
		OnMatch: ms.add,
	}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	gt := sys.gridT.Load()
	center := sample.Bounds.Center()
	cell := gt.Grid().CellOf(center)
	if gt.IsTextCell(cell) {
		t.Skip("sample produced a text cell at the centre; space cell needed")
	}
	// Two query populations in the same cell under two registration keys.
	region := geo.RectAround(center, 5, 5)
	for i := 0; i < 10; i++ {
		sys.Submit(model.Op{Kind: model.OpInsert, Query: &model.Query{
			ID: uint64(i + 1), Expr: model.And("splitkeya"), Region: region,
		}})
		sys.Submit(model.Op{Kind: model.OpInsert, Query: &model.Query{
			ID: uint64(i + 101), Expr: model.And("splitkeyb"), Region: region,
		}})
	}
	for sys.Processed() < 20 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	wo := gt.CellWorkers(cell)[0]
	wl := (wo + 1) % 4

	moved, nbytes, _ := sys.migrateSplit(wo, wl, cell, []string{"splitkeya"})
	if moved != 10 || nbytes <= 0 {
		t.Fatalf("migrateSplit moved %d queries (%d bytes), want 10", moved, nbytes)
	}
	if !gt.IsTextCell(cell) {
		t.Error("cell did not become a text cell after the split")
	}
	// The moved key routes to wl now; the rest stays on wo.
	oA := &model.Object{ID: 1, Terms: []string{"splitkeya"}, Loc: center}
	oB := &model.Object{ID: 2, Terms: []string{"splitkeyb"}, Loc: center}
	if ws := sys.Assignment().RouteObject(oA); len(ws) != 1 || ws[0] != wl {
		t.Errorf("splitkeya routes to %v, want [%d]", ws, wl)
	}
	if ws := sys.Assignment().RouteObject(oB); len(ws) != 1 || ws[0] != wo {
		t.Errorf("splitkeyb routes to %v, want [%d]", ws, wo)
	}

	// Matching keeps working after the extraction.
	sys.Submit(model.Op{Kind: model.OpObject, Obj: oA})
	sys.Submit(model.Op{Kind: model.OpObject, Obj: oB})
	for sys.Processed() < 22 {
		time.Sleep(time.Millisecond)
	}
	sys.Submit(model.Op{Kind: model.OpObject, Obj: &model.Object{ID: 3, Terms: []string{"splitkeya"}, Loc: center}})
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	for q := uint64(1); q <= 10; q++ {
		if !ms.has(q, 1) || !ms.has(q, 3) {
			t.Fatalf("query %d missed object 1 or 3 after split migration", q)
		}
	}
	for q := uint64(101); q <= 110; q++ {
		if !ms.has(q, 2) {
			t.Fatalf("query %d missed object 2 after split migration", q)
		}
	}
	// After extraction the source worker no longer holds the moved share.
	share, err := roundAs[wire.CellShare](sys, wo, wire.ExtractCells{Cells: []wire.CellSpec{{Cell: cell, Keys: []string{"splitkeya"}}}})
	if err != nil {
		t.Fatal(err)
	}
	if leftover := share.Cells[0].Queries; len(leftover) != 0 {
		t.Errorf("source worker still holds %d splitkeya queries", len(leftover))
	}
}

// dualAssignment's small interface methods (used while a global
// repartition is in flight).
func TestDualAssignmentAccessors(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 52, 0)
	a, err := (hybrid.Builder{}).Build(sample, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (hybrid.Builder{}).Build(sample, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := &dualAssignment{
		old:    a,
		new:    b,
		oldIDs: map[uint64]struct{}{1: {}, 2: {}},
	}
	d.initial = 2
	if d.NumWorkers() != 4 {
		t.Errorf("NumWorkers = %d", d.NumWorkers())
	}
	if d.Name() != "dual(hybrid->hybrid)" {
		t.Errorf("Name = %q", d.Name())
	}
	if fp := d.Footprint(); fp <= a.Footprint() {
		t.Errorf("dual footprint %d not larger than one strategy's %d", fp, a.Footprint())
	}
	rem, init := d.remaining()
	if rem != 2 || init != 2 {
		t.Errorf("remaining = %d/%d", rem, init)
	}
}

// splitCell is a running system whose cell at center is split by key.
type splitCell struct {
	sys          *System
	center       geo.Point
	cell, wo, wl int
}

// splitCenterCell starts a four-worker system whose centre cell holds ten
// queries under key a and ten under key b, and splits it by key with
// migrateSplit: key a moves from the cell's owner wo to wl. It skips the
// test when the sample made the centre a text cell.
func splitCenterCell(t *testing.T, seed int64, onMatch func(model.Match), a, b string) splitCell {
	t.Helper()
	sample, _ := smallWorkload(t, workload.Q1, seed, 0)
	sys, err := New(Config{Workers: 4, Builder: hybrid.Builder{}, OnMatch: onMatch}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	gt := sys.gridT.Load()
	center := sample.Bounds.Center()
	cell := gt.Grid().CellOf(center)
	if gt.IsTextCell(cell) {
		t.Skip("sample produced a text cell at the centre; space cell needed")
	}
	region := geo.RectAround(center, 5, 5)
	for i := range 10 {
		sys.Submit(model.Op{Kind: model.OpInsert, Query: &model.Query{ID: uint64(i + 1), Expr: model.And(a), Region: region}})
		sys.Submit(model.Op{Kind: model.OpInsert, Query: &model.Query{ID: uint64(i + 101), Expr: model.And(b), Region: region}})
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	wo := gt.CellWorkers(cell)[0]
	wl := (wo + 1) % 4
	if moved, _, ok := sys.migrateSplit(wo, wl, cell, []string{a}); !ok || moved != 10 {
		t.Fatalf("migrateSplit moved %d queries (ok %v), want 10", moved, ok)
	}
	return splitCell{sys: sys, center: center, cell: cell, wo: wo, wl: wl}
}

// publish submits n objects with ids from, from+1, … carrying terms at
// the split cell's centre, and drains.
func (sc splitCell) publish(t *testing.T, from, n int, terms ...string) {
	t.Helper()
	for i := range n {
		sc.sys.Submit(model.Op{Kind: model.OpObject, Obj: &model.Object{ID: uint64(from + i), Terms: terms, Loc: sc.center}})
	}
	if err := sc.sys.Drain(); err != nil {
		t.Fatal(err)
	}
}

// cellStat reads slot w's CellStats entry for cell.
func cellStat(t *testing.T, sys *System, w, cell int) wire.CellStat {
	t.Helper()
	reply, err := roundAs[wire.CellStatsReply](sys, w, wire.CellStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range reply.Cells {
		if cs.Cell == cell {
			return cs
		}
	}
	return wire.CellStat{Cell: cell}
}

// The engines' per-cell counts Phase I reads cover the load window: an
// evaluation starts them afresh. An object routed to both owners of a
// split cell counts as shared at each.
func TestCellObjectsFollowTheLoadWindow(t *testing.T) {
	sc := splitCenterCell(t, 53, nil, "cellwindowa", "cellwindowb")
	sys, cell := sc.sys, sc.cell
	sc.publish(t, 1, 300, "cellwindowa", "cellwindowb")
	sys.AdjustNow()
	sc.publish(t, 301, 50, "cellwindowa", "cellwindowb")
	owners := sys.gridT.Load().CellWorkers(cell)
	if len(owners) != 2 {
		t.Fatalf("cell %d has owners %v, want two", cell, owners)
	}
	for _, w := range owners {
		if cs := cellStat(t, sys, w, cell); cs.ObjSeen != 50 || cs.Shared != 50 {
			t.Errorf("worker %d: ObjSeen %d, Shared %d after one evaluation and 50 objects, want 50, 50", w, cs.ObjSeen, cs.Shared)
		}
	}
}

// TestPhaseIMergeRejoinsASplitCell: both shares of a split cell see every
// object, so Phase I merges them back. As many objects in the cell that
// H2 discards, which neither owner handles, do not hide the duplication.
// Every pair is delivered once, before and after the merge.
func TestPhaseIMergeRejoinsASplitCell(t *testing.T) {
	ms := newMatchSet()
	sc := splitCenterCell(t, 51, ms.add, "mergekeya", "mergekeyb")
	sys, cell, wo, wl := sc.sys, sc.cell, sc.wo, sc.wl
	const n = 200
	sc.publish(t, 1, n, "mergekeya", "mergekeyb")
	sc.publish(t, n+1, n, "mergekeydiscarded")
	sys.runAdjustment(wo, wl)

	migs := sys.Migrations()
	if len(migs) != 1 || !migs[0].PhaseI || migs[0].From != wo || migs[0].To != wl || migs[0].QueriesMoved != 10 {
		t.Fatalf("migrations %+v, want one Phase I merge of 10 queries from %d to %d", migs, wo, wl)
	}
	if owners := sys.gridT.Load().CellWorkers(cell); len(owners) != 1 || owners[0] != wl {
		t.Errorf("cell %d has owners %v after the merge, want [%d]", cell, owners, wl)
	}
	sc.publish(t, 2*n+1, n, "mergekeya", "mergekeyb")
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	var queries []uint64 // 1–10 under key a, 101–110 under key b
	for i := range uint64(10) {
		queries = append(queries, i+1, i+101)
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	for _, from := range []int{1, 2*n + 1} {
		for o := uint64(from); o < uint64(from+n); o++ {
			for _, q := range queries {
				if got := ms.seen[[2]uint64{q, o}]; got != 1 {
					t.Fatalf("pair (query %d, object %d) delivered %d times, want once", q, o, got)
				}
			}
		}
	}
	if want := 20 * 2 * n; len(ms.seen) != want {
		t.Errorf("%d pairs delivered, want %d", len(ms.seen), want)
	}
}
