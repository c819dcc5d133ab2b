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

// The per-cell arrivals Phase I's merge bound reads cover the load
// window, as the workers' per-cell ObjSeen does: an evaluation starts
// both afresh.
func TestCellObjectsFollowTheLoadWindow(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 53, 0)
	sys, err := New(Config{Workers: 4, Builder: hybrid.Builder{}}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	center := sample.Bounds.Center()
	cell := sys.gridT.Load().Grid().CellOf(center)
	publish := func(from, n int) {
		for i := range n {
			sys.Submit(model.Op{Kind: model.OpObject, Obj: &model.Object{
				ID: uint64(from + i), Terms: []string{"cellwindow"}, Loc: center,
			}})
		}
		if err := sys.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	publish(1, 300)
	sys.AdjustNow()
	publish(301, 50)
	if got := sys.cellObjTotal(cell); got != 50 {
		t.Errorf("cellObjTotal = %d after one evaluation and 50 objects, want 50", got)
	}
}
