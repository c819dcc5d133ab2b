package core

import (
	"context"
	"testing"

	"ps2stream/internal/hybrid"
	"ps2stream/internal/model"
	"ps2stream/internal/partition"
	"ps2stream/internal/wire"
	"ps2stream/internal/workload"
)

// keysSample draws the samples of the registration-key tests: seed 7
// opens the system, seed 13 is what its global repartition builds from.
func keysSample(seed int64) *partition.Sample {
	return workload.Sample(workload.TweetsUS(), workload.Q1, 2000, 400, seed)
}

// insertQueries submits n generated Q1 subscriptions and waits until
// every slot has applied them.
func insertQueries(t *testing.T, sys *System, qg *workload.QueryGenerator, n int) []*model.Query {
	t.Helper()
	qs := make([]*model.Query, n)
	for i := range qs {
		qs[i] = qg.Query()
		sys.Submit(model.Op{Kind: model.OpInsert, Query: qs[i]})
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	return qs
}

// TestSplitAfterGlobalRepartitionExact: a Phase I split after a global
// repartition to another sample moves the source's queries by the keys
// its GI2 reports, and gridt must route their objects to where they went.
// That holds only while gridt registers a query under the keys every GI2
// holds it under, whatever sample the gridt was built from. One object
// per moved query, in the split cell and carrying all of the query's
// terms, must reach every query it matches.
func TestSplitAfterGlobalRepartitionExact(t *testing.T) {
	ms := newMatchSet()
	sys, err := New(Config{Workers: 4, Builder: hybrid.Builder{}, OnMatch: ms.add}, keysSample(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	qs := insertQueries(t, sys, workload.NewQueryGenerator(workload.TweetsUS(), workload.Q1, 7), 3000)
	if err := sys.GlobalRepartition(keysSample(13), nil); err != nil {
		t.Fatal(err)
	}
	sys.FinishGlobalRepartition()

	gt := sys.gridT.Load()
	var objs []*model.Object
	splits := 0
	for wo := 0; wo < 4 && splits < 8; wo++ {
		stats, err := roundAs[wire.CellStatsReply](sys, wo, wire.CellStatsReq{})
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range stats.Cells {
			if ws := gt.CellWorkers(cs.Cell); splits == 8 || len(cs.Terms) < 2 || gt.IsTextCell(cs.Cell) || ws[0] != wo {
				continue
			}
			// As Phase I does: split the cell by some of the keys the
			// source reports for it, and keep the others on the source.
			var keys []string
			for i, ts := range cs.Terms {
				if i%2 == 0 {
					keys = append(keys, ts.Term)
				}
			}
			share, err := roundAs[wire.CellShare](sys, wo, wire.ExtractCells{Cells: []wire.CellSpec{{Cell: cs.Cell, Keys: keys}}})
			if err != nil {
				t.Fatal(err)
			}
			wl := (wo + 1) % 4
			moved, _, ok := sys.migrateSplit(wo, wl, cs.Cell, keys)
			if !ok || moved == 0 || moved != len(share.Cells[0].Queries) {
				t.Fatalf("split of cell %d by %v: moved %d queries (ok %v), the source held %d under those keys",
					cs.Cell, keys, moved, ok, len(share.Cells[0].Queries))
			}
			splits++
			cell := gt.Grid().CellRect(cs.Cell)
			for _, q := range share.Cells[0].Queries {
				in, ok := cell.Intersect(q.Region)
				if at := in.Center(); ok && gt.Grid().CellOf(at) == cs.Cell {
					o := &model.Object{ID: uint64(len(objs) + 1), Terms: q.Expr.Terms(), Loc: at}
					objs = append(objs, o)
					sys.Submit(model.Op{Kind: model.OpObject, Obj: o})
				}
			}
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if splits < 5 {
		t.Fatalf("vacuous: %d splits, want at least 5", splits)
	}
	want := make(map[[2]uint64]bool)
	reached := 0
	for _, o := range objs {
		all := true
		for _, q := range qs {
			if q.Matches(o) {
				want[[2]uint64{q.ID, o.ID}] = true
				all = all && ms.has(q.ID, o.ID)
			}
		}
		if all {
			reached++
		}
	}
	t.Logf("%d splits; %d of %d objects published into the split cells reached every query they match", splits, reached, len(objs))
	assertExact(t, ms, want)
}

// TestGI2KeysHaveH2Entries: every (cell, key) a slot's GI2 reports in
// CellStats has an H2 entry for that key in that cell, after the
// inserts, while a global repartition to another sample routes with both
// gridts, and after it finishes; for in-process slots and a loopback node
// alike. A key H2 lacks is one a split or a share move cannot route to.
func TestGI2KeysHaveH2Entries(t *testing.T) {
	sample := keysSample(7)
	cfg := Config{Workers: 4, Builder: hybrid.Builder{}}
	if err := cfg.ConnectRemoteWorkers(startWorkerNodes(t, 1), sample, wire.Backoff{Attempts: 5}); err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.hop(0) == nil || sys.bolts[1] == nil {
		t.Fatal("slot 0 should be the loopback node and slot 1 in-process")
	}
	check := func(phase string, grids ...*hybrid.GridT) {
		t.Helper()
		for w := 0; w < 4; w++ {
			stats, err := roundAs[wire.CellStatsReply](sys, w, wire.CellStatsReq{})
			if err != nil {
				t.Fatal(err)
			}
			total, missing := 0, 0
			for _, cs := range stats.Cells {
				inH2 := make(map[string]bool)
				for _, gt := range grids {
					for v := 0; v < 4; v++ {
						for _, k := range gt.H2Keys(cs.Cell, v) {
							inH2[k] = true
						}
					}
				}
				for _, ts := range cs.Terms {
					total++
					if !inH2[ts.Term] {
						missing++
					}
				}
			}
			if total == 0 {
				t.Fatalf("%s: vacuous: slot %d reports no registration", phase, w)
			}
			if missing > 0 {
				t.Errorf("%s: slot %d: %d of %d (cell, key) registrations have no H2 entry", phase, w, missing, total)
			}
		}
	}
	qg := workload.NewQueryGenerator(workload.TweetsUS(), workload.Q1, 7)
	insertQueries(t, sys, qg, 3000)
	check("after the inserts", sys.gridT.Load())

	if err := sys.GlobalRepartition(keysSample(13), nil); err != nil {
		t.Fatal(err)
	}
	insertQueries(t, sys, qg, 1000)
	d := sys.dualAssign()
	check("during the dual phase", d.old.(*hybrid.GridT), d.new.(*hybrid.GridT))

	sys.FinishGlobalRepartition()
	check("after the finish", sys.gridT.Load())
}
