package migrate

import (
	"testing"

	"ps2stream/internal/load"
)

func TestPlanSplitReducesWorkload(t *testing.T) {
	// A space cell where objects cleanly separate by key: splitting
	// halves the matching product.
	cs := CellShare{
		Cell: 7, Queries: 100, ObjSeen: 1000, SizeBytes: 50000, Text: false,
		Keys: []KeyStat{
			{Key: "alpha", Queries: 50, ObjHits: 500},
			{Key: "beta", Queries: 50, ObjHits: 500},
		},
	}
	actions := PlanPhaseI([]CellShare{cs}, nil, PhaseIConfig{P: 4})
	if len(actions) != 1 {
		t.Fatalf("got %d actions, want 1", len(actions))
	}
	a := actions[0]
	if a.Kind != ActionSplitText || a.Cell != 7 {
		t.Fatalf("unexpected action %+v", a)
	}
	if len(a.Keys) == 0 || len(a.Keys) == 2 {
		t.Errorf("split should move a strict subset of keys, got %v", a.Keys)
	}
	if a.LoadMoved <= 0 {
		t.Errorf("LoadMoved = %v", a.LoadMoved)
	}
}

func TestPlanSplitSkipsWhenNotBeneficial(t *testing.T) {
	// Every object hits every key: splitting duplicates all objects to
	// both halves and cannot win.
	cs := CellShare{
		Cell: 3, Queries: 10, ObjSeen: 100, Text: false,
		Keys: []KeyStat{
			{Key: "a", Queries: 5, ObjHits: 100},
			{Key: "b", Queries: 5, ObjHits: 100},
		},
	}
	actions := PlanPhaseI([]CellShare{cs}, nil, PhaseIConfig{})
	if len(actions) != 0 {
		t.Errorf("expected no actions, got %+v", actions)
	}
}

func TestPlanSplitNeedsTwoKeys(t *testing.T) {
	cs := CellShare{
		Cell: 1, Queries: 50, ObjSeen: 500, Text: false,
		Keys: []KeyStat{{Key: "only", Queries: 50, ObjHits: 400}},
	}
	if actions := PlanPhaseI([]CellShare{cs}, nil, PhaseIConfig{}); len(actions) != 0 {
		t.Errorf("single-key cell cannot split, got %+v", actions)
	}
}

func TestPlanMergeWhenDuplicationDominates(t *testing.T) {
	// Both workers see nearly all of the cell's objects (heavy
	// duplication) with few queries each: merging saves object handling.
	// 900 objects reached both: 1 100 distinct arrivals merged.
	wo := CellShare{Cell: 5, Queries: 3, ObjSeen: 1000, Shared: 900, Text: true}
	wl := map[int]CellShare{
		5: {Cell: 5, Queries: 2, ObjSeen: 1000, Shared: 900, Text: true},
	}
	actions := PlanPhaseI([]CellShare{wo}, wl, PhaseIConfig{})
	if len(actions) != 1 || actions[0].Kind != ActionMergeShares {
		t.Fatalf("expected merge action, got %+v", actions)
	}
}

func TestPlanMergeSkippedWhenMatchingDominates(t *testing.T) {
	// Many queries on both sides: merging would multiply the matching
	// product; the split should stay.
	// 100 objects reached both: 1 000 distinct arrivals merged.
	wo := CellShare{Cell: 5, Queries: 5000, ObjSeen: 600, Shared: 100, Text: true}
	wl := map[int]CellShare{
		5: {Cell: 5, Queries: 5000, ObjSeen: 500, Shared: 100, Text: true},
	}
	actions := PlanPhaseI([]CellShare{wo}, wl, PhaseIConfig{})
	if len(actions) != 0 {
		t.Errorf("expected no merge, got %+v", actions)
	}
}

// TestPlanMergeNeedsSharedObjects: two shares that saw no object in
// common gain nothing by merging, however few queries they hold.
func TestPlanMergeNeedsSharedObjects(t *testing.T) {
	for _, shared := range [2]int64{0, 1000} {
		wo := CellShare{Cell: 5, Queries: 1, ObjSeen: 1000, Shared: shared, Text: true}
		wl := map[int]CellShare{5: {Cell: 5, Queries: 1, ObjSeen: 1000, Text: true}}
		if actions := PlanPhaseI([]CellShare{wo}, wl, PhaseIConfig{}); len(actions) != 0 {
			t.Errorf("w_o shares %d objects, w_l none: merged %+v", shared, actions)
		}
	}
}

func TestPlanMergeRequiresCounterpart(t *testing.T) {
	wo := CellShare{Cell: 9, Queries: 3, ObjSeen: 1000, Text: true}
	actions := PlanPhaseI([]CellShare{wo}, map[int]CellShare{}, PhaseIConfig{})
	if len(actions) != 0 {
		t.Errorf("merge without counterpart share: %+v", actions)
	}
}

func TestPlanPhaseIRespectsP(t *testing.T) {
	var shares []CellShare
	for i := 0; i < 20; i++ {
		shares = append(shares, CellShare{
			Cell: i, Queries: 100, ObjSeen: int64(1000 - i*10), Text: false,
			Keys: []KeyStat{
				{Key: "a", Queries: 50, ObjHits: 400},
				{Key: "b", Queries: 50, ObjHits: 400},
			},
		})
	}
	actions := PlanPhaseI(shares, nil, PhaseIConfig{P: 3})
	if len(actions) > 3 {
		t.Errorf("planner inspected more than P cells: %d actions", len(actions))
	}
}

func TestCellShareLoad(t *testing.T) {
	cs := CellShare{Queries: 4, ObjSeen: 25}
	if got := cs.Load(); got != 100 {
		t.Errorf("Load = %v, want 100", got)
	}
	if load.Cell(0, 5) != 0 {
		t.Error("zero objects should be zero load")
	}
}
