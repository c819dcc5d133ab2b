package hybrid

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ps2stream/internal/geo"
	"ps2stream/internal/model"
	"ps2stream/internal/termtab"
)

// findCell locates a cell of the requested type with at least one live H2
// key for some worker.
func findCell(t *testing.T, gt *GridT, wantText bool) (cellID int, worker int) {
	t.Helper()
	for id := 0; id < gt.Grid().NumCells(); id++ {
		if gt.IsTextCell(id) != wantText {
			continue
		}
		for _, w := range gt.CellWorkers(id) {
			if len(gt.H2Keys(id, w)) > 0 {
				return id, w
			}
		}
	}
	t.Skipf("no %v cell with live H2 keys", wantText)
	return 0, 0
}

func routedGrid(t *testing.T, seed int64) (*GridT, []*model.Query, []*model.Object) {
	t.Helper()
	s := mixedSample(t, seed, 3000, 600)
	gt := buildHybrid(t, s, 8)
	for _, q := range s.Queries {
		gt.RouteQuery(q, true)
	}
	return gt, s.Queries, s.Objects
}

func TestReassignSpaceCell(t *testing.T) {
	gt, queries, objects := routedGrid(t, 20)
	cellID, old := findCell(t, gt, false)
	to := (old + 1) % gt.NumWorkers()
	if got := gt.ReassignSpaceCell(cellID, to); got != old {
		t.Fatalf("ReassignSpaceCell returned %d, want %d", got, old)
	}
	// Objects in that cell must now route to the new worker.
	for _, o := range objects {
		if gt.Grid().CellOf(o.Loc) != cellID {
			continue
		}
		for _, w := range gt.RouteObject(o) {
			if w == old {
				t.Fatalf("object in reassigned cell still routes to %d", old)
			}
		}
	}
	// New queries overlapping only that cell route to the new worker.
	r := gt.Grid().CellRect(cellID)
	c := r.Center()
	q := &model.Query{ID: 999999, Expr: model.And("anything"),
		Region: geo.NewRect(c.X, c.Y, c.X, c.Y)}
	ws := gt.RouteQuery(q, true)
	if len(ws) != 1 || ws[0] != to {
		t.Errorf("fresh query routed to %v, want [%d]", ws, to)
	}
	_ = queries
}

func TestReassignSpaceCellOnTextCellFails(t *testing.T) {
	gt, _, _ := routedGrid(t, 21)
	cellID, _ := findCell(t, gt, true)
	if got := gt.ReassignSpaceCell(cellID, 0); got != -1 {
		t.Errorf("ReassignSpaceCell on text cell returned %d, want -1", got)
	}
}

func TestReassignTextShare(t *testing.T) {
	gt, _, objects := routedGrid(t, 22)
	cellID, from := findCell(t, gt, true)
	keys := gt.H2Keys(cellID, from)
	if len(keys) == 0 {
		t.Skip("no keys")
	}
	to := (from + 1) % gt.NumWorkers()
	moved := gt.ReassignTextShare(cellID, from, to)
	if moved != len(keys) {
		t.Errorf("moved %d H2 keys, want %d", moved, len(keys))
	}
	if got := gt.H2Keys(cellID, from); len(got) != 0 {
		t.Errorf("worker %d still owns keys %v after reassign", from, got)
	}
	// Objects in the cell matching moved keys route to `to`, not `from`.
	keySet := map[string]bool{}
	for _, k := range keys {
		keySet[k] = true
	}
	for _, o := range objects {
		if gt.Grid().CellOf(o.Loc) != cellID {
			continue
		}
		hasKey := false
		for _, term := range o.Terms {
			hasKey = hasKey || keySet[term]
		}
		if !hasKey {
			continue
		}
		for _, w := range gt.RouteObject(o) {
			if w == from {
				t.Fatalf("object with moved key still routed to %d", from)
			}
		}
	}
}

func TestSplitSpaceCellByText(t *testing.T) {
	gt, _, _ := routedGrid(t, 23)
	cellID, old := findCell(t, gt, false)
	keys := gt.H2Keys(cellID, old)
	if len(keys) < 2 {
		t.Skip("cell has too few keys to split")
	}
	movedKeys := keys[:len(keys)/2]
	to := (old + 1) % gt.NumWorkers()
	if got := gt.SplitSpaceCellByText(cellID, movedKeys, to); got != old {
		t.Fatalf("SplitSpaceCellByText returned %d, want %d", got, old)
	}
	if !gt.IsTextCell(cellID) {
		t.Fatal("cell not converted to text cell")
	}
	// Moved keys now route to `to`, the rest stay with `old`.
	for _, k := range movedKeys {
		q := &model.Query{ID: 777000, Expr: model.And(k),
			Region: geo.NewRect(gt.Grid().CellRect(cellID).Center().X, gt.Grid().CellRect(cellID).Center().Y,
				gt.Grid().CellRect(cellID).Center().X, gt.Grid().CellRect(cellID).Center().Y)}
		ws := gt.RouteQuery(q, false) // probe without mutating H2
		if len(ws) != 1 || ws[0] != to {
			t.Errorf("key %q routes to %v, want [%d]", k, ws, to)
		}
	}
	stay := gt.H2Keys(cellID, old)
	if len(stay) != len(keys)-len(movedKeys) {
		t.Errorf("%d keys stayed with %d, want %d", len(stay), old, len(keys)-len(movedKeys))
	}
}

func TestCellWorkersSpace(t *testing.T) {
	gt, _, _ := routedGrid(t, 25)
	cellID, w := findCell(t, gt, false)
	ws := gt.CellWorkers(cellID)
	if len(ws) != 1 || ws[0] != w {
		t.Errorf("CellWorkers = %v, want [%d]", ws, w)
	}
}

func TestH2KeysSorted(t *testing.T) {
	gt, _, _ := routedGrid(t, 26)
	cellID, w := findCell(t, gt, false)
	keys := gt.H2Keys(cellID, w)
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("H2Keys not sorted: %v", keys)
		}
	}
}

// fullScanRoute is RouteObject without the space-cell early exit: every
// term probed, every live entry's worker collected.
func fullScanRoute(gt *GridT, o *model.Object) []int {
	id := gt.g.CellOf(o.Loc)
	mu := gt.lockFor(id)
	mu.RLock()
	defer mu.RUnlock()
	h2 := &gt.cells[id].h2
	var mask uint64
	for _, t := range o.Terms {
		if i := h2.Find(gt.dict.Find(t)); i >= 0 {
			mask |= 1 << h2.Entries()[i].Val.worker
		}
	}
	return maskToWorkers(mask)
}

// TestRouteObjectSpaceCellFirstHit drives one cell through every mutation
// gridt has and checks, after each, what RouteObject's early exit rests
// on: while the cell is a space cell all its H2 entries name its worker,
// and in either kind of cell RouteObject equals the full scan.
func TestRouteObjectSpaceCellFirstHit(t *testing.T) {
	gt, _, _ := routedGrid(t, 27)
	cellID, owner := findCell(t, gt, false)
	at := gt.Grid().CellRect(cellID).Center()
	point := geo.NewRect(at.X, at.Y, at.X, at.Y)
	keys := []string{"fhka", "fhkb", "fhkc"}
	var qs []*model.Query
	for i, k := range keys {
		qs = append(qs, &model.Query{ID: uint64(880000 + i), Expr: model.And(k), Region: point})
	}
	objs := []*model.Object{
		{ID: 1, Terms: []string{"absent", "fhka", "fhkb", "fhkc"}, Loc: at},
		{ID: 2, Terms: []string{"fhkc", "absent"}, Loc: at},
		{ID: 3, Terms: []string{"absent"}, Loc: at},
		{ID: 4, Terms: append([]string{"fhkb"}, gt.H2Keys(cellID, owner)...), Loc: at},
	}
	check := func(step string) {
		t.Helper()
		c := &gt.cells[cellID]
		if c.worker >= 0 {
			for _, e := range c.h2.Entries() {
				if e.Key != 0 && int(e.Val.worker) != c.worker {
					t.Fatalf("%s: space cell of worker %d holds H2[%q] -> %d", step, c.worker, gt.dict.Term(e.Key), e.Val.worker)
				}
			}
		}
		for _, o := range objs {
			got, want := gt.RouteObject(o), fullScanRoute(gt, o)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: RouteObject(%d) = %v, full scan %v", step, o.ID, got, want)
			}
		}
	}
	check("built")
	for _, q := range qs {
		gt.RouteQuery(q, true)
	}
	check("inserted")
	gt.RouteQuery(qs[0], false)
	check("deleted one")
	other := (owner + 1) % gt.NumWorkers()
	gt.ReassignSpaceCell(cellID, other)
	check("reassigned")
	gt.RouteQuery(qs[0], true)
	check("inserted after reassign")
	third := (owner + 2) % gt.NumWorkers()
	if gt.SplitSpaceCellByText(cellID, []string{"fhkb"}, third) != other || !gt.IsTextCell(cellID) {
		t.Fatal("split did not turn the cell into a text cell")
	}
	check("split")
	if ws := gt.RouteObject(objs[0]); len(ws) != 2 {
		t.Fatalf("object carrying both shares routes to %v, want two workers", ws)
	}
}

// A grid handed a dictionary that already gave other terms the low ids,
// before it routes any query, routes every object as a twin on its own
// dictionary does, by its terms and by its ids in the shared dictionary,
// registers the same H2 keys, and does not count the shared dictionary.
func TestUseDictRekeysH2(t *testing.T) {
	s := mixedSample(t, 31, 3000, 600)
	own, gt := buildHybrid(t, s, 8), buildHybrid(t, s, 8)
	shared := new(termtab.Dict)
	for i := 0; i < 100; i++ {
		shared.ID(fmt.Sprintf("usedictfiller%d", i))
	}
	gt.UseDict(shared)
	if gt.Dict() != shared {
		t.Fatal("Dict() is not the dictionary UseDict gave")
	}
	for _, q := range s.Queries {
		own.RouteQuery(q, true)
		gt.RouteQuery(q, true)
	}
	for _, o := range s.Objects {
		want := own.RouteObject(o)
		var ids []uint32
		for _, term := range o.Terms {
			if id := shared.Find(term); id != 0 {
				ids = append(ids, id)
			}
		}
		if got := gt.RouteObject(o); !slices.Equal(got, want) {
			t.Fatalf("object %d: RouteObject %v on the shared dictionary, %v on its own", o.ID, got, want)
		}
		if got := gt.RouteObjectIDs(o, ids); !slices.Equal(got, want) {
			t.Fatalf("object %d: RouteObjectIDs %v, RouteObject gave %v", o.ID, got, want)
		}
	}
	for id := 0; id < gt.Grid().NumCells(); id++ {
		for w := 0; w < gt.NumWorkers(); w++ {
			if got, want := gt.H2Keys(id, w), own.H2Keys(id, w); !reflect.DeepEqual(got, want) {
				t.Fatalf("cell %d worker %d: H2 keys %v on the shared dictionary, %v on its own", id, w, got, want)
			}
		}
	}
	if got, want := gt.Footprint(), own.Footprint()-own.dict.Footprint(); got != want {
		t.Errorf("Footprint %d on the shared dictionary, want %d: its own twin's without the %d-byte dictionary", got, want, own.dict.Footprint())
	}
}

// NoKeysAt holds exactly where a cell's H2 is empty, and there
// RouteObject discards every object; a query inserted into such a cell
// ends it, and deleting the query brings it back.
func TestNoKeysAtDiscardsEveryObject(t *testing.T) {
	gt, _, objs := routedGrid(t, 31)
	idle, busy := 0, 0
	for _, o := range objs {
		if !gt.NoKeysAt(o.Loc) {
			busy++
			continue
		}
		idle++
		if ws := gt.RouteObject(o); len(ws) != 0 {
			t.Fatalf("object %d in a cell with no keys routes to %v", o.ID, ws)
		}
	}
	if idle == 0 || busy == 0 {
		t.Fatalf("vacuous: %d objects in cells with no keys, %d in others", idle, busy)
	}
	for id := 0; id < gt.Grid().NumCells(); id++ {
		at := gt.Grid().CellRect(id).Center()
		if !gt.NoKeysAt(at) {
			continue
		}
		q := &model.Query{ID: 990001, Expr: model.And("nkaterm"), Region: geo.NewRect(at.X, at.Y, at.X, at.Y)}
		gt.RouteQuery(q, true)
		if gt.NoKeysAt(at) {
			t.Fatalf("cell %d has no keys after an insert into it", id)
		}
		gt.RouteQuery(q, false)
		if !gt.NoKeysAt(at) {
			t.Fatalf("cell %d keeps a key after its only query was deleted", id)
		}
		return
	}
	t.Fatal("vacuous: no cell without keys")
}
