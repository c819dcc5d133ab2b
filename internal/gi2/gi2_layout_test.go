package gi2

import (
	"reflect"
	"runtime"
	"testing"

	"ps2stream/internal/geo"
	"ps2stream/internal/model"
	"ps2stream/internal/workload"
)

// Re-inserting a deleted id must install the new definition at once,
// whether or not the deleted one's entries have been dropped yet.
func TestReinsertDeletedIDUsesNewDefinition(t *testing.T) {
	ix := newTestIndex()
	ix.Insert(q(7, model.And("rare"), geo.NewRect(0, 0, 2, 2)))
	ix.Delete(7)
	smaller := q(7, model.And("rare"), geo.NewRect(0, 0, 1, 1))
	ix.Insert(smaller)
	if got := ix.MatchIDs(obj(1, geo.Point{X: 1.5, Y: 1.5}, "rare")); len(got) != 0 {
		t.Errorf("object outside the new region matched %v through the deleted definition", got)
	}
	if got := ix.MatchIDs(obj(2, geo.Point{X: 0.5, Y: 0.5}, "rare")); len(got) != 1 || got[0] != 7 {
		t.Errorf("object inside the new region matched %v, want [7]", got)
	}
	if got := ix.Get(7); !reflect.DeepEqual(got, smaller) {
		t.Errorf("Get(7) = %+v, want the re-inserted definition", got)
	}
	if live, stored := ix.LiveQueryCount(), ix.QueryCount(); live != 1 || stored != 1 {
		t.Errorf("after the traversal dropped the deleted entry: live %d stored %d, want 1 and 1", live, stored)
	}

	// The same with a different keyword: the old one must stop matching.
	ix.Delete(7)
	ix.Insert(q(7, model.And("mid"), geo.NewRect(0, 0, 1, 1)))
	if got := ix.MatchIDs(obj(3, geo.Point{X: 0.5, Y: 0.5}, "rare")); len(got) != 0 {
		t.Errorf("deleted keyword still matches: %v", got)
	}
	if got := ix.MatchIDs(obj(4, geo.Point{X: 0.5, Y: 0.5}, "mid")); len(got) != 1 {
		t.Errorf("new keyword matched %v, want [7]", got)
	}
}

// A steady-state Match allocates nothing: not when every posting is live,
// and not when each call finds a freshly deleted query on the list it
// traverses and drops it.
func TestMatchDoesNotAllocate(t *testing.T) {
	const n = 400
	ix := newTestIndex()
	r := geo.NewRect(1, 1, 2, 2)
	for id := uint64(0); id < n; id++ {
		ix.Insert(q(id, model.And("rare", "mid"), r))
		ix.Insert(q(n+id, model.Or("mid", "common"), r))
	}
	o := obj(1, geo.Point{X: 1.5, Y: 1.5}, "rare", "mid", "common", "unseen")
	matched := 0
	count := func(*model.Query) { matched++ }
	// Let the free list reach its size once, as any index that has seen
	// deletions has.
	for id := uint64(0); id < n/2; id++ {
		ix.Delete(id)
	}
	ix.Match(o, count)
	for id := uint64(0); id < n/2; id++ {
		ix.Insert(q(id, model.And("rare", "mid"), r))
	}

	if a := testing.AllocsPerRun(100, func() { ix.Match(o, count) }); a != 0 {
		t.Errorf("Match over live postings allocates %.1f times per call", a)
	}
	if matched == 0 {
		t.Fatal("the measured object matched nothing")
	}
	next := uint64(0)
	a := testing.AllocsPerRun(100, func() {
		ix.Delete(next)
		next++
		before := ix.EntryCount()
		ix.Match(o, count)
		if ix.EntryCount() != before-1 {
			t.Fatalf("Match dropped %d entries, want the one deleted", before-ix.EntryCount())
		}
	})
	if a != 0 {
		t.Errorf("Match dropping a dead posting allocates %.1f times per call", a)
	}
}

// Footprint must describe the heap the index really holds: 50k generated
// Q1 queries, whose definitions the index does not keep, within a fifth
// of what the runtime says was allocated.
func TestFootprintTracksHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates the 50k-query index")
	}
	ds := workload.TweetsUS()
	stats := workload.Sample(ds, workload.Q1, 20000, 4000, 2017).Stats
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	qg := workload.NewQueryGenerator(ds, workload.Q1, 99)
	before := heap()
	ix := New(ds.Bounds, 64, stats)
	for i := 0; i < 50000; i++ {
		ix.Insert(qg.Query())
	}
	grown := float64(heap() - before)
	got := float64(ix.Footprint())
	t.Logf("Footprint %.2f MB, heap growth %.2f MB (%.0f%%), %d queries, %d entries",
		got/(1<<20), grown/(1<<20), 100*got/grown, ix.QueryCount(), ix.EntryCount())
	if got < 0.8*grown || got > 1.2*grown {
		t.Errorf("Footprint = %.0f bytes, heap grew by %.0f: off by more than 20%%", got, grown)
	}
	runtime.KeepAlive(qg)
}
