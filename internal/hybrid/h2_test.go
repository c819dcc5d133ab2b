package hybrid

import (
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"ps2stream/internal/geo"
	"ps2stream/internal/model"
	"ps2stream/internal/textutil"
	"ps2stream/internal/workload"
)

// refCell is the reference model of one gridt cell: plain maps, no
// dictionary, no shared H1.
type refCell struct {
	worker   int // -1 for a text cell
	h1       map[string]int
	fallback []int
	h2       map[string]refEntry
}

type refEntry struct{ worker, count int }

func (c *refCell) owner(key string) int {
	if e, ok := c.h2[key]; ok {
		return e.worker
	}
	if c.worker >= 0 {
		return c.worker
	}
	if w, ok := c.h1[key]; ok {
		return w
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return c.fallback[int(h.Sum32())%len(c.fallback)]
}

func (c *refCell) workers() []int {
	if c.worker >= 0 {
		return []int{c.worker}
	}
	var mask uint64
	for _, w := range c.fallback {
		mask |= 1 << w
	}
	for _, w := range c.h1 {
		mask |= 1 << w
	}
	for _, e := range c.h2 {
		mask |= 1 << e.worker
	}
	return maskToWorkers(mask)
}

func (c *refCell) keys(w int) []string {
	var out []string
	for k, e := range c.h2 {
		if e.worker == w {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func (c *refCell) moveShare(from, to int) int {
	for k, w := range c.h1 {
		if w == from {
			c.h1[k] = to
		}
	}
	for i, w := range c.fallback {
		if w == from {
			c.fallback[i] = to
		}
	}
	moved := 0
	for k, e := range c.h2 {
		if e.worker == from {
			c.h2[k] = refEntry{to, e.count}
			moved++
		}
	}
	return moved
}

// refGrid is gridt's routing state as the reference keeps it; it borrows
// only the grid's geometry, and picks registration keys by the sample's
// term statistics.
type refGrid struct {
	gt    *GridT
	stats *textutil.Stats
	cells []*refCell
}

func newRefGrid(gt *GridT, stats *textutil.Stats) *refGrid {
	r := &refGrid{gt: gt, stats: stats, cells: make([]*refCell, len(gt.cells))}
	for i := range gt.cells {
		c := &gt.cells[i]
		r.cells[i] = &refCell{worker: c.worker, h1: maps.Clone(c.h1), fallback: slices.Clone(c.fallback), h2: map[string]refEntry{}}
	}
	return r
}

func (r *refGrid) routeQuery(q *model.Query, insert bool) []int {
	keys := r.stats.RegistrationKeys(q.Expr.Conj)
	var mask uint64
	r.gt.Grid().VisitOverlapping(q.Region, func(id int) {
		c := r.cells[id]
		for _, k := range keys {
			w := c.owner(k)
			mask |= 1 << w
			e, held := c.h2[k]
			switch {
			case insert:
				c.h2[k] = refEntry{w, e.count + 1}
			case held && e.count > 1:
				c.h2[k] = refEntry{w, e.count - 1}
			case held:
				delete(c.h2, k)
			}
		}
	})
	return maskToWorkers(mask)
}

func (r *refGrid) routeObject(o *model.Object) []int {
	c := r.cells[r.gt.Grid().CellOf(o.Loc)]
	var mask uint64
	for _, t := range o.Terms {
		if e, ok := c.h2[t]; ok {
			mask |= 1 << e.worker
		}
	}
	return maskToWorkers(mask)
}

func (r *refGrid) reassignSpace(id, to int) int {
	c := r.cells[id]
	if c.worker < 0 {
		return -1
	}
	old := c.worker
	c.worker = to
	c.moveShare(old, to)
	return old
}

func (r *refGrid) reassignText(id, from, to int) int {
	if c := r.cells[id]; c.worker < 0 {
		return c.moveShare(from, to)
	}
	return 0
}

func (r *refGrid) split(id int, keys []string, to int) int {
	c := r.cells[id]
	if c.worker < 0 {
		return -1
	}
	old := c.worker
	c.worker, c.h1, c.fallback = -1, map[string]int{}, []int{old}
	for _, k := range keys {
		c.h1[k] = to
		if e, ok := c.h2[k]; ok {
			c.h2[k] = refEntry{to, e.count}
		}
	}
	return old
}

// TestH2MatchesReference drives gridt through a seeded random sequence of
// query inserts and deletes — keys shared across many cells, deletes of
// keys no cell holds, a cell emptied and refilled — interleaved with
// every cell mutation of §V, and after each step compares RouteQuery,
// RouteObject, H2Keys and CellWorkers over a block of cells with a
// reference that keeps H2 as a map per cell. Queries reach the grid in
// the order a dispatcher gives them (each conjunction's least frequent
// term first), and the reference picks their keys by the sample's
// statistics.
func TestH2MatchesReference(t *testing.T) {
	s := mixedSample(t, 44, 3000, 600)
	gt := buildHybrid(t, s, 8)
	ref := newRefGrid(gt, s.Stats)
	g := gt.Grid()
	rng := rand.New(rand.NewSource(44))

	// An 8×8 block across the middle of the space, where the text-friendly
	// left half meets the space-friendly right half.
	const side = 8
	x0, y0 := g.NX()/2-side/2, g.NY()/2-side/2
	var block []int
	text := 0
	for y := y0; y < y0+side; y++ {
		for x := x0; x < x0+side; x++ {
			block = append(block, g.CellID(x, y))
			if gt.IsTextCell(g.CellID(x, y)) {
				text++
			}
		}
	}
	if text == 0 || text == len(block) {
		t.Fatalf("the block has %d text cells of %d; want both kinds", text, len(block))
	}
	vocab := make([]string, 30)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("k%02d", i)
	}
	pickKeys := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = vocab[rng.Intn(len(vocab))]
		}
		return out
	}
	// region spans 1–3 cells each way inside the block, or one cell.
	region := func(one bool) geo.Rect {
		w, h := 1+rng.Intn(3), 1+rng.Intn(3)
		if one {
			w, h = 1, 1
		}
		x, y := x0+rng.Intn(side-w+1), y0+rng.Intn(side-h+1)
		lo := g.CellRect(g.CellID(x, y)).Center()
		hi := g.CellRect(g.CellID(x+w-1, y+h-1)).Center()
		return geo.NewRect(lo.X, lo.Y, hi.X, hi.Y)
	}
	nextID := uint64(1)
	newQuery := func(r geo.Rect) *model.Query {
		nextID++
		keys := pickKeys(1 + rng.Intn(3))
		expr := model.Or(keys...)
		if rng.Intn(3) == 0 {
			expr = model.And(keys...)
		}
		expr.Conj, _ = s.Stats.KeyFirst(expr.Conj)
		return &model.Query{ID: nextID, Expr: expr, Region: r}
	}
	var live []*model.Query
	insert := func(q *model.Query) {
		got, want := gt.RouteQuery(q, true), ref.routeQuery(q, true)
		if !slices.Equal(got, want) {
			t.Fatalf("insert %v: RouteQuery = %v, reference %v", q.Expr, got, want)
		}
		live = append(live, q)
	}
	remove := func(i int) {
		q := live[i]
		live = slices.Delete(live, i, i+1)
		if got, want := gt.RouteQuery(q, false), ref.routeQuery(q, false); !slices.Equal(got, want) {
			t.Fatalf("delete %v: RouteQuery = %v, reference %v", q.Expr, got, want)
		}
	}
	pickWorkers := func(id int) (from, to int) {
		ws := ref.cells[id].workers()
		from = ws[rng.Intn(len(ws))]
		return from, (from + 1 + rng.Intn(7)) % 8
	}

	check := func(step int, what string) {
		t.Helper()
		for _, id := range block {
			at := g.CellRect(id).Center()
			if got, want := gt.CellWorkers(id), ref.cells[id].workers(); !slices.Equal(got, want) {
				t.Fatalf("step %d (%s) cell %d: CellWorkers = %v, reference %v", step, what, id, got, want)
			}
			for w := 0; w < 8; w++ {
				if got, want := gt.H2Keys(id, w), ref.cells[id].keys(w); !slices.Equal(got, want) {
					t.Fatalf("step %d (%s) cell %d: H2Keys(%d) = %v, reference %v", step, what, id, w, got, want)
				}
			}
			objs := []*model.Object{
				{ID: 1, Terms: append(pickKeys(1+rng.Intn(4)), "unknown"), Loc: at},
				{ID: 2, Terms: vocab, Loc: at},
			}
			for _, o := range objs {
				if got, want := gt.RouteObject(o), ref.routeObject(o); !slices.Equal(got, want) {
					t.Fatalf("step %d (%s) cell %d: RouteObject(%v) = %v, reference %v", step, what, id, o.Terms, got, want)
				}
			}
		}
	}

	// effective counts the mutations that changed the routing, so that the
	// sequence cannot pass by never reaching one.
	effective := map[string]int{}
	for step := 0; step < 400; step++ {
		id := block[rng.Intn(len(block))]
		var what string
		switch p := rng.Intn(100); {
		case step == 150 || step == 300:
			// Empty one cell of every live query over it, then refill it.
			what = "empty and refill"
			for i := len(live) - 1; i >= 0; i-- {
				overlaps := false
				g.VisitOverlapping(live[i].Region, func(c int) { overlaps = overlaps || c == id })
				if overlaps {
					remove(i)
				}
			}
			check(step, "emptied")
			for w := 0; w < 8; w++ {
				if keys := gt.H2Keys(id, w); len(keys) != 0 {
					t.Fatalf("step %d: emptied cell %d still holds %v for worker %d", step, id, keys, w)
				}
			}
			at := g.CellRect(id).Center()
			for i := 0; i < 12; i++ {
				insert(newQuery(geo.NewRect(at.X, at.Y, at.X, at.Y)))
			}
		case p < 45:
			what = "insert"
			insert(newQuery(region(rng.Intn(4) == 0)))
		case p < 70 && len(live) > 0:
			what = "delete"
			remove(rng.Intn(len(live)))
		case p < 75:
			what = "delete absent"
			q := newQuery(region(false))
			q.Expr = model.Or("absent", vocab[rng.Intn(len(vocab))]) // one term per conjunction: already ordered
			if got, want := gt.RouteQuery(q, false), ref.routeQuery(q, false); !slices.Equal(got, want) {
				t.Fatalf("step %d: deleting a query never inserted: RouteQuery = %v, reference %v", step, got, want)
			}
		case p < 81:
			what = "ReassignSpaceCell"
			_, to := pickWorkers(id)
			got, want := gt.ReassignSpaceCell(id, to), ref.reassignSpace(id, to)
			if got != want {
				t.Fatalf("step %d: ReassignSpaceCell(%d, %d) = %d, reference %d", step, id, to, got, want)
			}
			if want >= 0 {
				effective[what]++
			}
		case p < 88:
			what = "SplitSpaceCellByText"
			from, to := pickWorkers(id)
			keys := ref.cells[id].keys(from)
			keys = append(keys[:len(keys)/2:len(keys)/2], pickKeys(1)...)
			got, want := gt.SplitSpaceCellByText(id, keys, to), ref.split(id, keys, to)
			if got != want {
				t.Fatalf("step %d: SplitSpaceCellByText(%d, %v, %d) = %d, reference %d", step, id, keys, to, got, want)
			}
			if want >= 0 {
				effective[what]++
			}
		default:
			what = "ReassignTextShare"
			from, to := pickWorkers(id)
			got, want := gt.ReassignTextShare(id, from, to), ref.reassignText(id, from, to)
			if got != want {
				t.Fatalf("step %d: ReassignTextShare(%d, %d, %d) = %d, reference %d", step, id, from, to, got, want)
			}
			if want > 0 {
				effective[what]++
			}
		}
		check(step, what)
	}
	t.Logf("mutations that changed the routing: %v", effective)
	for _, m := range []string{"ReassignSpaceCell", "SplitSpaceCellByText", "ReassignTextShare"} {
		if effective[m] == 0 {
			t.Errorf("no %s changed the routing", m)
		}
	}
}

// TestGridTConcurrentDictionaryGrowth routes queries with fresh terms,
// which grow the key dictionary, while objects carrying those terms are
// routed and H2Keys is read. An object routed after its term's query was
// registered must reach a worker. Run it under -race.
func TestGridTConcurrentDictionaryGrowth(t *testing.T) {
	gt, _, _ := routedGrid(t, 45)
	g := gt.Grid()
	const perWriter = 3000
	type placed struct {
		term string
		at   geo.Point
	}
	registered := make(chan placed, 2*perWriter)
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				term := fmt.Sprintf("fresh%d_%d", w, i)
				at := g.CellRect(rng.Intn(g.NumCells())).Center()
				q := &model.Query{ID: uint64(1e6 + w*perWriter + i), Expr: model.And(term), Region: geo.NewRect(at.X, at.Y, at.X, at.Y)}
				if len(gt.RouteQuery(q, true)) == 0 {
					t.Errorf("query on %q routed to no worker", term)
				}
				registered <- placed{term, at}
			}
		}(w)
	}
	errs := make(chan string, 2)
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for p := range registered {
				o := &model.Object{Terms: []string{"unregistered", p.term}, Loc: p.at}
				if len(gt.RouteObject(o)) == 0 {
					select {
					case errs <- fmt.Sprintf("object carrying %q routed nowhere after its query was registered", p.term):
					default:
					}
				}
			}
		}()
	}
	stop := make(chan struct{})
	var keysReader sync.WaitGroup
	keysReader.Add(1)
	go func() {
		defer keysReader.Done()
		rng := rand.New(rand.NewSource(2))
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := rng.Intn(g.NumCells())
			for _, w := range gt.CellWorkers(id) {
				gt.H2Keys(id, w)
			}
		}
	}()
	writers.Wait()
	close(registered)
	readers.Wait()
	close(stop)
	keysReader.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestGridTFootprintTracksHeap is the twin of gi2's TestFootprintTracksHeap:
// Footprint (Figure 9's dispatcher memory) must be within a fifth of the
// heap the partitioner holds after 100k generated Q1 subscriptions have
// been routed.
func TestGridTFootprintTracksHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("routes 100k subscriptions")
	}
	ds := workload.TweetsUS()
	s := workload.Sample(ds, workload.Q1, 20000, 4000, 2017)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	qg := workload.NewQueryGenerator(ds, workload.Q1, 99)
	before := heap()
	gt := buildHybrid(t, s, 4)
	for i := 0; i < 100000; i++ {
		gt.RouteQuery(qg.Query(), true)
	}
	grown := float64(heap() - before)
	got := float64(gt.Footprint())
	t.Logf("Footprint %.2f MB, heap growth %.2f MB (%.0f%%)", got/(1<<20), grown/(1<<20), 100*got/grown)
	if got < 0.8*grown || got > 1.2*grown {
		t.Errorf("Footprint = %.0f bytes, heap grew by %.0f: off by more than 20%%", got, grown)
	}
	runtime.KeepAlive(qg)
	runtime.KeepAlive(s)
}
