package core

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ps2stream/internal/geo"
	"ps2stream/internal/hybrid"
	"ps2stream/internal/index/grid"
	"ps2stream/internal/model"
	"ps2stream/internal/partition"
	"ps2stream/internal/window"
	"ps2stream/internal/wire"
	"ps2stream/internal/workload"
)

// fakeClock is a mutex-guarded manual clock for deterministic window
// tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock(t time.Time) *fakeClock { return &fakeClock{t: t} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// updateLog records TopKUpdate deliveries and can replay them into the
// implied current membership set.
type updateLog struct {
	mu  sync.Mutex
	ups []TopKUpdate
}

func (l *updateLog) add(u TopKUpdate) {
	l.mu.Lock()
	l.ups = append(l.ups, u)
	l.mu.Unlock()
}

func (l *updateLog) all() []TopKUpdate {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]TopKUpdate(nil), l.ups...)
}

// currentSet replays the update stream into the membership it implies.
func (l *updateLog) currentSet(qid uint64) []uint64 {
	cur := make(map[uint64]bool)
	for _, u := range l.all() {
		if u.QueryID != qid {
			continue
		}
		if u.Entered {
			cur[u.MsgID] = true
		} else {
			delete(cur, u.MsgID)
		}
	}
	out := make([]uint64, 0, len(cur))
	for id := range cur {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkAlternation fails if any (query, message) pair sees two Entered
// without a Left between them or vice versa — i.e. a lost or duplicated
// update.
func (l *updateLog) checkAlternation(t *testing.T) {
	t.Helper()
	state := make(map[[2]uint64]bool)
	for _, u := range l.all() {
		key := [2]uint64{u.QueryID, u.MsgID}
		if state[key] == u.Entered {
			kind := "Left"
			if u.Entered {
				kind = "Entered"
			}
			t.Fatalf("duplicated %s update for query %d message %d", kind, u.QueryID, u.MsgID)
		}
		state[key] = u.Entered
	}
}

// bruteTopK is the reference: the query's k best live matching messages.
func bruteTopK(q *model.Query, objs []*model.Object, at map[uint64]time.Time, now time.Time) []uint64 {
	cutoff := now.Add(-q.Window)
	type cand struct {
		id uint64
		s  window.Score
	}
	var cands []cand
	for _, o := range objs {
		ts := at[o.ID]
		if !ts.After(cutoff) || !q.Matches(o) {
			continue
		}
		e := window.Entry{MsgID: o.ID, Terms: o.Terms, Loc: o.Loc, At: ts}
		cands = append(cands, cand{id: o.ID, s: window.DecayScorer{}.Score(q, e)})
	}
	sort.Slice(cands, func(i, j int) bool {
		return cands[i].s.Better(cands[j].s, cands[i].id, cands[j].id)
	})
	if len(cands) > q.TopK {
		cands = cands[:q.TopK]
	}
	ids := make([]uint64, 0, len(cands))
	for _, c := range cands {
		ids = append(ids, c.id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Deltas can reach the board out of order across goroutines: a Left
// overtaking its Entered must net to nothing, not leave a phantom
// candidate squatting in the global top-k.
func TestBoardOutOfOrderLeftThenEntered(t *testing.T) {
	var got []TopKUpdate
	b := newTopKBoard(func(u TopKUpdate) { got = append(got, u) })
	b.register(1)
	left := window.Delta{QueryID: 1, MsgID: 9, K: 3, Rank: 5, Rel: 0.5}
	entered := left
	entered.Entered = true
	b.ApplyFrom(0, 0, []window.Delta{left})
	if len(got) != 0 {
		t.Fatalf("orphan Left delivered updates: %+v", got)
	}
	b.ApplyFrom(0, 0, []window.Delta{entered})
	if len(got) != 0 {
		t.Fatalf("settled debt delivered updates: %+v", got)
	}
	if set := b.set(1); len(set) != 0 {
		t.Fatalf("phantom candidate survives: %v", set)
	}
	// A genuine Entered afterwards still works.
	b.ApplyFrom(0, 0, []window.Delta{entered})
	if len(got) != 1 || !got[0].Entered || got[0].MsgID != 9 {
		t.Fatalf("real membership not delivered: %+v", got)
	}
}

// Deltas racing an Unsubscribe — local ApplyFrom calls, remote ApplyFrom
// frames, and the unregister itself on separate goroutines — must
// neither corrupt the board (run with -race) nor revive a retired
// query as a dead boardQuery.
func TestBoardApplyUnsubscribeRace(t *testing.T) {
	b := newTopKBoard(func(TopKUpdate) {})
	const queries = 8
	for q := uint64(1); q <= queries; q++ {
		b.register(q)
	}
	b.track(1) // the odd goroutines below stand in for out-of-process slots
	b.track(3)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				q := uint64(i%queries + 1)
				d := window.Delta{QueryID: q, MsgID: uint64(i), K: 3, Rank: float64(i), Rel: 0.5, Entered: true}
				if g%2 == 0 {
					b.ApplyFrom(0, 0, []window.Delta{d})
				} else {
					b.ApplyFrom(g, 1, []window.Delta{d})
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for q := uint64(1); q <= queries; q++ {
			b.unregister(q)
		}
	}()
	wg.Wait()
	// Every query is unsubscribed now; stragglers must drop at the door.
	for q := uint64(1); q <= queries; q++ {
		b.ApplyFrom(0, 0, []window.Delta{{QueryID: q, MsgID: 9999, K: 3, Rank: 1, Rel: 1, Entered: true}})
		b.ApplyFrom(1, 1, []window.Delta{{QueryID: q, MsgID: 9998, K: 3, Rank: 1, Rel: 1, Entered: true}})
		if set := b.set(q); len(set) != 0 {
			t.Errorf("query %d revived after unsubscribe: %v", q, set)
		}
	}
	b.mu.Lock()
	if len(b.qs) != 0 {
		t.Errorf("%d dead boardQueries survive the unsubscribes", len(b.qs))
	}
	b.mu.Unlock()
}

// The full topology must deliver exactly the brute-force top-k evolution
// for a deterministic publish sequence under a fake clock, including
// expiry past the window.
func TestTopKEndToEndDeterministic(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 77, 0)
	clk := newFakeClock(time.Date(2026, 3, 1, 9, 0, 0, 0, time.UTC))
	log := &updateLog{}
	sys, err := New(Config{
		Workers: 4,
		Builder: hybrid.Builder{},
		Clock:   clk.Now,
		OnTopK:  log.add,
		// A long tick keeps the background sweep out of the test's way;
		// expiry is driven explicitly via AdvanceWindows.
		WindowTick: time.Hour,
	}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	center := sample.Bounds.Center()
	q := &model.Query{
		ID:   1,
		Expr: model.Or("topka", "topkb"),
		// Span many grid cells so several workers hold the subscription.
		Region: geo.RectAround(center, 400, 400),
		TopK:   3,
		Window: time.Minute,
	}
	sys.Submit(model.Op{Kind: model.OpInsert, Query: q})
	sys.Drain()

	// Publish a deterministic spiral of matching and non-matching
	// messages, 2s apart on the fake clock.
	var objs []*model.Object
	at := make(map[uint64]time.Time)
	terms := [][]string{
		{"topka"}, {"topkb", "noise"}, {"topka", "topkb"},
		{"unrelated"}, {"topka", "extra"}, {"topkb"},
	}
	for i := 0; i < 30; i++ {
		clk.Advance(2 * time.Second)
		dx := float64(i%7-3) * 0.3
		dy := float64(i%5-2) * 0.3
		o := &model.Object{
			ID:    uint64(100 + i),
			Terms: terms[i%len(terms)],
			Loc:   geo.Point{X: center.X + dx, Y: center.Y + dy},
		}
		objs = append(objs, o)
		at[o.ID] = clk.Now()
		sys.Submit(model.Op{Kind: model.OpObject, Obj: o})

		if i%6 == 5 {
			sys.Drain()
			sys.AdvanceWindows()
			want := bruteTopK(q, objs, at, clk.Now())
			if got := sys.TopKSet(q.ID); !equalIDs(got, want) {
				t.Fatalf("step %d: top-k %v, brute force %v", i, got, want)
			}
			if got := log.currentSet(q.ID); !equalIDs(got, want) {
				t.Fatalf("step %d: update stream implies %v, brute force %v", i, got, want)
			}
		}
	}
	// Everything must expire out of the window.
	clk.Advance(2 * time.Minute)
	sys.AdvanceWindows()
	if got := sys.TopKSet(q.ID); len(got) != 0 {
		t.Fatalf("entries survived past the window: %v", got)
	}
	if got := log.currentSet(q.ID); len(got) != 0 {
		t.Fatalf("update stream leaves residue after expiry: %v", got)
	}
	log.checkAlternation(t)
}

// A top-k subscription's window state must move with its gridt cell: the
// membership survives the hand-off with no lost or duplicated updates,
// and the new owner promotes held entries when its top-k expires.
func TestTopKMigrationHandoff(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 51, 0)
	clk := newFakeClock(time.Date(2026, 3, 1, 10, 0, 0, 0, time.UTC))
	log := &updateLog{}
	sys, err := New(Config{
		Workers:    4,
		Builder:    hybrid.Builder{},
		Clock:      clk.Now,
		OnTopK:     log.add,
		WindowTick: time.Hour,
	}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	gt := sys.gridT.Load()
	center := sample.Bounds.Center()
	cell := gt.Grid().CellOf(center)
	if gt.IsTextCell(cell) {
		t.Skip("sample produced a text cell at the centre; space cell needed")
	}
	cellRect := gt.Grid().CellRect(cell)
	inside := cellRect.Center()

	q := &model.Query{
		ID:   1,
		Expr: model.And("handoff"),
		// Stay inside one grid cell so the whole subscription migrates.
		Region: geo.RectAround(inside, 1, 1).Clip(cellRect),
		TopK:   2,
		Window: time.Minute,
	}
	sys.Submit(model.Op{Kind: model.OpInsert, Query: q})
	sys.Drain()

	var objs []*model.Object
	at := make(map[uint64]time.Time)
	publishAt := func(id uint64, loc geo.Point) {
		clk.Advance(time.Second)
		o := &model.Object{ID: id, Terms: []string{"handoff"}, Loc: loc}
		objs = append(objs, o)
		at[id] = clk.Now()
		sys.Submit(model.Op{Kind: model.OpObject, Obj: o})
	}
	publish := func(id uint64) { publishAt(id, inside) }
	// Three before the migration: each newer one at the same spot ranks
	// higher, so the top-2 prunes the first.
	publish(1)
	publish(2)
	publish(3)
	sys.Drain()
	before := sys.TopKSet(q.ID)
	if len(before) != 2 {
		t.Fatalf("top-2 before migration is %v", before)
	}

	wo := gt.CellWorkers(cell)[0]
	wl := (wo + 1) % 4
	if moved, _, _ := sys.migrateShare(wo, wl, cell); moved != 1 {
		t.Fatalf("migrateShare moved %d queries, want 1", moved)
	}
	// Membership is unchanged by the hand-off itself.
	if got := sys.TopKSet(q.ID); !equalIDs(got, before) {
		t.Fatalf("migration changed top-k from %v to %v", before, got)
	}
	// The new owner already holds the window state.
	adopted := sys.bolts[wl].eng.TopKSet(q.ID)
	if !equalIDs(adopted, before) {
		t.Fatalf("destination window state %v, want %v", adopted, before)
	}

	// Publishing continues against the migrated cell.
	publish(4)
	sys.Drain()

	// After extraction the source holds no window state for the query.
	srcHas := sys.bolts[wo].eng.HasSub(q.ID)
	if srcHas {
		t.Fatal("source worker still holds window state after extraction")
	}

	sys.AdvanceWindows()
	want := bruteTopK(q, objs, at, clk.Now())
	if got := sys.TopKSet(q.ID); !equalIDs(got, want) {
		t.Fatalf("post-migration top-k %v, brute force %v", got, want)
	}
	if got := log.currentSet(q.ID); !equalIDs(got, want) {
		t.Fatalf("update stream implies %v, brute force %v", got, want)
	}
	log.checkAlternation(t)

	// The new owner promotes from its band: message 5, newer than the
	// top-2 but far from the region's centre, ranks below both and waits
	// in the band until they expire.
	clk.Advance(9 * time.Second)
	publishAt(5, geo.Point{X: inside.X + 0.9*(q.Region.Max.X-inside.X), Y: inside.Y + 0.9*(q.Region.Max.Y-inside.Y)})
	sys.Drain()
	sys.AdvanceWindows()
	if got := sys.TopKSet(q.ID); !equalIDs(got, []uint64{3, 4}) {
		t.Fatalf("top-2 with the weaker message 5 held is %v, want [3 4]", got)
	}
	clk.Advance(time.Minute - 9*time.Second)
	sys.AdvanceWindows()
	want = bruteTopK(q, objs, at, clk.Now())
	if !equalIDs(want, []uint64{5}) {
		t.Fatalf("vacuous: brute force is %v after the top-2 expired, want [5]", want)
	}
	if got := sys.TopKSet(q.ID); !equalIDs(got, want) {
		t.Fatalf("after the top-2 expired at the new owner: top-k %v, brute force %v", got, want)
	}
	log.checkAlternation(t)

	clk.Advance(2 * time.Minute)
	sys.AdvanceWindows()
	if got := sys.TopKSet(q.ID); len(got) != 0 {
		t.Fatalf("entries survived past the window after migration: %v", got)
	}
	log.checkAlternation(t)
}

// A top-k subscription relocated by a global repartition carries its held
// window entries to the new holders: membership survives the strategy
// swap even though the new workers never saw the original publications.
func TestTopKSurvivesGlobalRepartition(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 91, 0)
	clk := newFakeClock(time.Date(2026, 3, 1, 11, 0, 0, 0, time.UTC))
	log := &updateLog{}
	sys, err := New(Config{
		Workers:    4,
		Builder:    hybrid.Builder{},
		Clock:      clk.Now,
		OnTopK:     log.add,
		WindowTick: time.Hour,
	}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	center := sample.Bounds.Center()
	q := &model.Query{
		ID: 1, Expr: model.And("global"),
		Region: geo.RectAround(center, 5, 5),
		TopK:   2, Window: time.Minute,
	}
	sys.Submit(model.Op{Kind: model.OpInsert, Query: q})
	for i := 1; i <= 3; i++ {
		clk.Advance(time.Second)
		sys.Submit(model.Op{Kind: model.OpObject, Obj: &model.Object{
			ID: uint64(i), Terms: []string{"global"}, Loc: center,
		}})
	}
	// Drain settles the deltas too: they reach the board before the
	// marker leaves the worker.
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	before := sys.TopKSet(q.ID)
	if len(before) != 2 {
		t.Fatalf("top-2 before repartition is %v", before)
	}

	// Swap to a different strategy family so the subscription is likely
	// relocated onto workers that never saw the publications.
	if err := sys.GlobalRepartition(sample, partition.KDTreeBuilder{}); err != nil {
		t.Fatal(err)
	}
	if moved := sys.FinishGlobalRepartition(); moved != 1 {
		t.Fatalf("relocated %d queries, want 1", moved)
	}
	if got := sys.TopKSet(q.ID); !equalIDs(got, before) {
		t.Fatalf("global repartition changed top-k from %v to %v", before, got)
	}
	log.checkAlternation(t)

	// Expiry still works on the relocated state.
	clk.Advance(2 * time.Minute)
	sys.AdvanceWindows()
	if got := sys.TopKSet(q.ID); len(got) != 0 {
		t.Fatalf("entries survived the window after repartition: %v", got)
	}
	if got := log.currentSet(q.ID); len(got) != 0 {
		t.Fatalf("update stream leaves residue: %v", got)
	}
}

// One cell receiving more objects within a window than any per-cell
// buffer would keep: the top-1 must still promote the right survivor when
// the best object expires. The best object is followed by a second-best
// one and then 1 100 weaker ones, each newer and so never dominated by
// the second-best.
func TestTopKOracleOneCellManyObjects(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 51, 0)
	clk := newFakeClock(time.Date(2026, 3, 2, 10, 0, 0, 0, time.UTC))
	sys, err := New(Config{Workers: 4, Builder: hybrid.Builder{}, Clock: clk.Now, WindowTick: time.Hour}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	gt := sys.gridT.Load()
	cellRect := gt.Grid().CellRect(gt.Grid().CellOf(sample.Bounds.Center()))
	inside := cellRect.Center()
	q := &model.Query{
		ID: 1, Expr: model.And("crowded"),
		Region: geo.RectAround(inside, 1, 1).Clip(cellRect),
		TopK:   1, Window: time.Minute,
	}
	sys.Submit(model.Op{Kind: model.OpInsert, Query: q})
	sys.Drain()

	// toward places a point the fraction f of the way from the region's
	// centre to its corner: the farther, the lower the relevance.
	c := q.Region.Center()
	toward := func(f float64) geo.Point {
		return geo.Point{X: c.X + f*(q.Region.Max.X-c.X), Y: c.Y + f*(q.Region.Max.Y-c.Y)}
	}
	var objs []*model.Object
	at := make(map[uint64]time.Time)
	publish := func(id uint64, loc geo.Point) {
		o := &model.Object{ID: id, Terms: []string{"crowded"}, Loc: loc}
		objs = append(objs, o)
		at[id] = clk.Now()
		sys.Submit(model.Op{Kind: model.OpObject, Obj: o})
	}
	publish(1, c)
	clk.Advance(5 * time.Second)
	publish(2, toward(0.5))
	for i := uint64(0); i < 1100; i++ {
		clk.Advance(time.Millisecond)
		publish(3+i, toward(0.99))
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	sys.AdvanceWindows()
	if got, want := sys.TopKSet(q.ID), bruteTopK(q, objs, at, clk.Now()); !equalIDs(got, want) || !equalIDs(want, []uint64{1}) {
		t.Fatalf("before expiry: top-1 %v, brute force %v, want [1]", got, want)
	}
	// Message 1 expires; message 2 is still live and outranks the rest.
	clk.Advance(time.Minute - 5*time.Second)
	sys.AdvanceWindows()
	want := bruteTopK(q, objs, at, clk.Now())
	if !equalIDs(want, []uint64{2}) {
		t.Fatalf("vacuous: brute force is %v after message 1 expired, want [2]", want)
	}
	if got := sys.TopKSet(q.ID); !equalIDs(got, want) {
		t.Fatalf("after message 1 expired: top-1 %v, brute force %v", got, want)
	}
}

// With k = 1 the top-k holds the best object only; the newer, weaker one
// that replaces it on expiry must survive a global repartition too, on
// whichever workers the new strategy places the subscription.
func TestTopKGlobalRepartitionKeepsWaitingEntries(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 91, 0)
	clk := newFakeClock(time.Date(2026, 3, 1, 11, 0, 0, 0, time.UTC))
	sys, err := New(Config{Workers: 4, Builder: hybrid.Builder{}, Clock: clk.Now, WindowTick: time.Hour}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	center := sample.Bounds.Center()
	q := &model.Query{
		ID: 1, Expr: model.And("global"),
		Region: geo.RectAround(center, 5, 5),
		TopK:   1, Window: time.Minute,
	}
	sys.Submit(model.Op{Kind: model.OpInsert, Query: q})
	var objs []*model.Object
	at := make(map[uint64]time.Time)
	publish := func(id uint64, loc geo.Point) {
		o := &model.Object{ID: id, Terms: []string{"global"}, Loc: loc}
		objs = append(objs, o)
		at[id] = clk.Now()
		sys.Submit(model.Op{Kind: model.OpObject, Obj: o})
	}
	c := q.Region.Center()
	publish(1, c)
	clk.Advance(10 * time.Second)
	publish(2, geo.Point{X: c.X + 0.9*(q.Region.Max.X-c.X), Y: c.Y + 0.9*(q.Region.Max.Y-c.Y)})
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := sys.TopKSet(q.ID); !equalIDs(got, []uint64{1}) {
		t.Fatalf("top-1 before repartition is %v, want [1]", got)
	}
	if err := sys.GlobalRepartition(sample, partition.KDTreeBuilder{}); err != nil {
		t.Fatal(err)
	}
	if moved := sys.FinishGlobalRepartition(); moved != 1 {
		t.Fatalf("relocated %d queries, want 1", moved)
	}
	clk.Advance(55 * time.Second)
	sys.AdvanceWindows()
	want := bruteTopK(q, objs, at, clk.Now())
	if !equalIDs(want, []uint64{2}) {
		t.Fatalf("vacuous: brute force is %v after message 1 expired, want [2]", want)
	}
	if got := sys.TopKSet(q.ID); !equalIDs(got, want) {
		t.Fatalf("after repartition and expiry: top-1 %v, brute force %v", got, want)
	}
}

// An object published while the finish waits for a stalled departing
// holder: the finish's cut holds every slot, so the object is routed only
// after the finish, under the new strategy, and reaches the new holder
// after the install of the subscription and its band. Were it routed
// earlier, it would pass the new holder by and never replace the expiring
// best one.
func TestTopKGlobalRepartitionCarriesLateEntries(t *testing.T) {
	clk := newFakeClock(time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC))
	const filler = 3 // an object outside the subscription that worker 0 stalls on
	stalled, gate := make(chan struct{}), make(chan struct{})
	sys := startIngestSystem(t, Config{Workers: 2, Clock: clk.Now, WindowTick: time.Hour,
		Builder: &idRouter{route: func(uint64) int { return 0 }}},
		beforeBatch(0, func(ops []wire.OpEnv) {
			for _, env := range ops {
				if env.Op.Kind == model.OpObject && env.Op.Obj.ID == filler {
					close(stalled)
					<-gate
				}
			}
		}))
	defer sys.Close()

	c := sys.Bounds().Center()
	q := &model.Query{ID: 1, Expr: model.And("late"), Region: geo.RectAround(c, 5, 5), TopK: 1, Window: time.Minute}
	var objs []*model.Object
	at := make(map[uint64]time.Time)
	publish := func(id uint64, loc geo.Point) {
		o := &model.Object{ID: id, Terms: []string{"late"}, Loc: loc}
		objs = append(objs, o)
		at[id] = clk.Now()
		sys.Submit(model.Op{Kind: model.OpObject, Obj: o})
	}
	sys.Submit(model.Op{Kind: model.OpInsert, Query: q})
	publish(1, c)
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	sample, _ := smallWorkload(t, workload.Q1, 51, 0)
	if err := sys.GlobalRepartition(sample, &idRouter{route: func(uint64) int { return 1 }}); err != nil {
		t.Fatal(err)
	}
	// Every object now goes to both strategies' workers. Worker 0 stalls
	// on the filler, so the finish's hold waits in its stream.
	publish(filler, geo.Point{X: 2*q.Region.Max.X - c.X, Y: c.Y})
	within(t, 5*time.Second, "worker 0 reaching the filler", stalled)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		sys.FinishGlobalRepartition()
	}()
	for deadline := time.Now().Add(5 * time.Second); len(sys.towork[0]) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the finish's hold never reached worker 0's stream")
		}
	}
	// Message 2, newer and weaker than 1, follows the cut: worker 1 must
	// not see it before the finish has installed the subscription there.
	clk.Advance(10 * time.Second)
	publish(2, geo.Point{X: c.X + 0.9*(q.Region.Max.X-c.X), Y: c.Y + 0.9*(q.Region.Max.Y-c.Y)})
	select {
	case <-finished:
		t.Fatal("FinishGlobalRepartition returned while worker 0 was stalled ahead of its hold")
	case <-time.After(20 * time.Millisecond):
	}
	if n := sys.bolts[1].eng.Stats().Objects; n != 1 {
		t.Fatalf("worker 1 processed %d objects before the finish reached it, want only the filler", n)
	}
	close(gate)
	within(t, 5*time.Second, "FinishGlobalRepartition", finished)

	clk.Advance(55 * time.Second)
	sys.AdvanceWindows()
	want := bruteTopK(q, objs, at, clk.Now())
	if !equalIDs(want, []uint64{2}) {
		t.Fatalf("vacuous: brute force is %v after message 1 expired, want [2]", want)
	}
	if got := sys.TopKSet(q.ID); !equalIDs(got, want) {
		t.Fatalf("after repartition and expiry: top-1 %v, brute force %v", got, want)
	}
}

// TestMoveDeltasReachBoardInEngineOrder: a top-k subscription holds band
// entries in two of the source's cells. Moving one cell makes the
// extraction promote the entry from the other, and an object published
// right after the move displaces it. The source stays held from the cut
// until the extraction's deltas are on the board, so the promotion's
// Entered reaches the board before the displacement's Left: no
// candidate's reference count falls below zero, and TopKSet equals the
// brute force after every step.
func TestMoveDeltasReachBoardInEngineOrder(t *testing.T) {
	clk := newFakeClock(time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC))
	const qid, moved = 50, 100 // objects from id moved on lie in the moved cell and route with it
	var target atomic.Int64
	var topAtB2 []uint64 // the source's local top-k when the displacing object reached it
	sys := startIngestSystem(t, Config{Workers: 2, Clock: clk.Now, WindowTick: time.Hour,
		Builder: &idRouter{route: func(id uint64) int {
			if id >= moved {
				return int(target.Load())
			}
			return 0
		}}},
		func(sys *System) {
			sys.bolts[0].beforeBatch = func(ops []wire.OpEnv) {
				for _, env := range ops {
					if env.Op.Kind == model.OpObject && env.Op.Obj.ID == 2 {
						topAtB2 = sys.bolts[0].eng.TopKSet(qid)
					}
				}
			}
		})
	defer sys.Close()
	src := sys.bolts[0].eng
	g := grid.New(sys.Bounds(), sys.cfg.Granularity, sys.cfg.Granularity)
	cellA := g.CellOf(sys.Bounds().Center())
	ax, ay := g.CellXY(cellA)
	ra, rb := g.CellRect(cellA), g.CellRect(g.CellID(ax+1, ay))
	w, h := ra.Max.X-ra.Min.X, ra.Max.Y-ra.Min.Y
	q := &model.Query{ID: qid, Expr: model.And("band"), TopK: 1, Window: time.Minute,
		Region: geo.Rect{Min: geo.Point{X: ra.Min.X + w/4, Y: ra.Min.Y + h/4}, Max: geo.Point{X: rb.Max.X - w/4, Y: rb.Max.Y - h/4}}}
	midY := (ra.Min.Y + ra.Max.Y) / 2
	var objs []*model.Object
	at := make(map[uint64]time.Time)
	publish := func(id uint64, x float64) {
		o := &model.Object{ID: id, Terms: []string{"band"}, Loc: geo.Point{X: x, Y: midY}}
		objs = append(objs, o)
		clk.Advance(time.Millisecond)
		at[id] = clk.Now()
		sys.Submit(model.Op{Kind: model.OpObject, Obj: o})
	}
	check := func(step string) {
		t.Helper()
		if err := sys.Drain(); err != nil {
			t.Fatal(err)
		}
		sys.board.mu.Lock()
		for qid, bq := range sys.board.qs {
			for msg, c := range bq.cand {
				if c.refs < 0 {
					t.Errorf("%s: refs of query %d message %d are %d", step, qid, msg, c.refs)
				}
			}
		}
		sys.board.mu.Unlock()
		if got, want := sys.TopKSet(q.ID), bruteTopK(q, objs, at, clk.Now()); !equalIDs(got, want) {
			t.Errorf("%s: top-1 %v, brute force %v", step, got, want)
		}
	}
	sys.Submit(model.Op{Kind: model.OpInsert, Query: q})
	check("subscribed")
	publish(moved, ra.Max.X-w/3) // the best entry, in the moved cell
	publish(1, rb.Min.X+2*w/3)   // newer and weaker, in the cell that stays
	check("published")
	if got := src.TopKSet(q.ID); !equalIDs(got, []uint64{moved}) {
		t.Fatalf("vacuous: the source's top-1 is %v, want [%d]", got, moved)
	}

	cut := make(chan struct{})
	handed := make(chan bool, 1)
	go func() {
		_, _, ok := sys.handOff(0, 1, cellA, nil, func() {
			target.Store(1)
			close(cut)
		})
		handed <- ok
	}()
	within(t, 5*time.Second, "the cut", cut)
	publish(2, rb.Min.X+w/3) // newer and better than 1: it displaces 1 at the source
	if !<-handed {
		t.Fatal("handOff failed")
	}
	check("moved and displaced")
	if !equalIDs(topAtB2, []uint64{1}) {
		t.Errorf("vacuous: the source's top-1 was %v when object 2 reached it, want the promoted [1]", topAtB2)
	}
	if got := src.TopKSet(q.ID); !equalIDs(got, []uint64{2}) {
		t.Errorf("the source's top-1 is %v after object 2, want [2]", got)
	}
}

// Race/expiry stress: publishing concurrently with repeated cell
// migrations must never leave a top-k entry alive past its window, and
// the update stream must stay alternation-consistent. Run with -race.
func TestTopKExpiryUnderConcurrentPublishAndMigrate(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 63, 0)
	log := &updateLog{}
	const win = 250 * time.Millisecond
	sys, err := New(Config{
		Workers:    4,
		Builder:    hybrid.Builder{},
		OnTopK:     log.add,
		WindowTick: 20 * time.Millisecond,
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
	cellRect := gt.Grid().CellRect(cell)
	inside := cellRect.Center()
	q := &model.Query{
		ID:     1,
		Expr:   model.And("racer"),
		Region: geo.RectAround(inside, 1, 1).Clip(cellRect),
		TopK:   5,
		Window: win,
	}
	sys.Submit(model.Op{Kind: model.OpInsert, Query: q})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // publisher
		defer wg.Done()
		id := uint64(10)
		for {
			select {
			case <-stop:
				return
			default:
			}
			sys.Submit(model.Op{Kind: model.OpObject, Obj: &model.Object{
				ID: id, Terms: []string{"racer"}, Loc: inside,
			}})
			id++
			time.Sleep(2 * time.Millisecond)
		}
	}()
	go func() { // migrator: bounce the cell around the workers
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if owners := gt.CellWorkers(cell); len(owners) == 1 {
				wo := owners[0]
				sys.migrateShare(wo, (wo+1)%4, cell)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	time.Sleep(600 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Stop publishing and let the window empty out.
	time.Sleep(2 * win)
	sys.AdvanceWindows()
	if got := sys.TopKSet(q.ID); len(got) != 0 {
		t.Fatalf("top-k entries survived past the window: %v", got)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys.AdvanceWindows()
	if got := log.currentSet(q.ID); len(got) != 0 {
		t.Fatalf("update stream leaves residue after expiry: %v", got)
	}
}
