package core

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"ps2stream/internal/geo"
	"ps2stream/internal/hybrid"
	"ps2stream/internal/model"
	"ps2stream/internal/partition"
	"ps2stream/internal/window"
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
		cands = append(cands, cand{id: o.ID, s: window.DefaultScorer.Score(q, e)})
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

// drain waits until every submitted op has been routed and every worker
// queue is empty.
func drain(sys *System, submitted int64) {
	for sys.Processed() < submitted {
		time.Sleep(time.Millisecond)
	}
	for {
		done := true
		for i := range sys.slots {
			if sys.doneOps[i].Load() < sys.enqueued[i].Load() {
				done = false
				break
			}
		}
		if done {
			return
		}
		time.Sleep(time.Millisecond)
	}
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
	b.Apply([]window.Delta{left})
	if len(got) != 0 {
		t.Fatalf("orphan Left delivered updates: %+v", got)
	}
	b.Apply([]window.Delta{entered})
	if len(got) != 0 {
		t.Fatalf("settled debt delivered updates: %+v", got)
	}
	if set := b.set(1); len(set) != 0 {
		t.Fatalf("phantom candidate survives: %v", set)
	}
	// A genuine Entered afterwards still works.
	b.Apply([]window.Delta{entered})
	if len(got) != 1 || !got[0].Entered || got[0].MsgID != 9 {
		t.Fatalf("real membership not delivered: %+v", got)
	}
}

// Deltas racing an Unsubscribe — local Apply calls, remote ApplyFrom
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
					b.Apply([]window.Delta{d})
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
		b.Apply([]window.Delta{{QueryID: q, MsgID: 9999, K: 3, Rank: 1, Rel: 1, Entered: true}})
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
		Dispatchers: 1, Workers: 4,
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
	var submitted int64
	sys.Submit(model.Op{Kind: model.OpInsert, Query: q})
	submitted++
	drain(sys, submitted)

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
		submitted++

		if i%6 == 5 {
			drain(sys, submitted)
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
// and the new owner repairs expiries from the migrated ring.
func TestTopKMigrationHandoff(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 51, 0)
	clk := newFakeClock(time.Date(2026, 3, 1, 10, 0, 0, 0, time.UTC))
	log := &updateLog{}
	sys, err := New(Config{
		Dispatchers: 1, Workers: 4,
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
	var submitted int64
	sys.Submit(model.Op{Kind: model.OpInsert, Query: q})
	submitted++
	drain(sys, submitted)

	var objs []*model.Object
	at := make(map[uint64]time.Time)
	publish := func(id uint64) {
		clk.Advance(time.Second)
		o := &model.Object{ID: id, Terms: []string{"handoff"}, Loc: inside}
		objs = append(objs, o)
		at[id] = clk.Now()
		sys.Submit(model.Op{Kind: model.OpObject, Obj: o})
		submitted++
	}
	// Three before the migration: two in the top-2, one ring-only.
	publish(1)
	publish(2)
	publish(3)
	drain(sys, submitted)
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
	adopted := sys.slots[wl].(*localWorker).eng.TopKSet(q.ID)
	if !equalIDs(adopted, before) {
		t.Fatalf("destination window state %v, want %v", adopted, before)
	}

	// Publishing continues against the migrated cell.
	publish(4)
	drain(sys, submitted)
	sys.processPendingExtracts()

	// After extraction the source holds no window state for the query.
	srcHas := sys.slots[wo].(*localWorker).eng.HasSub(q.ID)
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

	// The migrated ring must serve refills at the new owner: expire the
	// current top-2 and the ring-only message 1 must be promoted if live.
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
		Dispatchers: 1, Workers: 4,
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
	var submitted int64
	sys.Submit(model.Op{Kind: model.OpInsert, Query: q})
	submitted++
	for i := 1; i <= 3; i++ {
		clk.Advance(time.Second)
		sys.Submit(model.Op{Kind: model.OpObject, Obj: &model.Object{
			ID: uint64(i), Terms: []string{"global"}, Loc: center,
		}})
		submitted++
	}
	// The barrier that settles deltas: the drain helper's op counters can
	// all agree before the last delta has reached the board.
	if err := sys.Drain(submitted); err != nil {
		t.Fatal(err)
	}
	before := sys.TopKSet(q.ID)
	if len(before) != 2 {
		t.Fatalf("top-2 before repartition is %v", before)
	}

	// Swap to a different strategy family so the subscription is likely
	// relocated onto workers that never saw the publications.
	if err := sys.GlobalRepartition(sample, partition.GridBuilder{}); err != nil {
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

// Race/expiry stress: publishing concurrently with repeated cell
// migrations must never leave a top-k entry alive past its window, and
// the update stream must stay alternation-consistent. Run with -race.
func TestTopKExpiryUnderConcurrentPublishAndMigrate(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 63, 0)
	log := &updateLog{}
	const win = 250 * time.Millisecond
	sys, err := New(Config{
		Dispatchers: 1, Workers: 4,
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
			sys.processPendingExtracts()
			if !sys.cellPending(cell) {
				owners := gt.CellWorkers(cell)
				if len(owners) == 1 {
					wo := owners[0]
					sys.migrateShare(wo, (wo+1)%4, cell)
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	time.Sleep(600 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Finish any deferred extraction, stop publishing, and let the
	// window empty out.
	for i := 0; i < 50 && sys.cellPending(cell); i++ {
		sys.processPendingExtracts()
		time.Sleep(5 * time.Millisecond)
	}
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
