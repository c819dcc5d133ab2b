package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ps2stream/internal/geo"
	"ps2stream/internal/hybrid"
	"ps2stream/internal/model"
	"ps2stream/internal/partition"
	"ps2stream/internal/wire"
	"ps2stream/internal/workload"
)

// deliveries counts OnMatch calls per (query, object) pair and per
// producing worker. The matchSet helpers are sets and would hide a pair
// delivered twice.
type deliveries struct {
	mu       sync.Mutex
	pairs    map[[2]uint64]int
	byWorker map[int]int64
}

func newDeliveries() *deliveries {
	return &deliveries{pairs: make(map[[2]uint64]int), byWorker: make(map[int]int64)}
}

func (d *deliveries) add(m model.Match) {
	d.mu.Lock()
	d.pairs[[2]uint64{m.QueryID, m.ObjectID}]++
	d.byWorker[m.Worker]++
	d.mu.Unlock()
}

// checkExactlyOnce fails unless every pair of want was delivered exactly
// once and nothing else was delivered.
func (d *deliveries) checkExactlyOnce(t *testing.T, want map[[2]uint64]bool) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(want) == 0 {
		t.Fatal("vacuous: the oracle holds no matches")
	}
	var missing, twice, extra int
	for k := range want {
		switch n := d.pairs[k]; {
		case n == 0:
			missing++
		case n > 1:
			twice++
		}
	}
	for k := range d.pairs {
		if !want[k] {
			extra++
		}
	}
	if missing+twice+extra > 0 {
		t.Errorf("%d pairs missing, %d delivered more than once, %d not in the oracle (of %d)",
			missing, twice, extra, len(want))
	}
}

// spaceOnly builds a gridt without text cells (every node is similar
// enough at δ = 0), so every object has one target.
func spaceOnly() partition.Builder {
	cfg := hybrid.DefaultConfig()
	cfg.Delta = 0
	return hybrid.Builder{Config: cfg}
}

func requireSpaceOnly(t *testing.T, sys *System) {
	t.Helper()
	gt := sys.gridT.Load()
	for id := 0; id < gt.Grid().NumCells(); id++ {
		if gt.IsTextCell(id) {
			t.Fatalf("cell %d is a text cell; the test needs a space-only gridt", id)
		}
	}
}

// TestSoloSpaceOnlySkipsTheWindow: on a space-partitioned gridt no object
// reaches two workers, so every match is delivered without a window probe
// — and still exactly once, under a stream that subscribes and
// unsubscribes while objects flow.
func TestSoloSpaceOnlySkipsTheWindow(t *testing.T) {
	sample, ops := smallWorkload(t, workload.Q1, 61, 6000)
	del := newDeliveries()
	sys, err := New(Config{Workers: 4, Mergers: 2, Builder: spaceOnly(), OnMatch: del.add}, sample)
	if err != nil {
		t.Fatal(err)
	}
	requireSpaceOnly(t, sys)
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	sys.SubmitAll(ops)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	del.checkExactlyOnce(t, oracleMatches(ops))
	snap := sys.Snapshot()
	if snap.SoloMatches != snap.Matches || snap.Matches != sys.MatchCount() || snap.Duplicates != 0 {
		t.Errorf("SoloMatches %d, Matches %d, Duplicates %d: want every match solo and none duplicated",
			snap.SoloMatches, snap.Matches, snap.Duplicates)
	}
}

// TestSoloMatchesSkipTheMerger: on an all-Solo stream the workers
// deliver every match themselves. Each oracle pair is delivered exactly
// once, Drain returns only once the last (slow) callback has returned,
// and no match reaches a merger.
func TestSoloMatchesSkipTheMerger(t *testing.T) {
	// Mergers are always in-process; the subtest name says so.
	t.Run("remoteMerger=false", func(t *testing.T) {
		sample, ops := smallWorkload(t, workload.Q1, 65, 6000)
		del := newDeliveries()
		var inFlight atomic.Int64
		cfg := Config{Workers: 4, Mergers: 2, Builder: spaceOnly(), OnMatch: func(m model.Match) {
			inFlight.Add(1)
			defer inFlight.Add(-1)
			time.Sleep(20 * time.Microsecond)
			del.add(m)
		}}
		sys, err := New(cfg, sample)
		if err != nil {
			t.Fatal(err)
		}
		requireSpaceOnly(t, sys)
		if err := sys.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		defer sys.Abort()
		sys.SubmitAll(ops)
		if err := sys.Drain(); err != nil {
			t.Fatal(err)
		}
		if n := inFlight.Load(); n != 0 {
			t.Errorf("Drain returned with %d OnMatch callbacks still running", n)
		}
		want := oracleMatches(ops)
		del.checkExactlyOnce(t, want)
		snap := sys.Snapshot()
		if snap.SoloMatches != int64(len(want)) || snap.Matches != snap.SoloMatches || snap.Duplicates != 0 {
			t.Errorf("SoloMatches %d, Matches %d, Duplicates %d: want all %d matches solo, none duplicated",
				snap.SoloMatches, snap.Matches, snap.Duplicates, len(want))
		}
		if got := seriesValue(t, sys, "ps2_bolt_processed_total", "bolt", "merger"); got != 0 {
			t.Errorf("ps2_bolt_processed_total{bolt=\"merger\"} = %v, want 0", got)
		}
	})
}

// publishWhile submits ops from its own goroutine and returns, once the
// first of them have been routed, a function that waits for the rest; the
// caller migrates meanwhile, so objects are in flight across the cut and
// the extraction.
func publishWhile(sys *System, ops []model.Op) (wait func()) {
	done := make(chan struct{})
	routed := sys.Processed()
	go func() {
		defer close(done)
		sys.SubmitAll(ops)
	}()
	for sys.Processed() < routed+int64(len(ops))/8 {
		runtime.Gosched() // let the stream get going before the caller migrates
	}
	return func() { <-done }
}

// TestSoloAcrossTextSplit: objects flow while a hot space cell is split by
// text. Before the flip an object has one target and is Solo; after it an
// object carrying both shares' keys reaches both workers, so its matches
// are not Solo and go through the window.
func TestSoloAcrossTextSplit(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 62, 0)
	del := newDeliveries()
	// handOff's cut falls between two operations the one dispatcher
	// routes, so its extraction follows every operation routed to the
	// source under the old table.
	sys, err := New(Config{Workers: 4, Builder: hybrid.Builder{}, OnMatch: del.add}, sample)
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
	region := geo.RectAround(center, 5, 5)
	want := make(map[[2]uint64]bool)
	for i := 0; i < 10; i++ {
		sys.Submit(model.Op{Kind: model.OpInsert, Query: &model.Query{ID: uint64(1 + i), Expr: model.And("splitkeya"), Region: region}})
		sys.Submit(model.Op{Kind: model.OpInsert, Query: &model.Query{ID: uint64(101 + i), Expr: model.And("splitkeyb"), Region: region}})
	}
	sys.Drain()
	var objs []model.Op
	for i := 0; i < 3000; i++ {
		o := &model.Object{ID: uint64(1000 + i), Loc: center}
		switch i % 3 {
		case 0:
			o.Terms = []string{"splitkeya"}
		case 1:
			o.Terms = []string{"splitkeyb"}
		default:
			o.Terms = []string{"splitkeya", "splitkeyb"}
		}
		for q := 0; q < 10; q++ {
			if i%3 != 1 {
				want[[2]uint64{uint64(1 + q), o.ID}] = true
			}
			if i%3 != 0 {
				want[[2]uint64{uint64(101 + q), o.ID}] = true
			}
		}
		objs = append(objs, model.Op{Kind: model.OpObject, Obj: o})
	}
	wait := publishWhile(sys, objs[:2000])
	wo := gt.CellWorkers(cell)[0]
	if moved, _, ok := sys.migrateSplit(wo, (wo+1)%4, cell, []string{"splitkeya"}); !ok || moved != 10 {
		t.Fatalf("migrateSplit moved %d queries (ok %v), want 10", moved, ok)
	}
	wait()
	sys.Drain()
	sys.SubmitAll(objs[2000:])
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	del.checkExactlyOnce(t, want)
	snap := sys.Snapshot()
	if snap.SoloMatches == 0 || snap.SoloMatches >= snap.Matches {
		t.Errorf("SoloMatches %d of %d: single-key objects must be solo, two-key objects after the split must not",
			snap.SoloMatches, snap.Matches)
	}
	t.Logf("solo %d, windowed %d, duplicates %d", snap.SoloMatches, snap.Matches-snap.SoloMatches, snap.Duplicates)
}

// TestSoloAcrossGlobalRepartition: objects flow through GlobalRepartition
// and FinishGlobalRepartition. While both strategies route, an object goes
// to the union of their targets, and a query held by both of an object's
// targets reports it twice: the union is not Solo, so the window sees the
// repeat (Duplicates > 0) and every pair is still delivered once.
func TestSoloAcrossGlobalRepartition(t *testing.T) {
	spec := workload.TweetsUS()
	spec.VocabSize = 2000
	sample := workload.Sample(spec, workload.Q1, 2000, 400, 63)
	del := newDeliveries()
	sys, err := New(Config{Workers: 4, Builder: partition.KDTreeBuilder{}, OnMatch: del.add}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The old strategy's queries are registered before the first object,
	// the "late" ones once both strategies route and before the first
	// object that carries their terms. The wide ones are held by every
	// worker whose cells they cover.
	wide := func(id uint64, term string) model.Op {
		return model.Op{Kind: model.OpInsert, Query: &model.Query{ID: id, Expr: model.And(term), Region: spec.Bounds}}
	}
	qg := workload.NewQueryGenerator(spec, workload.Q1, 63)
	var early, late, first, rest []model.Op
	for i := 0; i < 300; i++ {
		early = append(early, model.Op{Kind: model.OpInsert, Query: qg.Query()})
	}
	for i := 0; i < 5; i++ {
		early = append(early, wide(uint64(900000+i), fmt.Sprintf("wide%d", i)))
		late = append(late, wide(uint64(910000+i), fmt.Sprintf("late%d", i)))
	}
	og := workload.NewGenerator(spec, 630)
	for i := 0; i < 6000; i++ {
		o := og.Object()
		o.Terms = append(o.Terms, fmt.Sprintf("wide%d", i%5))
		if i < 1500 {
			first = append(first, model.Op{Kind: model.OpObject, Obj: o})
			continue
		}
		o.Terms = append(o.Terms, fmt.Sprintf("late%d", i%5))
		rest = append(rest, model.Op{Kind: model.OpObject, Obj: o})
	}
	var all []model.Op
	for _, part := range [][]model.Op{early, first, late, rest} {
		all = append(all, part...)
	}
	want := oracleMatches(all)

	sys.SubmitAll(early)
	sys.Drain()
	wait := publishWhile(sys, first)
	if err := sys.GlobalRepartition(workload.Sample(spec, workload.Q1, 2000, 400, 64), hybrid.Builder{}); err != nil {
		t.Fatal(err)
	}
	wait()
	sys.SubmitAll(late)
	sys.Drain()
	// Routed by both strategies for certain: the old one by location, the
	// new one because its H2 now holds the late terms.
	sys.SubmitAll(rest[:1500])
	wait = publishWhile(sys, rest[1500:3000])
	sys.FinishGlobalRepartition()
	wait()
	sys.SubmitAll(rest[3000:])
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	del.checkExactlyOnce(t, want)
	snap := sys.Snapshot()
	if snap.Duplicates == 0 {
		t.Error("Duplicates = 0: the union fan-out of the transition never reached the window")
	}
	if snap.SoloMatches == 0 {
		t.Error("SoloMatches = 0: objects outside the transition have one target")
	}
	t.Logf("solo %d, windowed %d, duplicates %d", snap.SoloMatches, snap.Matches-snap.SoloMatches, snap.Duplicates)
}

// TestSoloOnlyForInProcessSlots: worker 0 runs behind loopback TCP, the
// other two in-process, on a space-only gridt. Every object has one
// target, yet only the in-process engines' matches are Solo: a match that
// crossed the wire decodes with Solo false and goes through the window,
// because a crash replay can send it again.
func TestSoloOnlyForInProcessSlots(t *testing.T) {
	sample, ops := smallWorkload(t, workload.Q1, 64, 4000)
	del := newDeliveries()
	cfg := Config{Workers: 3, Mergers: 2, Builder: spaceOnly(), OnMatch: del.add}
	if err := cfg.ConnectRemoteWorkers(startWorkerNodes(t, 1), sample, wire.Backoff{Attempts: 5}); err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg, sample)
	if err != nil {
		t.Fatal(err)
	}
	requireSpaceOnly(t, sys)
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	sys.SubmitAll(ops)
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	del.checkExactlyOnce(t, oracleMatches(ops))
	snap := sys.Snapshot()
	del.mu.Lock()
	remote, local := del.byWorker[0], del.byWorker[1]+del.byWorker[2]
	del.mu.Unlock()
	if remote == 0 || local == 0 {
		t.Fatalf("vacuous: %d matches from the remote slot, %d from the in-process ones", remote, local)
	}
	if snap.SoloMatches != local || snap.Duplicates != 0 {
		t.Errorf("SoloMatches %d, Duplicates %d: want the %d in-process matches solo and the %d remote ones windowed",
			snap.SoloMatches, snap.Duplicates, local, remote)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}
