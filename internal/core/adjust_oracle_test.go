package core

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"ps2stream/internal/model"
	"ps2stream/internal/partition"
	"ps2stream/internal/wire"
	"ps2stream/internal/workload"
)

// runHotspotPublish drives a fixed seeded workload — µ standing
// subscriptions fitted to hotspot 0, then a burst of objects concentrated
// on hotspot 1 (the shift that skews worker load) — and returns the
// delivered match set. With adjust true, the adaptive controller runs at
// an aggressive cadence, the test hammers AdjustNow from a second
// goroutine, and the publisher itself moves a cell every movePeriod
// objects (forceMove), so cell migrations interleave with live matching
// in every run; the returned migration count includes the forced moves.
// With adjust false the partitioning is frozen: the static oracle.
func runHotspotPublish(t *testing.T, adjust bool) (matches [][2]uint64, migrations int) {
	t.Helper()
	spec := workload.TweetsUS()
	const mu, nObjects = 600, 3000
	sample := workload.SampleFocused(spec, workload.Q1, 2000, 400, 77, 0, 2.0, 0.85)
	ms := newMatchSet()
	cfg := Config{
		Workers: 4,
		Mergers: 2,
		OnMatch: ms.add,
	}
	if adjust {
		cfg.Adjust = AdjustConfig{
			Enabled:       true,
			Sigma:         1.05,
			Interval:      3 * time.Millisecond,
			Cooldown:      5 * time.Millisecond,
			SustainChecks: 1,
			MinWindowOps:  32,
			Seed:          77,
		}
	}
	sys, err := New(cfg, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Standing population first, fully applied before any object flows,
	// so the expected match set is exactly {(q, o) : o matches q} — the
	// same for every run regardless of migration timing.
	st := workload.NewStream(spec, workload.Q1, workload.StreamConfig{Mu: mu, Seed: 77})
	warm := st.Prewarm(mu)
	sys.SubmitAll(warm)
	sys.Drain()

	// Hot objects: concentrated on hotspot 1, which the partitioning was
	// not fitted for — the resulting skew is what makes the controller
	// migrate mid-publish.
	gen := workload.NewGenerator(spec, 770)
	gen.FocusHotspot(1, 0.85)
	objs := make([]*model.Object, nObjects)
	for i := range objs {
		objs[i] = gen.Object()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if adjust {
		// Hammer manual adjustments concurrently with the background
		// loop and the publisher; AdjustNow is the synchronous entry the
		// public API exposes, and racing it against live publishes is
		// the point of this test.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					sys.AdjustNow()
					time.Sleep(2 * time.Millisecond)
				}
			}
		}()
	}
	for i, o := range objs {
		sys.Submit(model.Op{Kind: model.OpObject, Obj: o})
		if adjust && i%movePeriod == movePeriod-1 {
			forceMove(t, sys)
		}
	}
	sys.Drain()
	close(stop)
	wg.Wait()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	migrations = len(sys.Migrations())

	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make([][2]uint64, 0, len(ms.seen))
	for k := range ms.seen {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out, migrations
}

// movePeriod is how many objects the adjusted hotspot runs publish
// between two forced cell moves.
const movePeriod = 500

// forceMove migrates the heaviest non-empty cell of the first worker that
// holds one to the next worker, under adjustMu like the controller's
// moves, and records it as a migration. The publisher calls it between
// two Submits, so the move's cut falls amid live traffic.
func forceMove(t *testing.T, sys *System) {
	t.Helper()
	sys.adjustMu.Lock()
	defer sys.adjustMu.Unlock()
	for _, wo := range sys.members() {
		stats, err := roundAs[wire.CellStatsReply](sys, wo, wire.CellStatsReq{})
		if err != nil {
			t.Fatalf("cell stats of worker %d: %v", wo, err)
		}
		cell, most := -1, 0
		for _, cs := range stats.Cells {
			if cs.Entries > most {
				cell, most = cs.Cell, cs.Entries
			}
		}
		if cell < 0 {
			continue
		}
		m := MigrationStat{From: wo, To: (wo + 1) % sys.cfg.Workers}
		start := time.Now()
		if !sys.moveInto(&m, wo, m.To, cell, nil) || m.QueriesMoved == 0 {
			t.Fatalf("moving cell %d from worker %d to %d: %+v", cell, wo, m.To, m)
		}
		sys.recordMoves(m, start)
		return
	}
	t.Fatal("no worker holds a query")
}

// TestAdjustPublishMatchesStaticOracle pins the adaptive controller's
// safety guarantee: publishing continuously while cells migrate must
// deliver exactly the match set of a static partitioning — nothing lost
// or invented at a migration's cut. Run with -race in CI, this is also the
// controller's data-race coverage.
func TestAdjustPublishMatchesStaticOracle(t *testing.T) {
	want, _ := runHotspotPublish(t, false)
	got, migrations := runHotspotPublish(t, true)
	if len(want) == 0 {
		t.Fatal("workload produced no matches; the equivalence check is vacuous")
	}
	if len(got) != len(want) {
		t.Fatalf("adjusted run delivered %d distinct matches, static oracle %d (after %d migrations)",
			len(got), len(want), migrations)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match set diverges at %d: adjusted %v, oracle %v", i, got[i], want[i])
		}
	}
	t.Logf("match-set equivalence held across %d migrations (%d distinct matches)", migrations, len(want))
}

// TestAdjustNowRequiresHybrid: manual adjustment is a safe no-op when the
// strategy cannot migrate (non-hybrid routing has no gridt cells).
func TestAdjustNowRequiresHybrid(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 53, 0)
	sys, err := New(Config{
		Workers: 2,
		Builder: partition.Builders()["grid"],
	}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if n := sys.AdjustNow(); n != 0 {
		t.Fatalf("AdjustNow on a grid strategy migrated %d times", n)
	}
	if st := sys.Snapshot().Adjust; st.Enabled || st.EWMALoads != nil {
		t.Fatalf("grid strategy reports controller state: %+v", st)
	}
}

// TestAdjustNowManualMode: with the background controller off, AdjustNow
// still rebalances a skewed system on demand, and the controller stats
// account for it.
func TestAdjustNowManualMode(t *testing.T) {
	spec := workload.TweetsUS()
	sample := workload.SampleFocused(spec, workload.Q1, 2000, 400, 55, 0, 2.0, 0.85)
	sys, err := New(Config{
		Workers: 4,
		Adjust:  AdjustConfig{Sigma: 1.05, MinWindowOps: 1}, // Enabled false: manual mode
	}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := workload.NewStream(spec, workload.Q1, workload.StreamConfig{Mu: 400, Seed: 55})
	warm := st.Prewarm(400)
	sys.SubmitAll(warm)
	sys.Drain()
	gen := workload.NewGenerator(spec, 550)
	gen.FocusHotspot(1, 0.9)
	const nObjects = 1200
	for i := 0; i < nObjects; i++ {
		sys.Submit(model.Op{Kind: model.OpObject, Obj: gen.Object()})
	}
	sys.Drain()
	moved := sys.AdjustNow()
	if moved == 0 {
		t.Fatal("AdjustNow did not migrate despite a one-hotspot object burst")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	adj := sys.Snapshot().Adjust
	if adj.Enabled {
		t.Error("manual mode reports Enabled")
	}
	if adj.ManualTriggers != 1 {
		t.Errorf("ManualTriggers = %d, want 1", adj.ManualTriggers)
	}
	if adj.Migrations != moved || adj.Migrations == 0 {
		t.Errorf("stats Migrations = %d, AdjustNow reported %d", adj.Migrations, moved)
	}
	if adj.Epoch == 0 {
		t.Error("routing epoch did not advance across migrations")
	}
	if adj.LastAdjust.IsZero() {
		t.Error("LastAdjust not stamped")
	}
	if len(adj.EWMALoads) != 4 {
		t.Errorf("EWMALoads = %v, want 4 workers", adj.EWMALoads)
	}
	if adj.QueriesMoved <= 0 || adj.BytesMoved <= 0 || adj.CellsMoved <= 0 {
		t.Errorf("migration aggregates not accounted: %+v", adj)
	}
}
