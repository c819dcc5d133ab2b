package core

import (
	"context"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"ps2stream/internal/hybrid"
	"ps2stream/internal/model"
	"ps2stream/internal/node"
	"ps2stream/internal/wire"
	"ps2stream/internal/workload"
)

// startMigratingWorkerNodes launches n in-process worker nodes on
// loopback TCP and returns both the addresses and the node handles, so
// tests can observe node-side query populations across migrations.
func startMigratingWorkerNodes(t *testing.T, n int) ([]string, []*node.Worker) {
	t.Helper()
	addrs := make([]string, n)
	nodes := make([]*node.Worker, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		w := node.NewWorker(node.WorkerOptions{})
		go w.Serve(ctx, ln)
		addrs[i] = ln.Addr().String()
		nodes[i] = w
	}
	return addrs, nodes
}

// runRemoteHotspotPublish mirrors runHotspotPublish with every worker
// task behind loopback TCP: the same seeded hotspot-shift workload, the
// adaptive controller at an aggressive cadence, AdjustNow hammered from
// a second goroutine while objects publish continuously, and a forced
// move every movePeriod objects. Every executed migration necessarily
// crosses the wire (all endpoints are remote).
func runRemoteHotspotPublish(t *testing.T) (matches [][2]uint64, adj AdjustStats) {
	t.Helper()
	spec := workload.TweetsUS()
	const mu, nObjects = 600, 3000
	sample := workload.SampleFocused(spec, workload.Q1, 2000, 400, 77, 0, 2.0, 0.85)
	ms := newMatchSet()
	cfg := Config{
		Workers: 4,
		Mergers: 2,
		OnMatch: ms.add,
		Adjust: AdjustConfig{
			Enabled:       true,
			Sigma:         1.05,
			Interval:      3 * time.Millisecond,
			Cooldown:      5 * time.Millisecond,
			SustainChecks: 1,
			MinWindowOps:  32,
		},
	}
	addrs, _ := startMigratingWorkerNodes(t, cfg.Workers)
	if err := cfg.ConnectRemoteWorkers(addrs, sample, wire.Backoff{Attempts: 5}); err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := workload.NewStream(spec, workload.Q1, workload.StreamConfig{Mu: mu, Seed: 77})
	warm := st.Prewarm(mu)
	sys.SubmitAll(warm)
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}

	gen := workload.NewGenerator(spec, 770)
	gen.FocusHotspot(1, 0.85)
	objs := make([]*model.Object, nObjects)
	for i := range objs {
		objs[i] = gen.Object()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
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
	for i, o := range objs {
		sys.Submit(model.Op{Kind: model.OpObject, Obj: o})
		if i%movePeriod == movePeriod-1 {
			forceMove(t, sys)
		}
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	adj = sys.Snapshot().Adjust
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

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
	return out, adj
}

// TestRemoteAdjustPublishMatchesStaticOracle is the acceptance check of
// dynamic adjustment over the wire: a loopback cluster with every worker
// task remote, migrating cells under live traffic, must deliver exactly
// the match set of a static in-process partitioning — nothing lost or
// invented at a migration's cut. Because all endpoints are remote, every
// counted migration moved a cell across the wire.
func TestRemoteAdjustPublishMatchesStaticOracle(t *testing.T) {
	want, _ := runHotspotPublish(t, false) // in-process static oracle
	got, adj := runRemoteHotspotPublish(t)
	if adj.Migrations == 0 || adj.CellsMoved == 0 {
		t.Fatalf("no cells migrated across the wire (Stats.Adjust = %+v); the equivalence check is vacuous", adj)
	}
	if len(want) == 0 {
		t.Fatal("workload produced no matches; the equivalence check is vacuous")
	}
	if len(got) != len(want) {
		t.Fatalf("remote adjusted run delivered %d distinct matches, static oracle %d (after %d migrations)",
			len(got), len(want), adj.Migrations)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match set diverges at %d: remote adjusted %v, oracle %v", i, got[i], want[i])
		}
	}
	t.Logf("match-set equivalence held across %d wire migrations (%d cells, %d queries, %d bytes)",
		adj.Migrations, adj.CellsMoved, adj.QueriesMoved, adj.BytesMoved)
}

// TestRemoteMigrateShareBothDirections drives one migration local→remote
// and one remote→local through the wire control frames, asserting the
// query population actually moves between processes and that delivery
// stays exactly the oracle set afterwards.
func TestRemoteMigrateShareBothDirections(t *testing.T) {
	spec := workload.TweetsUS()
	spec.VocabSize = 2000
	sample := workload.Sample(spec, workload.Q1, 2000, 400, 9)
	st := workload.NewStream(spec, workload.Q1, workload.StreamConfig{Mu: 300, Seed: 9})
	warm := st.Prewarm(300)

	ms := newMatchSet()
	cfg := Config{
		Workers: 2,
		Mergers: 1,
		Builder: hybrid.Builder{},
		OnMatch: ms.add,
	}
	addrs, nodes := startMigratingWorkerNodes(t, 1) // worker task 0 remote, task 1 local
	if err := cfg.ConnectRemoteWorkers(addrs, sample, wire.Backoff{Attempts: 5}); err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	submit := func(ops []model.Op) {
		sys.SubmitAll(ops)
		if err := sys.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	submit(warm)

	migrate := func(wo, wl int) {
		t.Helper()
		// The source's planner view comes from one CellStats round,
		// exactly as runAdjustment fetches it.
		stats, err := roundAs[wire.CellStatsReply](sys, wo, wire.CellStatsReq{})
		if err != nil {
			t.Fatal(err)
		}
		shares := sys.collectShares(stats.Cells)
		if len(shares) == 0 {
			t.Fatalf("worker %d has no migratable cells", wo)
		}
		// Pick the largest share so the population shift is observable.
		best := shares[0]
		for _, sh := range shares[1:] {
			if sh.Queries > best.Queries {
				best = sh
			}
		}
		moved, nbytes, ok := sys.migrateShare(wo, wl, best.Cell)
		if !ok || moved == 0 || nbytes == 0 {
			t.Fatalf("migrateShare(%d→%d, cell %d) = %d queries / %d bytes / ok=%v", wo, wl, best.Cell, moved, nbytes, ok)
		}
	}

	before := nodes[0].QueryCount()
	migrate(1, 0) // local → remote
	if after := nodes[0].QueryCount(); after <= before {
		t.Fatalf("remote node holds %d queries after local→remote migration, had %d", after, before)
	}
	objs1 := make([]model.Op, 0, 1500)
	gen := workload.NewGenerator(spec, 90)
	for i := 0; i < 1500; i++ {
		objs1 = append(objs1, model.Op{Kind: model.OpObject, Obj: gen.Object()})
	}
	submit(objs1)

	atRemote := nodes[0].QueryCount()
	migrate(0, 1) // remote → local
	if after := nodes[0].QueryCount(); after >= atRemote {
		t.Fatalf("remote node still holds %d queries after remote→local migration, had %d", after, atRemote)
	}
	objs2 := make([]model.Op, 0, 1500)
	for i := 0; i < 1500; i++ {
		objs2 = append(objs2, model.Op{Kind: model.OpObject, Obj: gen.Object()})
	}
	submit(objs2)

	all := append(append(append([]model.Op{}, warm...), objs1...), objs2...)
	want := oracleMatches(all)
	if len(want) == 0 {
		t.Fatal("vacuous: oracle produced no matches")
	}
	ms.mu.Lock()
	missing, extra := 0, 0
	for k := range want {
		if ms.seen[k] == 0 {
			missing++
		}
	}
	for k := range ms.seen {
		if !want[k] {
			extra++
		}
	}
	ms.mu.Unlock()
	if missing > 0 || extra > 0 {
		t.Errorf("after both migrations: %d missing, %d extra of %d oracle matches", missing, extra, len(want))
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMigrationBytesSameForBothPlacements: MigrationStat.Bytes is the
// length of the share in the one wire.AppendInstallCells layout, whether
// the destination slot is an in-process engine or a psnode behind a hop,
// and ps2_migrated_bytes_total counts exactly that.
func TestMigrationBytesSameForBothPlacements(t *testing.T) {
	spec := workload.TweetsUS()
	spec.VocabSize = 2000
	sample := workload.Sample(spec, workload.Q1, 2000, 400, 9)
	warm := workload.NewStream(spec, workload.Q1, workload.StreamConfig{Mu: 300, Seed: 9}).Prewarm(300)

	cfg := Config{Workers: 2, Mergers: 1, Builder: hybrid.Builder{}}
	addrs, _ := startMigratingWorkerNodes(t, 1) // worker task 0 remote, task 1 local
	if err := cfg.ConnectRemoteWorkers(addrs, sample, wire.Backoff{Attempts: 5}); err != nil {
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
	sys.SubmitAll(warm)
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	if sys.hop(0) == nil {
		t.Fatal("slot 0 has no hop, want a remote slot")
	}
	if sys.bolts[1] == nil {
		t.Fatal("slot 1 has no bolt, want an in-process worker")
	}

	stats, err := roundAs[wire.CellStatsReply](sys, 1, wire.CellStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	shares := sys.collectShares(stats.Cells)
	if len(shares) == 0 {
		t.Fatal("worker 1 has no migratable cells")
	}
	best := shares[0]
	for _, sh := range shares[1:] {
		if sh.Queries > best.Queries {
			best = sh
		}
	}
	share, err := extractShare(sys, 1, wire.ExtractCells{Cells: []wire.CellSpec{{Cell: best.Cell}}})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(wire.AppendInstallCells(nil, wire.InstallCells{Cells: share.Cells})))
	if len(share.Cells) != 1 || len(share.Cells[0].Queries) == 0 {
		t.Fatalf("vacuous: copied share %+v", share.Cells)
	}
	// A migration of the cell onto the remote slot prices it as the
	// request's length, the metric advances by what the migration
	// recorded, and the migration back onto the in-process slot prices
	// the same share the same way.
	metric := func() int64 {
		for _, js := range sys.registry.Gather() {
			if js.Name == "ps2_migrated_bytes_total" {
				return int64(*js.Value)
			}
		}
		t.Fatal("no ps2_migrated_bytes_total series")
		return 0
	}
	before := metric()
	moved, nbytes, ok := sys.migrateShare(1, 0, best.Cell)
	if !ok || moved != len(share.Cells[0].Queries) || nbytes != want {
		t.Fatalf("migrateShare = %d queries / %d bytes / ok=%v, want %d / %d", moved, nbytes, ok, len(share.Cells[0].Queries), want)
	}
	sys.recordMigration(MigrationStat{Bytes: nbytes, Cells: 1, QueriesMoved: moved, From: 1, To: 0})
	if got := metric() - before; got != want {
		t.Errorf("ps2_migrated_bytes_total advanced by %d, want %d", got, want)
	}
	if moved, nbytes, ok := sys.migrateShare(0, 1, best.Cell); !ok || moved != len(share.Cells[0].Queries) || nbytes != want {
		t.Fatalf("migrating back = %d queries / %d bytes / ok=%v, want %d / %d", moved, nbytes, ok, len(share.Cells[0].Queries), want)
	}
}

// TestRemoteHotspotShiftDetectorFires pins the node-reported load path:
// with every worker remote, the controller's only view of per-worker
// load is the counters the nodes report over the stats round — if that
// plumbing broke, the detector would see zero load forever and never
// trigger. A paced hotspot shift must make it fire and migrate.
func TestRemoteHotspotShiftDetectorFires(t *testing.T) {
	spec := workload.TweetsUS()
	const mu = 500
	sample := workload.SampleFocused(spec, workload.Q1, 2000, 400, 31, 0, 2.0, 0.85)
	cfg := Config{
		Workers: 2,
		Mergers: 1,
		Adjust: AdjustConfig{
			Enabled:       true,
			Sigma:         1.10,
			Interval:      5 * time.Millisecond,
			Cooldown:      10 * time.Millisecond,
			SustainChecks: 1,
			MinWindowOps:  32,
		},
	}
	addrs, _ := startMigratingWorkerNodes(t, cfg.Workers)
	if err := cfg.ConnectRemoteWorkers(addrs, sample, wire.Backoff{Attempts: 5}); err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := workload.NewStream(spec, workload.Q1, workload.StreamConfig{
		Mu: mu, Seed: 31, FocusBias: 0.9, FocusHotspot: 0, FocusSigmaDeg: 2.0,
	})
	warm := st.Prewarm(mu)
	sys.SubmitAll(warm)
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	// The shift: all object traffic concentrates on hotspot 1, which the
	// fitted partitioning funnels into few workers. Paced publishing
	// gives the background controller wall-clock intervals to observe
	// node-reported loads and react.
	st.FocusHotspot(1)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for i := 0; i < 200; i++ {
			sys.Submit(st.Next())
		}
		time.Sleep(5 * time.Millisecond)
		adj := sys.Snapshot().Adjust
		if adj.Triggers > 0 && adj.Migrations > 0 {
			break
		}
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	adj := sys.Snapshot().Adjust
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if adj.Checks == 0 {
		t.Fatal("controller never evaluated a window — remote load polling appears stuck")
	}
	if adj.Triggers == 0 {
		t.Fatalf("detector never fired from node-reported loads under a hotspot shift: %+v", adj)
	}
	if adj.Migrations == 0 || adj.CellsMoved == 0 {
		t.Fatalf("detector fired but nothing migrated across the wire: %+v", adj)
	}
	t.Logf("detector fired %d times, %d migrations / %d cells across the wire (imbalance %.2f)",
		adj.Triggers, adj.Migrations, adj.CellsMoved, adj.Imbalance)
}
