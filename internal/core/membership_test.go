package core

import (
	"context"
	"errors"
	"net"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ps2stream/internal/faultnet"
	"ps2stream/internal/geo"
	"ps2stream/internal/hybrid"
	"ps2stream/internal/model"
	"ps2stream/internal/node"
	"ps2stream/internal/wire"
	"ps2stream/internal/workload"
)

// elasticNode is one in-process worker node the test can observe, kill
// like a crashed process, and restart on the same port.
type elasticNode struct {
	addr   string
	worker *node.Worker
	cancel context.CancelFunc
	ln     net.Listener

	mu    sync.Mutex
	conns []net.Conn
}

// trackingListener records accepted connections so kill() can sever the
// live session the way a dead process would.
type trackingListener struct {
	net.Listener
	n *elasticNode
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.n.mu.Lock()
	l.n.conns = append(l.n.conns, c)
	l.n.mu.Unlock()
	return c, nil
}

// startElasticNode launches a fresh worker node. addr "" picks a free
// port; a concrete addr rebinds it (restart-after-crash), retrying
// briefly while the dying listener lets go of the port.
func startElasticNode(t testing.TB, addr string) *elasticNode {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	en := &elasticNode{addr: ln.Addr().String(), worker: node.NewWorker(node.WorkerOptions{}), ln: ln}
	ctx, cancel := context.WithCancel(context.Background())
	en.cancel = cancel
	t.Cleanup(en.kill)
	go en.worker.Serve(ctx, &trackingListener{Listener: ln, n: en})
	return en
}

// kill simulates a process death: the listener and every accepted
// connection drop at once, mid-frame if one is in flight.
func (en *elasticNode) kill() {
	en.cancel()
	en.ln.Close()
	en.mu.Lock()
	for _, c := range en.conns {
		c.Close()
	}
	en.mu.Unlock()
}

// assertExact compares the delivered matches against the oracle: every
// oracle match delivered, nothing else, and nothing delivered twice.
func assertExact(t *testing.T, ms *matchSet, want map[[2]uint64]bool) {
	t.Helper()
	ms.mu.Lock()
	defer ms.mu.Unlock()
	missing, extra, twice := 0, 0, 0
	for k := range want {
		if ms.seen[k] == 0 {
			missing++
		}
	}
	for k, n := range ms.seen {
		if !want[k] {
			extra++
		}
		if n > 1 {
			twice++
		}
	}
	if missing > 0 || extra > 0 {
		t.Errorf("%d missing, %d extra of %d oracle matches", missing, extra, len(want))
	}
	if twice > 0 {
		t.Errorf("%d matches delivered twice or more", twice)
	}
}

// TestAddWorkerRebalancesOntoJoinedNode: a node started after the
// stream is live joins via AddWorker, receives a share of the standing
// cells, and the delivered match set stays exactly the oracle's.
func TestAddWorkerRebalancesOntoJoinedNode(t *testing.T) {
	sample, ops := smallWorkload(t, workload.Q1, 21, 3000)
	want := oracleMatches(ops)
	if len(want) == 0 {
		t.Fatal("vacuous: oracle produced no matches")
	}
	n0, n1 := startElasticNode(t, ""), startElasticNode(t, "")
	joiner := startElasticNode(t, "")
	ms := newMatchSet()
	cfg := Config{
		Workers:      2,
		Mergers:      2,
		Builder:      hybrid.Builder{},
		OnMatch:      ms.add,
		SpareWorkers: 1, // sized before dialling: the handshake's worker count includes it
	}
	if err := cfg.ConnectRemoteWorkers([]string{n0.addr, n1.addr}, sample, wire.Backoff{Attempts: 5}); err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	half := len(ops) / 2
	sys.SubmitAll(ops[:half])
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	task, err := sys.AddWorker(joiner.addr)
	if err != nil {
		t.Fatal(err)
	}
	if task != 2 {
		t.Errorf("AddWorker claimed slot %d, want the spare slot 2", task)
	}
	// The pool had exactly one spare; a second join must be refused.
	if _, err := sys.AddWorker(joiner.addr); !errors.Is(err, ErrNoSpareSlots) {
		t.Errorf("second AddWorker: %v, want ErrNoSpareSlots", err)
	}
	sys.SubmitAll(ops[half:])
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	assertExact(t, ms, want)
	if joiner.worker.QueryCount() == 0 {
		t.Error("joined node serves no queries: the join rebalanced nothing onto it")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDecommissionWorkerDrainsNode: a graceful retire migrates every
// cell off the node, leaves it empty, and loses no matches.
func TestDecommissionWorkerDrainsNode(t *testing.T) {
	sample, ops := smallWorkload(t, workload.Q1, 31, 3000)
	want := oracleMatches(ops)
	if len(want) == 0 {
		t.Fatal("vacuous: oracle produced no matches")
	}
	nodes := []*elasticNode{startElasticNode(t, ""), startElasticNode(t, ""), startElasticNode(t, "")}
	addrs := []string{nodes[0].addr, nodes[1].addr, nodes[2].addr}
	ms := newMatchSet()
	cfg := Config{
		Workers: 3,
		Mergers: 2,
		Builder: hybrid.Builder{},
		OnMatch: ms.add,
	}
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
	half := len(ops) / 2
	sys.SubmitAll(ops[:half])
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := sys.DecommissionWorker(1); err != nil {
		t.Fatal(err)
	}
	// The node keeps registrations for cells it never owned (gi2.Insert
	// registers in every overlapping local cell), so a zero count is not
	// the invariant — no further traffic reaching the retired node is.
	retiredCount := nodes[1].worker.QueryCount()
	retiredDone, _ := nodes[1].worker.Counts()
	// A retired slot is gone for good.
	if err := sys.DecommissionWorker(1); err == nil {
		t.Error("decommissioning an already-retired slot succeeded")
	}
	sys.SubmitAll(ops[half:])
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	assertExact(t, ms, want)
	if n := nodes[1].worker.QueryCount(); n != retiredCount {
		t.Errorf("retired node's query count moved %d -> %d after retirement", retiredCount, n)
	}
	if d, _ := nodes[1].worker.Counts(); d != retiredDone {
		t.Errorf("retired node processed %d more ops after retirement", d-retiredDone)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryReplaysOntoFreshNode: kill -9 equivalent — the
// node's session and listener drop mid-stream while the publisher keeps
// going, a state-less replacement binds the same port, and the op-log
// replay rebuilds it without losing or inventing a single match. Run
// under -race this doubles as the publish-during-crash interleaving
// check.
func TestCrashRecoveryReplaysOntoFreshNode(t *testing.T) {
	sample, ops := smallWorkload(t, workload.Q1, 17, 3000)
	want := oracleMatches(ops)
	if len(want) == 0 {
		t.Fatal("vacuous: oracle produced no matches")
	}
	n0 := startElasticNode(t, "")
	victim := startElasticNode(t, "")
	ms := newMatchSet()
	cfg := Config{
		Workers: 2,
		Mergers: 2,
		Builder: hybrid.Builder{},
		OnMatch: ms.add,
		Recovery: RecoveryConfig{
			Enabled:            true,
			CheckpointInterval: 100 * time.Millisecond,
			HeartbeatInterval:  50 * time.Millisecond,
			RedialTimeout:      20 * time.Second,
		},
	}
	if err := cfg.ConnectRemoteWorkers([]string{n0.addr, victim.addr}, sample, wire.Backoff{Attempts: 5}); err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	half := len(ops) / 2
	sys.SubmitAll(ops[:half])
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	// Publish the second half concurrently with the crash: ops must keep
	// flowing (and queue against the downed slot's op log) while the
	// coordinator redials and replays.
	published := make(chan struct{})
	go func() {
		defer close(published)
		sys.SubmitAll(ops[half:])
	}()
	victim.kill()
	replacement := startElasticNode(t, victim.addr)
	<-published
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	assertExact(t, ms, want)
	if replacement.worker.QueryCount() == 0 {
		t.Error("replacement node holds no queries: replay restored nothing")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// startChaosNode launches a worker node behind seeded fault injection:
// every injected drop severs the live session (see faultnet's package
// doc), so the drop schedule doubles as a crash schedule.
func startChaosNode(t *testing.T, fc faultnet.Config) *elasticNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	en := &elasticNode{addr: ln.Addr().String(), worker: node.NewWorker(node.WorkerOptions{}), ln: ln}
	ctx, cancel := context.WithCancel(context.Background())
	en.cancel = cancel
	t.Cleanup(en.kill)
	go en.worker.Serve(ctx, faultnet.WrapListener(&trackingListener{Listener: ln, n: en}, fc))
	return en
}

// TestChaosFaultnetMatchesOracle is the fault-injection centerpiece:
// both worker hops run behind a seeded drop/delay schedule, so sessions
// sever at schedule-chosen frames mid-stream and recovery redials and
// replays — repeatedly, if the schedule says so. The delivered match
// set must still be exactly the in-process oracle's, and — with a top-k
// mix riding along under a shared fake clock — so must every reconciled
// TopKSet. The standing top-k subscriptions put their bands in every
// checkpoint's base, so a replay that loses window state, or that
// offers an object the base already holds, shows up in the sets; one
// that matches an object against a query inserted after it shows up as
// extra matches. SkipFrames leaves the handshake intact so every redial
// can succeed; the per-accept reseed means successive sessions fail at
// different points.
func TestChaosFaultnetMatchesOracle(t *testing.T) {
	sample, ops := smallWorkload(t, workload.Q1, 13, 4000)
	want := oracleMatches(ops)
	if len(want) == 0 {
		t.Fatal("vacuous: oracle produced no matches")
	}
	topks := topkMixFromWorkload(ops, 5, 2*time.Hour)
	if len(topks) < 4 {
		t.Fatalf("workload yielded only %d top-k shapes", len(topks))
	}
	// One static fake clock for the oracle and the chaos run: every op
	// carries the same publish stamp in both, so ranks are comparable
	// regardless of how long recovery stalls the distributed run.
	clk := newFakeClock(time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC))
	oracle, err := New(Config{
		Workers: 2, Mergers: 2,
		Builder:    hybrid.Builder{},
		OnMatch:    func(model.Match) {},
		OnTopK:     func(TopKUpdate) {},
		Clock:      clk.Now,
		WindowTick: time.Hour,
	}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	submitTopKs(oracle, topks)
	if err := oracle.Drain(); err != nil {
		t.Fatal(err)
	}
	oracle.SubmitAll(ops)
	if err := oracle.Drain(); err != nil {
		t.Fatal(err)
	}
	wantTopK := topkSets(oracle, topks)
	if err := oracle.Close(); err != nil {
		t.Fatal(err)
	}
	members := 0
	for _, s := range wantTopK {
		members += len(s)
	}
	if members == 0 {
		t.Fatal("vacuous: the top-k mix ranked nothing")
	}
	// CI's chaos job sweeps a fixed seed matrix via PS2_CHAOS_SEED; each
	// seed deterministically selects a different crash/delay schedule.
	base := int64(1300)
	if s := os.Getenv("PS2_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("PS2_CHAOS_SEED %q: %v", s, err)
		}
		base = v
	}
	fc := faultnet.Config{
		Seed:       base,
		Drop:       0.004, // a few severed sessions over the run
		Delay:      0.02,
		DelayMax:   2 * time.Millisecond,
		SkipFrames: 8,
	}
	n0 := startChaosNode(t, fc)
	fc.Seed = base * 2
	n1 := startChaosNode(t, fc)
	ms := newMatchSet()
	cfg := Config{
		Workers:    2,
		Mergers:    2,
		Builder:    hybrid.Builder{},
		OnMatch:    ms.add,
		OnTopK:     func(TopKUpdate) {},
		Clock:      clk.Now,
		WindowTick: time.Hour,
		Recovery: RecoveryConfig{
			Enabled:            true,
			CheckpointInterval: 100 * time.Millisecond,
			HeartbeatInterval:  50 * time.Millisecond,
			RedialTimeout:      20 * time.Second,
		},
	}
	if err := cfg.ConnectRemoteWorkers([]string{n0.addr, n1.addr}, sample, wire.Backoff{Attempts: 10}); err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	submitTopKs(sys, topks)
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	sys.SubmitAll(ops)
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	assertExact(t, ms, want)
	assertSameTopKSets(t, "chaos", topkSets(sys, topks), wantTopK)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDecommissionRefusedForLocalSlot: only elastic (hop-backed) slots
// can be decommissioned; an in-process slot has no hop to retire.
func TestDecommissionRefusedForLocalSlot(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 3, 10)
	addrs := []string{startElasticNode(t, "").addr}
	cfg := Config{Workers: 2, Builder: hybrid.Builder{}}
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
	if err := sys.DecommissionWorker(1); err == nil {
		t.Error("decommissioning an in-process slot succeeded")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainFailsWhenWorkerUnrecoverable: with recovery disabled, a
// crashed remote worker must fail the Drain barrier with a typed error
// instead of hanging it forever.
func TestDrainFailsWhenWorkerUnrecoverable(t *testing.T) {
	sample, ops := smallWorkload(t, workload.Q1, 23, 800)
	victim := startElasticNode(t, "")
	ms := newMatchSet()
	cfg := Config{
		Workers:      1,
		Mergers:      1,
		Builder:      hybrid.Builder{},
		OnMatch:      ms.add,
		SpareWorkers: 1, // forces the hop table on without enabling recovery
	}
	if err := cfg.ConnectRemoteWorkers([]string{victim.addr}, sample, wire.Backoff{Attempts: 5}); err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	half := len(ops) / 2
	sys.SubmitAll(ops[:half])
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	victim.kill()
	sys.SubmitAll(ops[half:])
	done := make(chan error, 1)
	go func() { done <- sys.Drain() }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrWorkerUnrecoverable) {
			t.Errorf("Drain after unrecoverable crash: %v, want ErrWorkerUnrecoverable", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Drain hung on a dead worker with recovery disabled")
	}
	sys.Abort()
}

// opsTouchingWindow asserts the chaos workloads actually exercise all
// three op kinds (guards against a workload change hollowing the tests).
func TestMembershipWorkloadsExerciseAllOpKinds(t *testing.T) {
	_, ops := smallWorkload(t, workload.Q1, 21, 3000)
	var ins, del, obj int
	for _, op := range ops {
		switch op.Kind {
		case model.OpInsert:
			ins++
		case model.OpDelete:
			del++
		case model.OpObject:
			obj++
		}
	}
	if ins == 0 || del == 0 || obj == 0 {
		t.Fatalf("workload has ins=%d del=%d obj=%d; membership tests need all three", ins, del, obj)
	}
}

// TestPartialCellDepartureSurvivesReplay: a query registered in several
// cells of the same worker must survive a crash replay after just one
// of those cells migrates away. A migration once logged an unconditional
// whole-query delete on the source's op log (a node's index delete is
// cross-cell), so a post-crash replay erased the registrations the
// source still owned and silently lost their matches; the log now
// records the cell's removing extraction itself.
func TestPartialCellDepartureSurvivesReplay(t *testing.T) {
	spec := workload.TweetsUS()
	sample := workload.Sample(spec, workload.Q1, 2000, 400, 23)
	victim, n1 := startElasticNode(t, ""), startElasticNode(t, "")
	ms := newMatchSet()
	cfg := Config{
		Workers: 2,
		Mergers: 2,
		Builder: hybrid.Builder{},
		OnMatch: ms.add,
		Recovery: RecoveryConfig{
			Enabled:            true,
			CheckpointInterval: 100 * time.Millisecond,
			HeartbeatInterval:  50 * time.Millisecond,
			RedialTimeout:      20 * time.Second,
		},
	}
	if err := cfg.ConnectRemoteWorkers([]string{victim.addr, n1.addr}, sample, wire.Backoff{Attempts: 5}); err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// One query covering the whole space: it registers in every cell on
	// both workers, so any single-cell migration is a partial departure.
	const wideID = 900100
	wide := &model.Query{ID: wideID, Expr: model.And("partialdeparture"), Region: spec.Bounds}
	sys.Submit(model.Op{Kind: model.OpInsert, Query: wide})
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	// Migrate one of the victim's cells to the other worker, extraction
	// included, exactly as a join rebalance would.
	gt := sys.gridT.Load()
	cell := -1
	for c := 0; c < gt.Grid().NumCells(); c++ {
		ws := gt.CellWorkers(c)
		if len(ws) == 1 && ws[0] == 0 {
			cell = c
			break
		}
	}
	if cell < 0 {
		t.Fatal("no cell owned solely by worker 0")
	}
	before := sys.hop(0).log.Seq()
	sys.adjustMu.Lock()
	moved, _, ok := sys.migrateShare(0, 1, cell)
	// Nothing else is submitted: the extraction is worker 0's last entry.
	extracted := sys.hop(0).log.Seq()
	if !ok {
		sys.adjustMu.Unlock()
		t.Fatal("migrateShare failed")
	}
	if moved != 1 {
		sys.adjustMu.Unlock()
		t.Fatalf("migrated %d queries from cell %d, want the wide query alone", moved, cell)
	}
	sys.adjustMu.Unlock()
	if extracted == before {
		t.Fatal("the migration logged nothing on worker 0")
	}
	// The replay plan must still carry the query: worker 0 holds it in
	// every cell it did not migrate. The log records the departure as the
	// removing extraction of that one cell (unless a checkpoint's base
	// already covers it), never as a whole-query delete.
	base, tail, pos := sys.hop(0).log.Replay()
	live, cut := false, pos >= extracted
	for _, p := range base.Cells {
		live = live || slices.ContainsFunc(p.Queries, func(q *model.Query) bool { return q.ID == wideID })
	}
	for _, e := range tail {
		switch f := e.Frame.(type) {
		case nil:
			if e.Op.Query != nil && e.Op.Query.ID == wideID {
				live = e.Op.Kind == model.OpInsert
			}
		case wire.ExtractCells:
			cut = cut || f.Remove && len(f.Cells) == 1 && f.Cells[0].Cell == cell
		case wire.InstallCells:
			live = live && !slices.Contains(f.Deletes, wideID)
		}
	}
	if !live {
		t.Fatal("partial cell departure dropped the query from the replay plan")
	}
	if !cut {
		t.Fatalf("the replay plan does not record the removing extraction of cell %d", cell)
	}
	// Crash the victim, restart it state-less on the same port, and
	// publish a lattice of matching objects across the whole space: the
	// replay must restore the query in the victim's remaining cells.
	victim.kill()
	startElasticNode(t, victim.addr)
	var objs []model.Op
	nLat := 12
	for i := 0; i < nLat; i++ {
		for j := 0; j < nLat; j++ {
			objs = append(objs, model.Op{Kind: model.OpObject, Obj: &model.Object{
				ID:    uint64(910000 + i*nLat + j),
				Terms: []string{"partialdeparture"},
				Loc: geo.Point{
					X: spec.Bounds.Min.X + (float64(i)+0.5)/float64(nLat)*(spec.Bounds.Max.X-spec.Bounds.Min.X),
					Y: spec.Bounds.Min.Y + (float64(j)+0.5)/float64(nLat)*(spec.Bounds.Max.Y-spec.Bounds.Min.Y),
				},
			}})
		}
	}
	sys.SubmitAll(objs)
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	missing := 0
	for _, op := range objs {
		if !ms.has(wideID, op.Obj.ID) {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d of %d whole-space matches missing after partial departure + crash replay", missing, len(objs))
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestExtractionRetriesAfterSourceCrash: a migration's source crashes
// between the routing flip and the removing extraction, so the round
// fails. Recovery replays the share onto the restarted node (its
// departure is not logged yet), and the hand-off extracts it again once
// the slot is back up: the source ends without the cell's queries and
// the destination holds every one.
func TestExtractionRetriesAfterSourceCrash(t *testing.T) {
	spec := workload.TweetsUS()
	spec.VocabSize = 2000
	sample := workload.Sample(spec, workload.Q1, 2000, 400, 9)
	warm := workload.NewStream(spec, workload.Q1, workload.StreamConfig{Mu: 300, Seed: 9}).Prewarm(300)
	victim, n1 := startElasticNode(t, ""), startElasticNode(t, "")
	cfg := Config{
		Workers: 2,
		Mergers: 1,
		Builder: hybrid.Builder{},
		Recovery: RecoveryConfig{
			Enabled:            true,
			CheckpointInterval: 100 * time.Millisecond,
			HeartbeatInterval:  50 * time.Millisecond,
			RedialTimeout:      20 * time.Second,
		},
	}
	if err := cfg.ConnectRemoteWorkers([]string{victim.addr, n1.addr}, sample, wire.Backoff{Attempts: 5}); err != nil {
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
	held := func(w, cell int) int {
		t.Helper()
		sh, err := roundAs[wire.CellShare](sys, w, wire.ExtractCells{Cells: []wire.CellSpec{{Cell: cell}}})
		if err != nil {
			t.Fatal(err)
		}
		if len(sh.Cells) == 0 {
			return 0
		}
		return len(sh.Cells[0].Queries)
	}
	stats, err := roundAs[wire.CellStatsReply](sys, 0, wire.CellStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	cell, most := -1, 0
	for _, cs := range stats.Cells {
		if cs.Entries > most {
			cell, most = cs.Cell, cs.Entries
		}
	}
	if cell < 0 {
		t.Fatal("vacuous: worker 0 holds no queries")
	}
	var restarted *elasticNode
	moved, _, ok := sys.handOff(0, 1, cell, nil, func() {
		if gt := sys.gridT.Load(); gt.IsTextCell(cell) {
			gt.ReassignTextShare(cell, 0, 1)
		} else {
			gt.ReassignSpaceCell(cell, 1)
		}
		victim.kill()
		restarted = startElasticNode(t, victim.addr)
	})
	if !ok || moved == 0 {
		t.Fatalf("handOff moved %d queries, ok %v", moved, ok)
	}
	if !sys.awaitUp(0) {
		t.Fatal("the source never recovered")
	}
	left := held(0, cell) // a round behind the replay
	if restarted.worker.QueryCount() == 0 {
		t.Fatal("vacuous: recovery replayed nothing onto the restarted source")
	}
	if left != 0 {
		t.Errorf("the recovered source still holds %d of the cell's queries", left)
	}
	if n := held(1, cell); n < moved {
		t.Errorf("the destination holds %d of the cell's queries, want at least the %d moved", n, moved)
	}
}

// topkMixFromWorkload clones a handful of the workload's own query
// shapes into top-k subscriptions — same regions and expressions, so
// they provably match the stream — under fresh ids that keep the
// boolean match oracle untouched.
func topkMixFromWorkload(ops []model.Op, k int, w time.Duration) []*model.Query {
	var out []*model.Query
	for _, op := range ops {
		if op.Kind != model.OpInsert {
			continue
		}
		q := *op.Query
		q.ID = 990001 + uint64(len(out))
		q.Subscriber = 42
		q.TopK = k
		q.Window = w
		out = append(out, &q)
		if len(out) == 6 {
			break
		}
	}
	return out
}

// submitTopKs registers the subscriptions.
func submitTopKs(sys *System, qs []*model.Query) {
	for _, q := range qs {
		sys.Submit(model.Op{Kind: model.OpInsert, Query: q})
	}
}

// topkSets snapshots the reconciled global top-k membership per query.
func topkSets(sys *System, qs []*model.Query) map[uint64][]uint64 {
	out := make(map[uint64][]uint64, len(qs))
	for _, q := range qs {
		out[q.ID] = sys.TopKSet(q.ID)
	}
	return out
}

// assertSameTopKSets compares two per-query membership snapshots.
func assertSameTopKSets(t *testing.T, phase string, got, want map[uint64][]uint64) {
	t.Helper()
	for id, w := range want {
		if !equalIDs(got[id], w) {
			t.Errorf("%s: query %d top-k = %v, oracle has %v", phase, id, got[id], w)
		}
	}
}

// TestTopKCrashReplayMatchesOracle is the distributed-top-k recovery
// centerpiece: a worker node is kill-9'd mid-window under a top-k mix
// while publishing continues, a state-less replacement binds the same
// port, and the op-log replay (the base's bands, then the tail under
// original publish stamps) must rebuild the node's window state so
// exactly that the reconciled TopKSet — compared before and after the
// first half expires — is identical to an all-in-process oracle run of
// the same fake-clock timeline. The boolean match set must stay exact
// too: an object replays only after the base's position, so a query
// inserted after it cannot fabricate a match the oracle never saw.
func TestTopKCrashReplayMatchesOracle(t *testing.T) {
	sample, ops := smallWorkload(t, workload.Q1, 29, 3000)
	want := oracleMatches(ops)
	if len(want) == 0 {
		t.Fatal("vacuous: oracle produced no matches")
	}
	topks := topkMixFromWorkload(ops, 8, 2*time.Hour)
	if len(topks) < 4 {
		t.Fatalf("workload yielded only %d top-k shapes", len(topks))
	}
	start := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	half := len(ops) / 2
	chunk := half + 300 // the slice published concurrently with the crash
	if chunk > len(ops) {
		chunk = len(ops)
	}

	// Oracle run: all-in-process, same fake-clock timeline. The first
	// half publishes at t0 and a small chunk at t0+10m (where the
	// distributed run crashes); the mid snapshot at t0+15m still has the
	// first half in window — so a recovery that loses the crashed node's
	// window state shows up — and the end snapshot at t0+2h05m has only
	// it expired, so a replay that re-stamps publish instants shows up
	// too. The 2h window keeps decay from letting the crash-time chunk
	// crowd the first half off the boards before the mid snapshot.
	clkO := newFakeClock(start)
	oracle, err := New(Config{
		Workers: 2, Mergers: 2,
		Builder:    hybrid.Builder{},
		OnMatch:    func(model.Match) {},
		OnTopK:     func(TopKUpdate) {},
		Clock:      clkO.Now,
		WindowTick: time.Hour,
	}, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	submitTopKs(oracle, topks)
	if err := oracle.Drain(); err != nil {
		t.Fatal(err)
	}
	oracle.SubmitAll(ops[:half])
	if err := oracle.Drain(); err != nil {
		t.Fatal(err)
	}
	clkO.Advance(10 * time.Minute)
	oracle.SubmitAll(ops[half:chunk])
	if err := oracle.Drain(); err != nil {
		t.Fatal(err)
	}
	clkO.Advance(5 * time.Minute)
	oracle.AdvanceWindows()
	wantMid := topkSets(oracle, topks)
	oracle.SubmitAll(ops[chunk:])
	if err := oracle.Drain(); err != nil {
		t.Fatal(err)
	}
	clkO.Advance(110 * time.Minute)
	oracle.AdvanceWindows()
	wantEnd := topkSets(oracle, topks)
	if err := oracle.Close(); err != nil {
		t.Fatal(err)
	}
	// Non-vacuity: the mid snapshot must still rank first-half objects —
	// the entries a careless recovery would lose — and expiry must
	// change the sets between the snapshots.
	firstHalf := make(map[uint64]bool)
	for _, op := range ops[:half] {
		if op.Kind == model.OpObject {
			firstHalf[op.Obj.ID] = true
		}
	}
	oldInMid, changed := 0, 0
	for id, s := range wantMid {
		for _, msg := range s {
			if firstHalf[msg] {
				oldInMid++
			}
		}
		if !equalIDs(s, wantEnd[id]) {
			changed++
		}
	}
	if oldInMid == 0 || changed == 0 {
		t.Fatalf("vacuous: %d first-half members in mid sets, %d sets changed by expiry", oldInMid, changed)
	}

	// Distributed run: two remote nodes, same timeline, with a kill-9 of
	// one worker between the phases. The victim is picked below, after
	// the assignment exists: whichever worker owns the most first-half
	// mid-snapshot members, so the crash provably destroys window state
	// the snapshots depend on.
	clk := newFakeClock(start)
	nodes := []*elasticNode{startElasticNode(t, ""), startElasticNode(t, "")}
	ms := newMatchSet()
	cfg := Config{
		Workers:    2,
		Mergers:    2,
		Builder:    hybrid.Builder{},
		OnMatch:    ms.add,
		OnTopK:     func(TopKUpdate) {},
		Clock:      clk.Now,
		WindowTick: time.Hour,
		Recovery: RecoveryConfig{
			Enabled:            true,
			CheckpointInterval: 100 * time.Millisecond,
			HeartbeatInterval:  50 * time.Millisecond,
			RedialTimeout:      20 * time.Second,
		},
	}
	if err := cfg.ConnectRemoteWorkers([]string{nodes[0].addr, nodes[1].addr}, sample, wire.Backoff{Attempts: 5}); err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	submitTopKs(sys, topks)
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	// Victim selection doubles as the sharper non-vacuity check: at least
	// one first-half mid-snapshot member must route to the worker we
	// kill — those are the window entries only the checkpoint's refill
	// retention can bring back. Killing the heavier owner maximizes what
	// the crash destroys.
	objByID := make(map[uint64]*model.Object)
	for _, op := range ops {
		if op.Kind == model.OpObject {
			objByID[op.Obj.ID] = op.Obj
		}
	}
	owned := make([]int, len(nodes))
	for _, s := range wantMid {
		for _, msg := range s {
			if !firstHalf[msg] {
				continue
			}
			for _, w := range sys.Assignment().RouteObject(objByID[msg]) {
				owned[w]++
			}
		}
	}
	victimTask := 0
	for w, c := range owned {
		if c > owned[victimTask] {
			victimTask = w
		}
	}
	if owned[victimTask] == 0 {
		t.Fatal("vacuous: no first-half mid-snapshot member routes to any worker")
	}
	victim := nodes[victimTask]
	sys.SubmitAll(ops[:half])
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	// Wait until a checkpoint's base covers the first half on the
	// victim's log: the replay must then rebuild its window state from
	// the base's bands, not from a raw tail.
	target := sys.hop(victimTask).log.Seq()
	deadline := time.Now().Add(10 * time.Second)
	for sys.hop(victimTask).log.Watermark() < target {
		if time.Now().After(deadline) {
			t.Fatalf("checkpoint never covered the first half (watermark %d < %d)",
				sys.hop(victimTask).log.Watermark(), target)
		}
		time.Sleep(10 * time.Millisecond)
	}
	clk.Advance(10 * time.Minute)
	published := make(chan struct{})
	go func() {
		defer close(published)
		sys.SubmitAll(ops[half:chunk])
	}()
	victim.kill()
	startElasticNode(t, victim.addr)
	<-published
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Minute)
	sys.AdvanceWindows()
	gotMid := topkSets(sys, topks)
	sys.SubmitAll(ops[chunk:])
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(110 * time.Minute)
	sys.AdvanceWindows()
	gotEnd := topkSets(sys, topks)
	assertExact(t, ms, want)
	assertSameTopKSets(t, "mid-window", gotMid, wantMid)
	assertSameTopKSets(t, "post-expiry", gotEnd, wantEnd)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointBaseSitsAtRoundPosition: a checkpoint runs while top-k
// objects and a subscription are still on their way to the slot, then
// the slot crashes and recovery replays the log. The base must sit at
// the population round's own position in the stream: an earlier one
// replays the operations between the two points on top of a base that
// already holds them, so the late subscription ranks objects published
// before it.
func TestCheckpointBaseSitsAtRoundPosition(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 53, 0)
	victim := startElasticNode(t, "")
	clk := newFakeClock(time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC))
	cfg := Config{
		Workers: 1, Mergers: 1,
		Builder:    hybrid.Builder{},
		OnMatch:    func(model.Match) {},
		OnTopK:     func(TopKUpdate) {},
		Clock:      clk.Now,
		WindowTick: time.Hour,
		Recovery: RecoveryConfig{
			Enabled:            true,
			CheckpointInterval: time.Hour, // this test places the one checkpoint
			HeartbeatInterval:  50 * time.Millisecond,
			RedialTimeout:      20 * time.Second,
		},
	}
	if err := cfg.ConnectRemoteWorkers([]string{victim.addr}, sample, wire.Backoff{Attempts: 5}); err != nil {
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
	b := sample.Bounds
	early := &model.Query{ID: 1, Expr: model.And("basepos"), Region: b, TopK: 2, Window: time.Hour}
	late := &model.Query{ID: 2, Expr: model.And("basepos"), Region: b, TopK: 3, Window: time.Hour}
	var objs []*model.Object
	at := make(map[uint64]time.Time)
	publish := func(id uint64) {
		clk.Advance(time.Second)
		f := float64(id%7+1) / 9
		o := &model.Object{ID: id, Terms: []string{"basepos"}, Loc: geo.Point{
			X: b.Min.X + f*(b.Max.X-b.Min.X), Y: b.Min.Y + (1-f)*(b.Max.Y-b.Min.Y)}}
		objs = append(objs, o)
		at[id] = clk.Now()
		sys.Submit(model.Op{Kind: model.OpObject, Obj: o})
	}
	sys.Submit(model.Op{Kind: model.OpInsert, Query: early})
	publish(11)
	publish(12)
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	// Hold the slot, so what follows waits in its stream: objects, the
	// late subscription, more objects, and then the checkpoint's round.
	holds := sys.cut([]int{0}, func([]*hold) {})
	publish(13)
	publish(14)
	sys.Submit(model.Op{Kind: model.OpInsert, Query: late})
	publish(15)
	checkpointed := make(chan bool, 1)
	go func() { checkpointed <- sys.checkpointHop(sys.hop(0)) }()
	for deadline := time.Now().Add(5 * time.Second); len(sys.towork[0]) < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the checkpoint's round never reached the held slot's stream")
		}
	}
	release(holds)
	select {
	case ok := <-checkpointed:
		if !ok {
			t.Fatal("the checkpoint's population round failed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the checkpoint never finished")
	}
	victim.kill()
	replacement := startElasticNode(t, victim.addr)
	publish(16)
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	if n := replacement.worker.QueryCount(); n != 2 {
		t.Fatalf("the replacement node holds %d queries after the replay, want 2", n)
	}
	sys.AdvanceWindows()
	laterThan := func(id uint64) []*model.Object {
		var out []*model.Object
		for _, o := range objs {
			if o.ID > id {
				out = append(out, o)
			}
		}
		return out
	}
	for _, c := range []struct {
		q    *model.Query
		objs []*model.Object
	}{{early, objs}, {late, laterThan(14)}} {
		want := bruteTopK(c.q, c.objs, at, clk.Now())
		if len(want) < 2 {
			t.Fatalf("vacuous: brute force for query %d is %v", c.q.ID, want)
		}
		if got := sys.TopKSet(c.q.ID); !equalIDs(got, want) {
			t.Errorf("query %d ranks %v after the replay, brute force %v", c.q.ID, got, want)
		}
	}
}

// TestReplayedExtractionRetractsBand: a top-k subscription's cell moves
// off a remote slot after a checkpoint, and the slot then crashes. The
// replay installs the base (the subscription and its band) and then the
// logged removing extraction, whose retractions must reach the board:
// otherwise the recovered slot keeps contributing entries it no longer
// holds, and no expiry sweep there ever takes them back.
func TestReplayedExtractionRetractsBand(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 57, 0)
	victim := startElasticNode(t, "")
	clk := newFakeClock(time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC))
	cfg := Config{
		Workers: 2, Mergers: 1,
		Builder:    hybrid.Builder{},
		OnMatch:    func(model.Match) {},
		OnTopK:     func(TopKUpdate) {},
		Clock:      clk.Now,
		WindowTick: time.Hour,
		Recovery: RecoveryConfig{
			Enabled:            true,
			CheckpointInterval: time.Hour, // this test places the one checkpoint
			HeartbeatInterval:  50 * time.Millisecond,
			RedialTimeout:      20 * time.Second,
		},
	}
	if err := cfg.ConnectRemoteWorkers([]string{victim.addr}, sample, wire.Backoff{Attempts: 5}); err != nil {
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
	gt := sys.gridT.Load()
	cell := -1
	for c := 0; c < gt.Grid().NumCells() && cell < 0; c++ {
		if ws := gt.CellWorkers(c); len(ws) == 1 && ws[0] == 0 {
			cell = c
		}
	}
	if cell < 0 {
		t.Fatal("no cell served by the remote slot alone")
	}
	r := gt.Grid().CellRect(cell)
	centre := r.Center()
	q := &model.Query{ID: 1, Expr: model.And("bandmove"), Region: geo.NewRect(
		(r.Min.X+centre.X)/2, (r.Min.Y+centre.Y)/2, (r.Max.X+centre.X)/2, (r.Max.Y+centre.Y)/2),
		TopK: 2, Window: time.Minute}
	var objs []*model.Object
	at := make(map[uint64]time.Time)
	publish := func(id uint64) {
		clk.Advance(time.Second)
		o := &model.Object{ID: id, Terms: []string{"bandmove"}, Loc: centre}
		objs = append(objs, o)
		at[id] = clk.Now()
		sys.Submit(model.Op{Kind: model.OpObject, Obj: o})
	}
	sys.Submit(model.Op{Kind: model.OpInsert, Query: q})
	publish(11)
	publish(12)
	publish(13)
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	if !sys.checkpointHop(sys.hop(0)) {
		t.Fatal("the checkpoint's population round failed")
	}
	sys.adjustMu.Lock()
	moved, _, ok := sys.migrateShare(0, 1, cell)
	sys.adjustMu.Unlock()
	if !ok || moved != 1 {
		t.Fatalf("migrateShare moved %d queries (ok %v), want the subscription", moved, ok)
	}
	victim.kill()
	startElasticNode(t, victim.addr)
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	check := func(phase string) {
		t.Helper()
		want := bruteTopK(q, objs, at, clk.Now())
		if len(want) == 0 {
			t.Fatalf("%s: vacuous: empty brute force", phase)
		}
		if got := sys.TopKSet(q.ID); !equalIDs(got, want) {
			t.Errorf("%s: the subscription ranks %v, brute force %v", phase, got, want)
		}
	}
	check("after the replay")
	// Every earlier object expires; one new object is all that is left.
	clk.Advance(2 * time.Minute)
	publish(14)
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	sys.AdvanceWindows()
	check("after expiry")
}

// TestOversizedCheckpointKeepsSession: a slot whose population encodes
// past wire.MaxFrameSize cannot be checkpointed, since its population
// round's reply is one frame. The node answers that round with a
// wire.RoundError, so the checkpoint fails while the session stays up:
// the log keeps its tail, the slot goes on matching, and a crash after it
// still replays every subscription.
func TestOversizedCheckpointKeepsSession(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 58, 0)
	victim := startElasticNode(t, "")
	var matched sync.Map
	cfg := Config{
		Workers: 1, Mergers: 1,
		Builder: hybrid.Builder{},
		OnMatch: func(m model.Match) { matched.Store([2]uint64{m.QueryID, m.ObjectID}, true) },
		Recovery: RecoveryConfig{
			Enabled:            true,
			CheckpointInterval: time.Hour, // this test places the checkpoint
			HeartbeatInterval:  50 * time.Millisecond,
			RedialTimeout:      20 * time.Second,
		},
	}
	if err := cfg.ConnectRemoteWorkers([]string{victim.addr}, sample, wire.Backoff{Attempts: 5}); err != nil {
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
	// Subscriptions of one 16 KiB keyword each: about 1 100 of them fill
	// a frame, where one-keyword subscriptions would take some 380 000.
	const n, kw = 1200, 16 << 10
	keyword := func(i int) string {
		return strconv.Itoa(i) + strings.Repeat("k", kw)
	}
	b := sample.Bounds
	for i := range n {
		sys.Submit(model.Op{Kind: model.OpInsert, Query: &model.Query{
			ID: uint64(i + 1), Expr: model.And(keyword(i)), Region: b}})
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	h := sys.hop(0)
	h.mu.Lock()
	gen := h.gen
	h.mu.Unlock()
	tail, age := h.log.TailLen(), h.log.CheckpointAge()
	if sys.checkpointHop(h) {
		t.Fatal("a population over the frame limit was checkpointed")
	}
	if !sys.slotUp(0) {
		t.Fatal("the failed checkpoint took the slot down")
	}
	h.mu.Lock()
	same := h.gen == gen
	h.mu.Unlock()
	if !same {
		t.Fatal("the failed checkpoint ended the session")
	}
	if got := h.log.TailLen(); got != tail || h.log.CheckpointAge() < age {
		t.Fatalf("the failed checkpoint changed the log: tail %d (was %d)", got, tail)
	}
	publish := func(id uint64, q int) {
		sys.Submit(model.Op{Kind: model.OpObject, Obj: &model.Object{
			ID: id, Terms: []string{keyword(q)}, Loc: b.Center()}})
		if err := sys.Drain(); err != nil {
			t.Fatal(err)
		}
		if _, ok := matched.Load([2]uint64{uint64(q + 1), id}); !ok {
			t.Fatalf("object %d did not match subscription %d", id, q+1)
		}
	}
	publish(1, 7)
	victim.kill()
	replacement := startElasticNode(t, victim.addr)
	publish(2, n-1)
	if got := replacement.worker.QueryCount(); got != n {
		t.Fatalf("the replacement node holds %d subscriptions after the replay, want %d", got, n)
	}
}

// A replacement node's engine counts from zero. The load window of its
// slot then runs from that engine's start: the reported load is never
// negative, and the controller is not blind until the new counts pass
// the old ones.
func TestWindowLoadsCountAReplacementNodeFromItsStart(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 23, 0)
	victim := startElasticNode(t, "")
	cfg := Config{Workers: 1, Mergers: 1, Builder: hybrid.Builder{},
		Recovery: RecoveryConfig{
			Enabled:            true,
			CheckpointInterval: time.Hour,
			HeartbeatInterval:  50 * time.Millisecond,
			RedialTimeout:      20 * time.Second,
		},
	}
	if err := cfg.ConnectRemoteWorkers([]string{victim.addr}, sample, wire.Backoff{Attempts: 5}); err != nil {
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
	at := sys.Bounds().Center()
	sys.Submit(model.Op{Kind: model.OpInsert, Query: &model.Query{ID: 1, Expr: model.And("x"), Region: sys.Bounds()}})
	for id := uint64(1); id <= 300; id++ {
		sys.Submit(objectOp(id, "x", at))
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	sys.AdjustNow() // commits the window start: 300 objects, 1 insert
	if !sys.checkpointHop(sys.hop(0)) {
		t.Fatal("checkpoint failed")
	}
	victim.kill()
	startElasticNode(t, victim.addr)
	for id := uint64(301); id <= 320; id++ {
		sys.Submit(objectOp(id, "x", at))
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	sys.RefreshWorkerStats(0)
	loads, cur, ops := sys.windowLoads()
	if cur[0].Objects >= 300 {
		t.Fatalf("vacuous: the replacement node reports %d objects, not fewer than its predecessor's 300", cur[0].Objects)
	}
	want := sys.cfg.Costs.Worker(float64(cur[0].Objects), float64(cur[0].Inserts), float64(cur[0].Deletes))
	if loads[0] != want || loads[0] <= 0 || ops != cur[0].Objects+cur[0].Inserts+cur[0].Deletes {
		t.Errorf("window load %v over %d ops with the replacement node's counts %+v, want %v from its start", loads[0], ops, cur[0], want)
	}
}
