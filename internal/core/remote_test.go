package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"ps2stream/internal/hybrid"
	"ps2stream/internal/model"
	"ps2stream/internal/node"
	"ps2stream/internal/wire"
	"ps2stream/internal/workload"
)

// startWorkerNodes launches n in-process worker nodes on loopback TCP
// (real sockets, the psnode serve loop) and returns their addresses.
func startWorkerNodes(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
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
	}
	return addrs
}

func TestRemoteWorkersMatchInProcessOracle(t *testing.T) {
	sample, ops := smallWorkload(t, workload.Q1, 42, 3000)
	want := oracleMatches(ops)
	if len(want) == 0 {
		t.Fatal("vacuous: oracle produced no matches")
	}
	// Mixed placement: workers 0,1 remote over loopback TCP, workers
	// 2,3 in-process.
	addrs := startWorkerNodes(t, 2)
	ms := newMatchSet()
	cfg := Config{
		Workers: 4,
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
	sys.SubmitAll(ops)
	// The drain barrier alone must make the delivered set exact — no
	// Close, no sleeps.
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
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
		t.Errorf("after Drain: %d missing, %d extra of %d oracle matches", missing, extra, len(want))
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConnectRemoteWorkersKeepsWorkerDefault: listing one remote
// address must not shrink an unset Workers below the default 8 — the
// remote task joins the default topology, it does not replace it.
func TestConnectRemoteWorkersKeepsWorkerDefault(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 2, 10)
	addrs := startWorkerNodes(t, 1)
	cfg := Config{}
	if err := cfg.ConnectRemoteWorkers(addrs, sample, wire.Backoff{Attempts: 5}); err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 8 {
		t.Errorf("Workers = %d after connecting 1 remote, want the default 8", cfg.Workers)
	}
	if len(cfg.RemoteWorkers) != 1 || cfg.RemoteWorkers[0] == nil {
		t.Errorf("RemoteWorkers = %v, want task 0 connected", cfg.RemoteWorkers)
	}
	cfg.RemoteWorkers[0].Close()
}

func TestRemoteValidation(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 3, 10)
	// Out-of-range remote task (refused before the session is touched).
	_, err := New(Config{Workers: 2, RemoteWorkers: map[int]*wire.WorkerClient{5: nil}}, sample)
	if !errors.Is(err, ErrRemoteTask) {
		t.Errorf("out-of-range worker: %v, want ErrRemoteTask", err)
	}
}

// TestRemoteRepartitionOverWire: global repartition is a coordinated
// wire operation for psnode-backed workers — beginning and finishing a
// repartition under live remote membership must succeed and keep every
// match exact (the remote population is swept through ExtractCells and
// reinstalled through InstallCells).
func TestRemoteRepartitionOverWire(t *testing.T) {
	sample, ops := smallWorkload(t, workload.Q1, 5, 500)
	addrs := startWorkerNodes(t, 1)
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
	sys.SubmitAll(ops)
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := sys.GlobalRepartition(sample, nil); err != nil {
		t.Fatalf("GlobalRepartition over wire: %v", err)
	}
	sys.FinishGlobalRepartition()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteWholeRegionPopulationOverWire: a remote worker holding 120
// subscriptions that each cover all 4 096 grid cells answers a
// population round with each subscription once, so GlobalRepartition,
// FinishGlobalRepartition and Checkpoint succeed and the session stays
// up. A per-cell sweep would copy every subscription 4 096 times and
// outgrow wire.MaxFrameSize.
func TestRemoteWholeRegionPopulationOverWire(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 5, 10)
	addrs := startWorkerNodes(t, 1)
	ms := newMatchSet()
	cfg := Config{Workers: 2, Builder: hybrid.Builder{}, OnMatch: ms.add}
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
	const subs = 120
	for i := 1; i <= subs; i++ {
		sys.Submit(model.Op{Kind: model.OpInsert, Query: &model.Query{
			ID: uint64(i), Expr: model.And(fmt.Sprintf("kw%d", i%7)), Region: sample.Bounds,
		}})
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	p, err := sys.population(sys.send(slotPopulation(0, true)))
	if err != nil {
		t.Fatalf("population round of the remote worker: %v", err)
	}
	reply := len(wire.AppendCellShare(nil, wire.CellShare{Cells: []wire.CellPayload{p}}))
	t.Logf("population reply of %d whole-region subscriptions: %d bytes", len(p.Queries), reply)
	if len(p.Queries) != subs || reply > 16<<10 {
		t.Errorf("population reply: %d queries in %d bytes, want %d in a few KB", len(p.Queries), reply, subs)
	}
	if err := sys.GlobalRepartition(sample, nil); err != nil {
		t.Fatalf("GlobalRepartition: %v", err)
	}
	sys.FinishGlobalRepartition()
	var buf bytes.Buffer
	n, err := sys.Checkpoint(&buf)
	if err != nil || n != subs {
		t.Fatalf("Checkpoint: %d subscriptions, err %v; want %d", n, err, subs)
	}
	// The session is still up: a publish reaches every subscription on
	// its keyword.
	sys.Submit(model.Op{Kind: model.OpObject, Obj: &model.Object{ID: 9000, Terms: []string{"kw3"}, Loc: sample.Bounds.Center()}})
	if err := sys.Drain(); err != nil {
		t.Fatalf("Drain after the rounds: %v", err)
	}
	if got := ms.len(); got != subs/7 {
		t.Errorf("object 9000 matched %d subscriptions, want the %d on kw3", got, subs/7)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteHelloNilSample: assembling a handshake without a sample must
// not panic (regression: sample.Bounds was dereferenced unconditionally
// while the terms path guarded nil), and dialling without one is refused
// with a typed error before any connection is attempted.
func TestRemoteHelloNilSample(t *testing.T) {
	cfg := Config{Workers: 2}
	h := cfg.RemoteHello(0, nil) // must not panic
	if h.Terms != nil || h.Bounds.Valid() && h.Bounds.Area() != 0 {
		t.Errorf("nil-sample hello carries state: %+v", h)
	}
	if err := cfg.ConnectRemoteWorkers([]string{"127.0.0.1:1"}, nil, wire.Backoff{Attempts: 1}); !errors.Is(err, ErrNilSample) {
		t.Errorf("ConnectRemoteWorkers(nil sample): %v, want ErrNilSample", err)
	}
}

// TestConnectRemoteWorkersFailureKeepsCallerSessions: a failed dial
// must close and remove only the sessions that call dialled —
// caller-installed entries survive untouched, so a retry (or New) never
// finds a closed session left behind in the Config.
func TestConnectRemoteWorkersFailureKeepsCallerSessions(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 2, 10)
	nodes := startWorkerNodes(t, 2)
	good := nodes[0]
	cfg := Config{Workers: 8}
	pre, err := wire.DialWorker(nodes[1], cfg.RemoteHello(7, sample), wire.Backoff{Attempts: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer pre.Close()
	cfg.RemoteWorkers = map[int]*wire.WorkerClient{7: pre}
	// Address 0 dials fine (real node), address 1 is unreachable: the
	// call must fail, close its own dial for task 0, and leave task 7
	// alone.
	err = cfg.ConnectRemoteWorkers([]string{good, "127.0.0.1:1"}, sample, wire.Backoff{Attempts: 1})
	if err == nil {
		t.Fatal("ConnectRemoteWorkers succeeded against an unreachable address")
	}
	if _, err := pre.Drain(); err != nil {
		t.Errorf("caller-installed session closed by a failed connect: %v", err)
	}
	if cl, ok := cfg.RemoteWorkers[7]; !ok || cl != pre {
		t.Errorf("caller-installed session evicted: RemoteWorkers[7] = %v", cl)
	}
	if _, ok := cfg.RemoteWorkers[0]; ok {
		t.Error("failed connect left its own dead session behind at task 0")
	}
	if _, ok := cfg.RemoteWorkers[1]; ok {
		t.Error("failed connect left a session for the address that never connected")
	}
}

// TestRemoteConfigMismatchDetected: the handshake pins the topology
// shape at dial time; mutating the Config before New must surface as a
// typed error instead of a silently disagreeing cluster.
func TestRemoteConfigMismatchDetected(t *testing.T) {
	sample, _ := smallWorkload(t, workload.Q1, 4, 10)
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"workers", func(c *Config) { c.Workers = c.Workers + 1 }},
		{"granularity", func(c *Config) { c.Granularity = 16 }},
		{"batch", func(c *Config) { c.BatchSize = 7 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrs := startWorkerNodes(t, 1)
			cfg := Config{Workers: 2, Builder: hybrid.Builder{}}
			if err := cfg.ConnectRemoteWorkers(addrs, sample, wire.Backoff{Attempts: 5}); err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, tr := range cfg.RemoteWorkers {
					tr.Close()
				}
			}()
			tc.mutate(&cfg)
			if _, err := New(cfg, sample); !errors.Is(err, ErrRemoteConfigMismatch) {
				t.Errorf("New after mutating %s: %v, want ErrRemoteConfigMismatch", tc.name, err)
			}
		})
	}
}

// TestRemoteAbortUnblocks: cancelling the run context must unblock the
// transport reads so Abort terminates promptly.
func TestRemoteAbortUnblocks(t *testing.T) {
	sample, ops := smallWorkload(t, workload.Q1, 11, 100)
	addrs := startWorkerNodes(t, 1)
	cfg := Config{Workers: 1, Builder: hybrid.Builder{}}
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
	sys.SubmitAll(ops)
	done := make(chan struct{})
	go func() {
		sys.Abort()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Abort hung with a remote worker attached")
	}
}
