package core

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"ps2stream/internal/hybrid"
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
		Dispatchers: 1,
		Workers:     4,
		Mergers:     2,
		Builder:     hybrid.Builder{},
		OnMatch:     ms.add,
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
	if err := sys.Drain(int64(len(ops))); err != nil {
		t.Fatal(err)
	}
	ms.mu.Lock()
	missing, extra := 0, 0
	for k := range want {
		if !ms.seen[k] {
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

func TestRemoteMergerDeliversAndCounts(t *testing.T) {
	sample, ops := smallWorkload(t, workload.Q1, 7, 2000)
	want := oracleMatches(ops)
	if len(want) == 0 {
		t.Fatal("vacuous: oracle produced no matches")
	}
	// All workers remote (a local worker's matches would bypass the
	// remote merger only if routed to a local merger task — with every
	// merger remote both placements work; keep workers local here to
	// cover the local-worker → remote-merger path).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ms := newMatchSet()
	mn := node.NewMerger(node.MergerOptions{OnMatch: ms.add})
	go mn.Serve(ctx, ln)

	cfg := Config{
		Dispatchers: 1,
		Workers:     3,
		Builder:     hybrid.Builder{},
	}
	if err := cfg.ConnectRemoteMergers([]string{ln.Addr().String(), ln.Addr().String()}, sample, wire.Backoff{Attempts: 5}); err != nil {
		t.Fatal(err)
	}
	if cfg.Mergers != 2 {
		t.Fatalf("Mergers = %d, want 2", cfg.Mergers)
	}
	sys, err := New(cfg, sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	sys.SubmitAll(ops)
	if err := sys.Drain(int64(len(ops))); err != nil {
		t.Fatal(err)
	}
	delivered, _, err := sys.RemoteDelivered()
	if err != nil {
		t.Fatal(err)
	}
	if delivered != int64(len(want)) {
		t.Errorf("remote delivered = %d, want %d", delivered, len(want))
	}
	ms.mu.Lock()
	got := len(ms.seen)
	exact := true
	for k := range want {
		if !ms.seen[k] {
			exact = false
		}
	}
	ms.mu.Unlock()
	if !exact || got != len(want) {
		t.Errorf("remote merger delivered %d matches, want the exact oracle set of %d", got, len(want))
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
	cfg := Config{Dispatchers: 1, Workers: 2, Builder: hybrid.Builder{}}
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
	if err := sys.Drain(int64(len(ops))); err != nil {
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
	if err := cfg.ConnectRemoteMergers([]string{"127.0.0.1:1"}, nil, wire.Backoff{Attempts: 1}); !errors.Is(err, ErrNilSample) {
		t.Errorf("ConnectRemoteMergers(nil sample): %v, want ErrNilSample", err)
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
			cfg := Config{Dispatchers: 1, Workers: 2, Builder: hybrid.Builder{}}
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
	cfg := Config{Dispatchers: 1, Workers: 1, Builder: hybrid.Builder{}}
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
