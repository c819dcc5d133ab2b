package ps2stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"ps2stream/internal/node"
)

// startWorkerNode launches one psnode-style worker serve loop on
// loopback TCP and returns its address.
func startWorkerNode(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go node.NewWorker(node.WorkerOptions{}).Serve(ctx, ln)
	return ln.Addr().String()
}

// TestRemoteWorkersViaPublicAPI: an embedding process with
// Options.RemoteWorkers delivers matches produced across the wire
// through the ordinary OnMatch hook, and Flush covers the remote hop.
func TestRemoteWorkersViaPublicAPI(t *testing.T) {
	col := &collector{}
	sys, err := Open(Options{
		Region:        usRegion,
		Workers:       3, // task 0 remote, tasks 1-2 in-process
		RemoteWorkers: []string{startWorkerNode(t)},
		OnMatch:       col.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := sys.Subscribe(Subscription{
			ID:     uint64(i + 1),
			Query:  fmt.Sprintf("tag%d", i%4),
			Region: RegionAround(35+float64(i%8), -100+float64(i%20), 200, 200),
		}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Flush()
	for i := 0; i < 200; i++ {
		sys.Publish(Message{
			ID:   uint64(1000 + i),
			Text: fmt.Sprintf("tag%d tag%d event", i%4, (i+1)%4),
			Lat:  35 + float64(i%8),
			Lon:  -100 + float64(i%20),
		})
	}
	sys.Flush()
	// Flush guarantees exactness: delivered must equal Stats().Matches,
	// and the set must be non-trivial.
	st := sys.Stats()
	if int64(col.len()) != st.Matches {
		t.Errorf("OnMatch saw %d, Stats.Matches %d — Flush returned early", col.len(), st.Matches)
	}
	if st.Matches == 0 {
		t.Error("no matches across the wire")
	}
	// Top-k subscriptions ride remote workers too: membership deltas
	// stream back over the wire and Flush settles the board.
	if err := sys.SubscribeTopK(Subscription{ID: 999, Query: "tag1", Region: usRegion}, 3, time.Minute); err != nil {
		t.Errorf("SubscribeTopK with RemoteWorkers: %v", err)
	}
	sys.Flush()
	sys.Publish(Message{ID: 9000, Text: "tag1 event", Lat: 36, Lon: -99})
	sys.Flush()
	if got := sys.TopKSet(999); len(got) == 0 {
		t.Error("top-k set empty after a matching publish across the wire")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteWorkersExactMatchSet: the same seeded workload must produce
// the byte-identical match set whether worker tasks run in-process,
// behind loopback TCP, or one of each. The messages mix upper and lower
// case: an in-process slot matches on the ids the dispatcher reads from
// the text, a remote one on the terms made for it.
func TestRemoteWorkersExactMatchSet(t *testing.T) {
	type key struct{ sub, msg uint64 }
	run := func(nodes int) map[key]bool {
		col := &collector{}
		opts := Options{
			Region:  usRegion,
			Workers: 2,
			OnMatch: col.add,
		}
		for range nodes {
			opts.RemoteWorkers = append(opts.RemoteWorkers, startWorkerNode(t))
		}
		sys, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(77))
		for i := 0; i < 50; i++ {
			if err := sys.Subscribe(Subscription{
				ID:         uint64(i + 1),
				Query:      fmt.Sprintf("kw%d AND kw%d", i%7, (i+3)%7),
				Region:     RegionAround(30+rng.Float64()*15, -120+rng.Float64()*50, 300, 300),
				Subscriber: uint64(i),
			}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 600; i++ {
			sys.Publish(Message{
				ID:   uint64(5000 + i),
				Text: fmt.Sprintf("KW%d kw%d, Kw%d!", i%7, (i+3)%7, (i+5)%7),
				Lat:  30 + rng.Float64()*15,
				Lon:  -120 + rng.Float64()*50,
			})
		}
		sys.Flush()
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		col.mu.Lock()
		defer col.mu.Unlock()
		out := make(map[key]bool, len(col.ms))
		for _, m := range col.ms {
			out[key{m.SubscriptionID, m.MessageID}] = true
		}
		return out
	}
	want := run(0)
	if len(want) == 0 {
		t.Fatal("vacuous: in-process run produced no matches")
	}
	for _, nodes := range []int{1, 2} {
		got := run(nodes)
		if len(got) != len(want) {
			t.Errorf("%d remote slots: delivered %d distinct matches, in-process %d", nodes, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Errorf("%d remote slots: match %v missing", nodes, k)
			}
		}
		for k := range got {
			if !want[k] {
				t.Errorf("%d remote slots: match %v extra", nodes, k)
			}
		}
	}
}

// TestRestoreBoundsMismatch: a snapshot taken over one region must be
// refused by a system monitoring another — its grid cell ids would not
// line up and the restored subscriptions would never match.
func TestRestoreBoundsMismatch(t *testing.T) {
	src, err := Open(Options{Region: usRegion, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Subscribe(Subscription{ID: 1, Query: "coffee",
		Region: RegionAround(40, -100, 50, 50)}); err != nil {
		t.Fatal(err)
	}
	src.Flush()
	var snap bytes.Buffer
	if err := src.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}

	europe := NewRegion(-10, 36, 30, 60)
	dst, err := Open(Options{Region: europe, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	n, err := dst.Restore(bytes.NewReader(snap.Bytes()))
	if !errors.Is(err, ErrBoundsMismatch) {
		t.Fatalf("Restore across regions: err = %v, want ErrBoundsMismatch", err)
	}
	if n != 0 {
		t.Errorf("Restore reported %d subscriptions despite refusing", n)
	}
	if got := dst.SubscriptionCount(); got != 0 {
		t.Errorf("%d subscriptions registered despite the bounds mismatch", got)
	}
}

// TestFlushExactUnderLoad: Stats().Matches read immediately after Flush
// must be exact. The pre-barrier Flush ended with a flat 20ms sleep and
// undercounted whenever mergers lagged; this loops enough rounds that a
// grace-sleep implementation fails reliably under -race or load.
func TestFlushExactUnderLoad(t *testing.T) {
	col := &collector{}
	sys, err := Open(Options{
		Region:    usRegion,
		Workers:   4,
		BatchSize: 16,
		OnMatch: func(m Match) {
			// A deliberately slow consumer: with the old sleep-based
			// Flush, delivery lag made the post-Flush read undercount.
			time.Sleep(20 * time.Microsecond)
			col.add(m)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const subs = 25
	for i := 0; i < subs; i++ {
		if err := sys.Subscribe(Subscription{
			ID:     uint64(i + 1),
			Query:  "flood",
			Region: RegionAround(40, -100, 2000, 2000),
		}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Flush()
	var want int64
	for round := 0; round < 5; round++ {
		const msgs = 40
		for i := 0; i < msgs; i++ {
			sys.Publish(Message{
				ID:   uint64(round*msgs + i + 1),
				Text: "flood warning",
				Lat:  40, Lon: -100,
			})
		}
		want += subs * msgs
		sys.Flush()
		if got := sys.Stats().Matches; got != want {
			t.Fatalf("round %d: Stats().Matches = %d immediately after Flush, want %d", round, got, want)
		}
		if got := int64(col.len()); got != want {
			t.Fatalf("round %d: OnMatch delivered %d after Flush, want %d", round, got, want)
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// Stats().WorkerQueries reports a remote worker's own live-query count,
// read by the stats round Stats runs, as it does an in-process worker's.
func TestStatsWorkerQueriesCountRemoteSlots(t *testing.T) {
	sys, err := Open(Options{
		Region:        usRegion,
		Workers:       3, // task 0 remote, tasks 1-2 in-process
		RemoteWorkers: []string{startWorkerNode(t)},
		SeedMessages:  spreadMessages(300),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	const n = 30
	for i := 0; i < n; i++ {
		if err := sys.Subscribe(Subscription{ID: uint64(i + 1), Query: fmt.Sprintf("tag%d", i%5), Region: usRegion}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Flush()
	// A subscription over the whole region reaches every worker's cells.
	if got := sys.Stats().WorkerQueries; len(got) != 3 || got[0] != n || got[1] != n || got[2] != n {
		t.Errorf("WorkerQueries = %v, want %d on each of 3 workers, the remote task 0 included", got, n)
	}
}
