package ps2stream

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"
)

var usRegion = NewRegion(-125, 24, -66, 49)

type collector struct {
	mu sync.Mutex
	ms []Match
}

func (c *collector) add(m Match) {
	c.mu.Lock()
	c.ms = append(c.ms, m)
	c.mu.Unlock()
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ms)
}

func TestOpenPublishSubscribe(t *testing.T) {
	col := &collector{}
	sys, err := Open(Options{
		Region:  usRegion,
		Workers: 4,
		OnMatch: col.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	sub := Subscription{
		ID:         1,
		Query:      "coffee AND brooklyn",
		Region:     RegionAround(40.7, -73.95, 20, 20),
		Subscriber: 42,
	}
	if err := sys.Subscribe(sub); err != nil {
		t.Fatal(err)
	}
	sys.Publish(Message{ID: 10, Text: "Best coffee in Brooklyn!", Lat: 40.71, Lon: -73.95})
	sys.Publish(Message{ID: 11, Text: "coffee in seattle", Lat: 47.6, Lon: -122.3})
	sys.Publish(Message{ID: 12, Text: "brooklyn pizza", Lat: 40.71, Lon: -73.95})
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if col.len() != 1 {
		t.Fatalf("got %d matches, want 1 (%+v)", col.len(), col.ms)
	}
	m := col.ms[0]
	if m.SubscriptionID != 1 || m.MessageID != 10 || m.Subscriber != 42 {
		t.Errorf("match = %+v", m)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	col := &collector{}
	sys, err := Open(Options{Region: usRegion, Workers: 2, OnMatch: col.add})
	if err != nil {
		t.Fatal(err)
	}
	sub := Subscription{ID: 5, Query: "storm", Region: RegionAround(35, -90, 100, 100)}
	if err := sys.Subscribe(sub); err != nil {
		t.Fatal(err)
	}
	sys.Publish(Message{ID: 1, Text: "storm warning", Lat: 35, Lon: -90})
	if err := sys.Unsubscribe(sub); err != nil {
		t.Fatal(err)
	}
	sys.Publish(Message{ID: 2, Text: "storm again", Lat: 35, Lon: -90})
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if col.len() != 1 {
		t.Fatalf("got %d matches, want 1", col.len())
	}
}

// Subscribing again under an id that was unsubscribed replaces the old
// definition at once: a message only the old region covers must not be
// delivered for it, although the worker may not have dropped the old
// index entries yet.
func TestResubscribeSameIDReplacesDefinition(t *testing.T) {
	col := &collector{}
	sys, err := Open(Options{Region: usRegion, Workers: 2, OnMatch: col.add})
	if err != nil {
		t.Fatal(err)
	}
	wide := NewRegion(-100.3, 40.05, -100.1, 40.15)
	narrow := NewRegion(-100.3, 40.05, -100.2, 40.15)
	first := Subscription{ID: 7, Query: "storm", Region: wide}
	// A neighbour under the same keyword keeps messages in the wide-only
	// strip routed to the worker that held the first definition.
	neighbour := Subscription{ID: 8, Query: "storm", Region: wide}
	for _, step := range []func() error{
		func() error { return sys.Subscribe(first) },
		func() error { return sys.Subscribe(neighbour) },
		func() error { return sys.Unsubscribe(first) },
		func() error { return sys.Subscribe(Subscription{ID: 7, Query: "storm", Region: narrow}) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	sys.Flush()
	sys.Publish(Message{ID: 1, Text: "storm over the old strip", Lat: 40.1, Lon: -100.15})
	sys.Publish(Message{ID: 2, Text: "storm inside the new region", Lat: 40.1, Lon: -100.25})
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	got := map[[2]uint64]bool{}
	for _, m := range col.ms {
		got[[2]uint64{m.SubscriptionID, m.MessageID}] = true
	}
	want := map[[2]uint64]bool{{8, 1}: true, {8, 2}: true, {7, 2}: true}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("delivered (subscription, message) pairs %v, want %v", got, want)
	}
}

func TestOrQueries(t *testing.T) {
	col := &collector{}
	sys, err := Open(Options{Region: usRegion, Workers: 2, OnMatch: col.add})
	if err != nil {
		t.Fatal(err)
	}
	sys.Subscribe(Subscription{ID: 1, Query: "kobe OR lebron", Region: RegionAround(34, -118, 200, 200)})
	sys.Publish(Message{ID: 1, Text: "kobe retired", Lat: 34, Lon: -118})
	sys.Publish(Message{ID: 2, Text: "lebron dunks", Lat: 34, Lon: -118})
	sys.Publish(Message{ID: 3, Text: "kobe and lebron", Lat: 34, Lon: -118})
	sys.Publish(Message{ID: 4, Text: "curry shoots", Lat: 34, Lon: -118})
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if col.len() != 3 {
		t.Fatalf("got %d matches, want 3", col.len())
	}
}

func TestInvalidInputs(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Error("Open with empty region should fail")
	}
	if _, err := Open(Options{Region: usRegion, Strategy: "bogus"}); err == nil {
		t.Error("unknown strategy accepted")
	}
	sys, err := Open(Options{Region: usRegion, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Subscribe(Subscription{ID: 1, Query: ""}); err == nil {
		t.Error("empty query accepted")
	}
	if err := sys.Subscribe(Subscription{ID: 1, Query: "a AND"}); err == nil {
		t.Error("malformed query accepted")
	}
}

func TestAllStrategiesViaPublicAPI(t *testing.T) {
	for _, st := range []Strategy{
		StrategyHybrid, StrategyMetric, StrategyKDTree,
	} {
		t.Run(string(st), func(t *testing.T) {
			col := &collector{}
			// Seed so text strategies have statistics.
			var seedMsgs []Message
			var seedSubs []Subscription
			for i := 0; i < 50; i++ {
				seedMsgs = append(seedMsgs, Message{
					ID: uint64(i), Text: fmt.Sprintf("topic%d news update", i%7),
					Lat: 30 + float64(i%10), Lon: -120 + float64(i%20),
				})
				seedSubs = append(seedSubs, Subscription{
					ID: uint64(i + 1), Query: fmt.Sprintf("topic%d", i%7),
					Region: RegionAround(30+float64(i%10), -120+float64(i%20), 50, 50),
				})
			}
			sys, err := Open(Options{
				Region: usRegion, Workers: 4,
				Strategy: st, OnMatch: col.add,
				SeedMessages: seedMsgs, SeedSubscriptions: seedSubs,
			})
			if err != nil {
				t.Fatal(err)
			}
			sys.Subscribe(Subscription{ID: 100, Query: "topic3", Region: RegionAround(33, -117, 100, 100)})
			sys.Publish(Message{ID: 200, Text: "topic3 event", Lat: 33, Lon: -117})
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			if col.len() != 1 {
				t.Errorf("%s: got %d matches, want 1", st, col.len())
			}
		})
	}
}

func TestWorkerIndexValidation(t *testing.T) {
	for _, wi := range []WorkerIndex{"", WorkerIndexGI2} {
		sys, err := Open(Options{Region: usRegion, WorkerIndex: wi})
		if err != nil {
			t.Fatalf("WorkerIndex %q: %v", wi, err)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// GI2 is the only worker index; the names of the deleted ones are
	// unknown like any other.
	for _, wi := range []WorkerIndex{"btree", "rtree", "iqtree", "aptree"} {
		if _, err := Open(Options{Region: usRegion, WorkerIndex: wi}); err == nil {
			t.Errorf("worker index %q accepted", wi)
		}
	}
}

// Stats().WorkerQueries counts live subscriptions only: a worker's GI2
// keeps an unsubscribed query's entries until a match or purge walks its
// lists, and those must not count.
func TestWorkerQueriesExcludeUnsubscribed(t *testing.T) {
	sys, err := Open(Options{Region: usRegion, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	subs := make([]Subscription, 50)
	for i := range subs {
		subs[i] = Subscription{
			ID: uint64(i + 1), Query: "news",
			Region: RegionAround(30+float64(i%15), -100, 30, 30),
		}
		if err := sys.Subscribe(subs[i]); err != nil {
			t.Fatal(err)
		}
	}
	sys.Flush()
	sum := func() (n int) {
		for _, q := range sys.Stats().WorkerQueries {
			n += q
		}
		return n
	}
	if n := sum(); n < len(subs) {
		t.Fatalf("WorkerQueries sum to %d with %d live subscriptions", n, len(subs))
	}
	for _, sub := range subs {
		if err := sys.Unsubscribe(sub); err != nil {
			t.Fatal(err)
		}
	}
	sys.Flush()
	if n := sys.SubscriptionCount(); n != 0 {
		t.Errorf("SubscriptionCount = %d after unsubscribing all, want 0", n)
	}
	if n := sum(); n != 0 {
		t.Errorf("WorkerQueries sum to %d after unsubscribing all, want 0", n)
	}
}

func TestStatsAndFlush(t *testing.T) {
	sys, err := Open(Options{Region: usRegion, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys.Subscribe(Subscription{ID: 1, Query: "x", Region: RegionAround(35, -90, 10, 10)})
	for i := 0; i < 100; i++ {
		sys.Publish(Message{ID: uint64(i), Text: "x y z", Lat: 35, Lon: -90})
	}
	sys.Flush()
	st := sys.Stats()
	if st.Processed != 101 {
		t.Errorf("Processed = %d, want 101", st.Processed)
	}
	if st.Matches != 100 {
		t.Errorf("Matches = %d, want 100", st.Matches)
	}
	total := 0
	for _, c := range st.WorkerQueries {
		total += c
	}
	if total == 0 {
		t.Error("no worker holds the subscription")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err == nil {
		t.Error("double close should fail")
	}
}

func TestAdjustAutoOption(t *testing.T) {
	sys, err := Open(Options{
		Region: usRegion, Workers: 4,
		Adjust: AdjustOptions{Auto: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	// Adjustment demands the hybrid strategy.
	if _, err := Open(Options{
		Region: usRegion, Strategy: StrategyKDTree, Adjust: AdjustOptions{Auto: true},
	}); err == nil {
		t.Error("adjustment with kdtree strategy should fail")
	}
}

func TestAdjustOptionsAndAdjustNow(t *testing.T) {
	// Manual mode: controller off, AdjustNow on demand. Subscriptions
	// spread over two areas, traffic concentrated on one of them.
	sys, err := Open(Options{
		Region: usRegion, Workers: 4,
		Adjust: AdjustOptions{Theta: 1.05, Cooldown: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		lat, lon := 33+rng.Float64()*14, -120+rng.Float64()*50
		if err := sys.Subscribe(Subscription{
			ID:     uint64(i + 1),
			Query:  fmt.Sprintf("hot%02d", i%30),
			Region: RegionAround(lat, lon, 120, 120),
		}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Flush()
	for i := 0; i < 3000; i++ {
		sys.Publish(Message{
			ID:   uint64(1000 + i),
			Text: fmt.Sprintf("hot%02d hot%02d", i%30, (i+7)%30),
			Lat:  40.7 + rng.NormFloat64()*0.3,
			Lon:  -74 + rng.NormFloat64()*0.3,
		})
	}
	sys.Flush()
	moved := sys.AdjustNow()
	if moved == 0 {
		t.Fatal("AdjustNow did not migrate under a one-metro burst")
	}
	st := sys.Stats()
	if st.Adjust.Auto {
		t.Error("Stats.Adjust.Auto true without Adjust.Auto")
	}
	if st.Adjust.ManualTriggers == 0 || st.Adjust.Migrations != moved {
		t.Errorf("controller stats inconsistent with AdjustNow: %+v vs %d", st.Adjust, moved)
	}
	// One smoothed load per routing slot — derived from the reported
	// topology, not a constant, so spare slots don't invalidate it.
	if st.Adjust.Epoch == 0 || len(st.Adjust.EWMALoads) != len(st.WorkerQueries) {
		t.Errorf("controller stats not populated: %+v", st.Adjust)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Auto mode surfaces in Stats; non-hybrid strategies still reject it.
	sys2, err := Open(Options{Region: usRegion, Adjust: AdjustOptions{Auto: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !sys2.Stats().Adjust.Auto {
		t.Error("Stats.Adjust.Auto false with Adjust.Auto set")
	}
	if err := sys2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{
		Region: usRegion, Strategy: StrategyKDTree, Adjust: AdjustOptions{Auto: true},
	}); err == nil {
		t.Error("Adjust.Auto with kdtree strategy should fail")
	}
}

// TestCheckpointRestore runs twice: with every worker in-process, and
// with two of the four workers behind loopback TCP, whose subscriptions
// the checkpoint must carry too.
func TestCheckpointRestore(t *testing.T) {
	t.Run("in-process", func(t *testing.T) { checkpointRestore(t, nil) })
	t.Run("remote", func(t *testing.T) {
		checkpointRestore(t, []string{startWorkerNode(t), startWorkerNode(t)})
	})
}

func checkpointRestore(t *testing.T, remote []string) {
	// Build a system with a mixed subscription population.
	sys, err := Open(Options{Region: usRegion, Workers: 4, RemoteWorkers: remote})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		q := fmt.Sprintf("topic%d", i%5)
		if i%2 == 0 {
			q += fmt.Sprintf(" AND extra%d", i%3)
		}
		if err := sys.Subscribe(Subscription{
			ID: uint64(i + 1), Query: q,
			Region:     RegionAround(30+float64(i%15), -110+float64(i%30), 60, 60),
			Subscriber: uint64(i % 7),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Drop a few so the checkpoint reflects deletions.
	for i := 0; i < 10; i++ {
		q := fmt.Sprintf("topic%d", i%5)
		if i%2 == 0 {
			q += fmt.Sprintf(" AND extra%d", i%3)
		}
		if err := sys.Unsubscribe(Subscription{
			ID: uint64(i + 1), Query: q,
			Region: RegionAround(30+float64(i%15), -110+float64(i%30), 60, 60),
		}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Flush()
	var buf bytes.Buffer
	if err := sys.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh system (different worker count) and verify
	// delivery behaviour carried over.
	col := &collector{}
	sys2, err := Open(Options{
		Region: usRegion, Workers: 3, OnMatch: col.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := sys2.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 30 {
		t.Errorf("restored %d subscriptions, want 30", n)
	}
	sys2.Flush()
	// Subscription 11 ("topic0") survived; subscription 1 was dropped
	// pre-checkpoint, so only one of the two regions can fire.
	sys2.Publish(Message{ID: 900, Text: "topic0 extra1 event", Lat: 30 + 10, Lon: -110 + 10}) // sub 11's region+terms
	sys2.Flush()
	if err := sys2.Close(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range col.ms {
		if m.SubscriptionID == 11 && m.MessageID == 900 {
			found = true
		}
		if m.SubscriptionID <= 10 {
			t.Errorf("deleted subscription %d fired after restore", m.SubscriptionID)
		}
	}
	if !found {
		t.Error("restored subscription 11 did not fire")
	}
}

// TestRestoreLegacyFixtures: the snapshots earlier builds wrote — a
// version-1 query snapshot and a version-2 worker state file in gob, and
// a version-3 file of InstallCells frames — still restore, and every
// subscription in them is live afterwards.
func TestRestoreLegacyFixtures(t *testing.T) {
	for file, want := range map[string]int{"v1.gob": 12, "v2.gob": 40, "v3.snap": 24} {
		blob, err := os.ReadFile(filepath.Join("internal", "snapshot", "testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		sys, err := Open(Options{Region: NewRegion(0, 0, 100, 100), Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if n, err := sys.Restore(bytes.NewReader(blob)); err != nil || n != want {
			t.Errorf("%s: restored %d, err %v; want %d", file, n, err, want)
		}
		sys.Flush()
		if n := sys.SubscriptionCount(); n != want {
			t.Errorf("%s: %d subscriptions live after the restore, want %d", file, n, want)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	sys, err := Open(Options{Region: usRegion, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Restore(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage snapshot accepted")
	}
}

func TestRegionHelpers(t *testing.T) {
	r := NewRegion(-10, 40, 10, 50)
	if r.MinLon != -10 || r.MaxLat != 50 {
		t.Errorf("NewRegion = %+v", r)
	}
	// Swapped corners normalise.
	r2 := NewRegion(10, 50, -10, 40)
	if r2 != r {
		t.Errorf("corner order not normalised: %+v vs %+v", r2, r)
	}
	ra := RegionAround(40, -74, 10, 10)
	if ra.MinLat >= ra.MaxLat || ra.MinLon >= ra.MaxLon {
		t.Errorf("RegionAround degenerate: %+v", ra)
	}
	c := ra.rect().Center()
	if c.Y < 39.9 || c.Y > 40.1 {
		t.Errorf("RegionAround center lat = %v", c.Y)
	}
}

func TestSubscriptionCountAndBalanceStats(t *testing.T) {
	sys, err := Open(Options{Region: usRegion, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for i := uint64(1); i <= 20; i++ {
		if err := sys.Subscribe(Subscription{
			ID: i, Query: "news",
			Region: RegionAround(30+float64(i), -100, 30, 30),
		}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Flush()
	if n := sys.SubscriptionCount(); n != 20 {
		t.Errorf("SubscriptionCount = %d, want 20", n)
	}
	for i := 0; i < 50; i++ {
		sys.Publish(Message{ID: uint64(100 + i), Text: "news flash", Lat: 35, Lon: -100})
	}
	sys.Flush()
	st := sys.Stats()
	// One load entry per routing slot, matching the reported topology
	// rather than the configured constant (spare slots count too).
	if len(st.WorkerLoads) != len(st.WorkerQueries) {
		t.Fatalf("WorkerLoads = %v with %d worker slots", st.WorkerLoads, len(st.WorkerQueries))
	}
	var total float64
	for _, l := range st.WorkerLoads {
		total += l
	}
	if total <= 0 {
		t.Error("no worker load recorded")
	}
	if st.BalanceFactor < 1 && st.BalanceFactor != 0 {
		t.Errorf("BalanceFactor = %v, want >= 1 or 0", st.BalanceFactor)
	}
}

// TestUnseededOpenSpreadsCells: an Open without seed messages cuts the
// region into one equal piece per worker, under both strategies that own
// space, so a subscription covering the whole region is held by every
// worker rather than by one that owns every cell.
func TestUnseededOpenSpreadsCells(t *testing.T) {
	for _, st := range []Strategy{StrategyHybrid, StrategyKDTree} {
		t.Run(string(st), func(t *testing.T) {
			sys, err := Open(Options{Region: usRegion, Workers: 3, Strategy: st})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			for i := uint64(1); i <= 30; i++ {
				if err := sys.Subscribe(Subscription{ID: i, Query: "news", Region: usRegion}); err != nil {
					t.Fatal(err)
				}
			}
			sys.Flush()
			if got := sys.Stats().WorkerQueries; !slices.Equal(got, []int{30, 30, 30}) {
				t.Errorf("WorkerQueries = %v, want 30 on every worker", got)
			}
		})
	}
}

func TestRepartitionViaPublicAPI(t *testing.T) {
	col := &collector{}
	sys, err := Open(Options{Region: usRegion, Workers: 4, OnMatch: col.add})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sub := Subscription{ID: 1, Query: "alert", Region: RegionAround(40, -100, 60, 60)}
	if err := sys.Subscribe(sub); err != nil {
		t.Fatal(err)
	}
	sys.Flush()

	// Drift: fit the strategy to a new sample.
	var msgs []Message
	var subs []Subscription
	for i := 0; i < 40; i++ {
		msgs = append(msgs, Message{
			ID: uint64(i), Text: fmt.Sprintf("alert zone%d", i%4),
			Lat: 30 + float64(i%8), Lon: -110 + float64(i%12),
		})
		subs = append(subs, Subscription{
			ID: uint64(i + 10), Query: fmt.Sprintf("zone%d", i%4),
			Region: RegionAround(30+float64(i%8), -110+float64(i%12), 40, 40),
		})
	}
	if err := sys.Repartition(msgs, subs); err != nil {
		t.Fatal(err)
	}
	// A second repartition while one is in flight must fail.
	if err := sys.Repartition(msgs, subs); err == nil {
		t.Error("overlapping repartition accepted")
	}
	// Old subscription still matches during the dual-routing phase.
	sys.Publish(Message{ID: 100, Text: "alert issued", Lat: 40, Lon: -100})
	sys.Flush()
	if moved := sys.FinishRepartition(); moved < 0 {
		t.Errorf("FinishRepartition = %d", moved)
	}
	if n := sys.FinishRepartition(); n != 0 {
		t.Errorf("second FinishRepartition = %d, want 0", n)
	}
	// And still matches after the transition completes.
	sys.Publish(Message{ID: 101, Text: "alert again", Lat: 40, Lon: -100})
	sys.Flush()
	found := map[uint64]bool{}
	col.mu.Lock()
	for _, m := range col.ms {
		if m.SubscriptionID == 1 {
			found[m.MessageID] = true
		}
	}
	col.mu.Unlock()
	if !found[100] || !found[101] {
		t.Errorf("matches across repartition = %v, want {100,101}", found)
	}
	// Malformed sample subscriptions surface as errors.
	if err := sys.Repartition(nil, []Subscription{{ID: 9, Query: "a AND"}}); err == nil {
		t.Error("malformed repartition sample accepted")
	}
}

// spreadMessages returns n messages spread over usRegion, so a seeded
// hybrid strategy gives every worker cells.
func spreadMessages(n int) []Message {
	msgs := make([]Message, n)
	for i := range msgs {
		msgs[i] = Message{
			ID:   uint64(i + 1),
			Text: fmt.Sprintf("topic%d news", i%7),
			Lat:  25 + float64(i%23),
			Lon:  -124 + float64(i*7%57),
		}
	}
	return msgs
}

// Stats().BalanceFactor is the balance of the member workers' loads: an
// unclaimed spare slot reads zero load and must not count.
func TestStatsBalanceFactorCountsMembers(t *testing.T) {
	seed := spreadMessages(400)
	sys, err := Open(Options{Region: usRegion, Workers: 2, SpareWorkers: 1, SeedMessages: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Subscribe(Subscription{ID: 1, Query: "news", Region: usRegion}); err != nil {
		t.Fatal(err)
	}
	sys.Flush()
	for i := range seed {
		m := seed[i]
		m.ID += 1000
		sys.Publish(m)
	}
	sys.Flush()
	st := sys.Stats()
	if len(st.WorkerLoads) != 3 {
		t.Fatalf("WorkerLoads = %v, want 3 slots, the spare included", st.WorkerLoads)
	}
	a, b := st.WorkerLoads[0], st.WorkerLoads[1]
	if a <= 0 || b <= 0 {
		t.Fatalf("WorkerLoads = %v: the seed must give both members traffic", st.WorkerLoads)
	}
	if want := max(a, b) / min(a, b); math.Abs(st.BalanceFactor-want) > 1e-9*want {
		t.Errorf("BalanceFactor = %v, want %v, max/min of the members' loads %v", st.BalanceFactor, want, st.WorkerLoads[:2])
	}
}
