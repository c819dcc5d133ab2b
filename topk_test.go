package ps2stream

import (
	"sort"
	"sync"
	"testing"
	"time"
)

// collectTopK gathers TopKUpdate deliveries thread-safely.
type collectTopK struct {
	mu  sync.Mutex
	ups []TopKUpdate
}

func (c *collectTopK) add(u TopKUpdate) {
	c.mu.Lock()
	c.ups = append(c.ups, u)
	c.mu.Unlock()
}

// set replays the update stream into the membership it implies.
func (c *collectTopK) set(sub uint64) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := make(map[uint64]bool)
	for _, u := range c.ups {
		if u.SubscriptionID != sub {
			continue
		}
		if u.Event == TopKEntered {
			cur[u.MessageID] = true
		} else {
			delete(cur, u.MessageID)
		}
	}
	out := make([]uint64, 0, len(cur))
	for id := range cur {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestSubscribeTopKDeliversRankedWindow(t *testing.T) {
	var mu sync.Mutex
	now := time.Date(2026, 4, 1, 8, 0, 0, 0, time.UTC)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	col := &collectTopK{}
	sys, err := Open(Options{
		Region:  NewRegion(-125, 24, -66, 49),
		Workers: 4,
		OnTopK:  col.add,
		Now:     clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	if err := sys.SubscribeTopK(Subscription{
		ID:         1,
		Query:      "pizza OR pasta",
		Region:     RegionAround(40.7, -73.95, 200, 200),
		Subscriber: 42,
	}, 2, time.Minute); err != nil {
		t.Fatal(err)
	}
	sys.Flush()

	// Three matching messages: with k=2 the third (least relevant —
	// farthest and only partially matching) must displace nothing.
	msgs := []Message{
		{ID: 10, Text: "pizza pasta night", Lat: 40.70, Lon: -73.95},
		{ID: 11, Text: "fresh pizza slices", Lat: 40.71, Lon: -73.94},
		{ID: 12, Text: "pasta", Lat: 41.2, Lon: -74.5},
	}
	for _, m := range msgs {
		advance(time.Second)
		sys.Publish(m)
	}
	sys.Flush()
	sys.AdvanceTopK()

	got := sys.TopKSet(1)
	if len(got) != 2 {
		t.Fatalf("TopKSet is %v, want 2 entries", got)
	}
	if implied := col.set(1); !equalU64(implied, got) {
		t.Fatalf("update stream implies %v, TopKSet says %v", implied, got)
	}
	for _, u := range col.ups {
		if u.Subscriber != 42 {
			t.Fatalf("update carries subscriber %d, want 42", u.Subscriber)
		}
		if u.Score <= 0 || u.Score > 1 {
			t.Fatalf("update score %v outside (0, 1]", u.Score)
		}
	}

	// Window expiry empties the subscription.
	advance(2 * time.Minute)
	sys.AdvanceTopK()
	if got := sys.TopKSet(1); len(got) != 0 {
		t.Fatalf("entries survived the window: %v", got)
	}
	if implied := col.set(1); len(implied) != 0 {
		t.Fatalf("update stream leaves residue: %v", implied)
	}
}

func TestSubscribeTopKValidation(t *testing.T) {
	sys, err := Open(Options{Region: NewRegion(0, 0, 10, 10)})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sub := Subscription{ID: 1, Query: "a", Region: NewRegion(1, 1, 2, 2)}
	if err := sys.SubscribeTopK(sub, 0, time.Minute); err == nil {
		t.Error("k=0 accepted")
	}
	if err := sys.SubscribeTopK(sub, 3, 0); err == nil {
		t.Error("zero window accepted")
	}
	if err := sys.SubscribeTopK(Subscription{ID: 2, Query: "", Region: sub.Region}, 3, time.Minute); err == nil {
		t.Error("empty expression accepted")
	}
	if err := sys.SubscribeTopK(sub, 3, time.Minute); err != nil {
		t.Errorf("valid top-k subscription rejected: %v", err)
	}
}

func TestUnsubscribeTopKStopsTracking(t *testing.T) {
	col := &collectTopK{}
	sys, err := Open(Options{
		Region: NewRegion(0, 0, 10, 10),
		OnTopK: col.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sub := Subscription{ID: 5, Query: "alert", Region: NewRegion(0, 0, 10, 10)}
	if err := sys.SubscribeTopK(sub, 3, time.Minute); err != nil {
		t.Fatal(err)
	}
	sys.Flush()
	sys.Publish(Message{ID: 1, Text: "alert one", Lat: 5, Lon: 5})
	sys.Flush()
	if got := sys.TopKSet(5); len(got) != 1 {
		t.Fatalf("TopKSet %v, want one entry", got)
	}
	if err := sys.Unsubscribe(sub); err != nil {
		t.Fatal(err)
	}
	sys.Flush()
	if got := sys.TopKSet(5); len(got) != 0 {
		t.Fatalf("TopKSet %v after unsubscribe, want empty", got)
	}
	if implied := col.set(5); len(implied) != 0 {
		t.Fatalf("update stream leaves residue after unsubscribe: %v", implied)
	}
}

// TestSubscribeTopKRanksOnlyLaterMessages states the history rule: a
// top-k subscription ranks the messages published after SubscribeTopK
// returns, never the matching ones published before it — not even when
// another top-k subscription already ranks them.
func TestSubscribeTopKRanksOnlyLaterMessages(t *testing.T) {
	sys, err := Open(Options{Region: NewRegion(0, 0, 10, 10), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	early := Subscription{ID: 6, Query: "sale", Region: NewRegion(0, 0, 10, 10)}
	if err := sys.SubscribeTopK(early, 3, time.Hour); err != nil {
		t.Fatal(err)
	}
	sys.Flush()
	for id := uint64(1); id <= 3; id++ {
		sys.Publish(Message{ID: id, Text: "sale today", Lat: 5, Lon: 5})
	}
	sys.Flush()
	if got := sys.TopKSet(6); !equalU64(got, []uint64{1, 2, 3}) {
		t.Fatalf("vacuous: the standing subscription ranks %v, want [1 2 3]", got)
	}
	sub := Subscription{ID: 7, Query: "sale", Region: NewRegion(0, 0, 10, 10)}
	if err := sys.SubscribeTopK(sub, 3, time.Hour); err != nil {
		t.Fatal(err)
	}
	sys.Flush()
	if got := sys.TopKSet(7); len(got) != 0 {
		t.Fatalf("TopKSet %v right after SubscribeTopK, want empty: earlier messages are not ranked", got)
	}
	sys.Publish(Message{ID: 4, Text: "sale now", Lat: 5, Lon: 5})
	sys.Flush()
	if got := sys.TopKSet(7); !equalU64(got, []uint64{4}) {
		t.Fatalf("TopKSet %v, want the later message alone: [4]", got)
	}
}

func equalU64(a, b []uint64) bool {
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

// TestTopKRanksByTextRelevance: with location and time the same for
// every message, text relevance alone decides a top-k. Of four messages
// published (mixed case) under an OR over three keywords, the two that
// hold more of the keywords are the top 2, though the others have the
// higher ids that win a tie.
func TestTopKRanksByTextRelevance(t *testing.T) {
	now := time.Date(2026, 4, 1, 8, 0, 0, 0, time.UTC)
	sys, err := Open(Options{
		Region:  NewRegion(-125, 24, -66, 49),
		Workers: 4,
		Now:     func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.SubscribeTopK(Subscription{
		ID:     1,
		Query:  "pizza OR pasta OR wine",
		Region: RegionAround(40.7, -73.95, 200, 200),
	}, 2, time.Minute); err != nil {
		t.Fatal(err)
	}
	sys.Flush()
	for _, m := range []Message{
		{ID: 1, Text: "PIZZA, Pasta and wine tonight"},
		{ID: 2, Text: "Pasta with a glass of WINE"},
		{ID: 3, Text: "Wine bar"},
		{ID: 4, Text: "cold pizza"},
	} {
		m.Lat, m.Lon = 40.7, -73.95
		sys.Publish(m)
	}
	sys.Flush()
	if got := sys.TopKSet(1); !equalU64(got, []uint64{1, 2}) {
		t.Errorf("TopKSet is %v, want [1 2]: the messages with three and two of the keywords", got)
	}
}
