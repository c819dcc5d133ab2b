package ps2stream_test

import (
	"bytes"
	"fmt"
	"log"

	"ps2stream"
)

// Open a system over the continental USA, register one subscription, and
// publish messages; only the message satisfying both the keyword
// expression and the region is delivered.
func Example() {
	delivered := make(chan ps2stream.Match, 1)
	sys, err := ps2stream.Open(ps2stream.Options{
		Region:  ps2stream.NewRegion(-125, 24, -66, 49),
		Workers: 4,
		OnMatch: func(m ps2stream.Match) { delivered <- m },
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	sys.Subscribe(ps2stream.Subscription{
		ID:     7,
		Query:  "coffee AND brooklyn",
		Region: ps2stream.RegionAround(40.70, -73.95, 10, 10),
	})
	// Once Subscribe returns, every later Publish is matched against it.
	sys.Publish(ps2stream.Message{ID: 1, Text: "best coffee in brooklyn", Lat: 40.71, Lon: -73.95})
	sys.Publish(ps2stream.Message{ID: 2, Text: "coffee in seattle", Lat: 47.61, Lon: -122.33})

	m := <-delivered
	fmt.Printf("message %d matched subscription %d\n", m.MessageID, m.SubscriptionID)
	// Output: message 1 matched subscription 7
}

// Snapshot the live subscription population and prime a replacement
// system from it — the replacement may use a different worker count or
// distribution strategy.
func ExampleSystem_Checkpoint() {
	region := ps2stream.NewRegion(-125, 24, -66, 49)
	sys, err := ps2stream.Open(ps2stream.Options{Region: region, Workers: 8})
	if err != nil {
		log.Fatal(err)
	}
	for i := uint64(1); i <= 5; i++ {
		sys.Subscribe(ps2stream.Subscription{
			ID:     i,
			Query:  "storm OR flood",
			Region: ps2stream.RegionAround(30+float64(i), -90, 50, 50),
		})
	}
	sys.Flush()

	var snap bytes.Buffer
	if err := sys.Checkpoint(&snap); err != nil {
		log.Fatal(err)
	}
	sys.Close()

	replacement, err := ps2stream.Open(ps2stream.Options{Region: region, Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer replacement.Close()
	n, err := replacement.Restore(&snap)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored %d subscriptions\n", n)
	// Output: restored 5 subscriptions
}

// Strategies are plain option values; unknown names fail fast at Open.
func ExampleOptions() {
	_, err := ps2stream.Open(ps2stream.Options{
		Region:   ps2stream.NewRegion(-125, 24, -66, 49),
		Strategy: "quadtree", // not one of the three strategies
	})
	fmt.Println(err)
	// Output: ps2stream: unknown strategy "quadtree"
}
