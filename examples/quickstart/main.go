// Quickstart: subscribe to spatio-textual events and publish messages.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sync"

	"ps2stream"
)

func main() {
	// Collect matches; OnMatch is called concurrently from worker tasks.
	var mu sync.Mutex
	var delivered []ps2stream.Match
	sys, err := ps2stream.Open(ps2stream.Options{
		// Monitor the continental USA.
		Region:  ps2stream.NewRegion(-125, 24, -66, 49),
		Workers: 4,
		OnMatch: func(m ps2stream.Match) {
			mu.Lock()
			delivered = append(delivered, m)
			mu.Unlock()
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// A subscriber wants coffee news around Brooklyn (10 km × 10 km).
	coffee := ps2stream.Subscription{
		ID:         1,
		Subscriber: 1001,
		Query:      "coffee AND brooklyn",
		Region:     ps2stream.RegionAround(40.70, -73.95, 10, 10),
	}
	// Another watches for earthquakes OR wildfires near Los Angeles.
	hazards := ps2stream.Subscription{
		ID:         2,
		Subscriber: 1002,
		Query:      "earthquake OR wildfire",
		Region:     ps2stream.RegionAround(34.05, -118.24, 120, 120),
	}
	for _, sub := range []ps2stream.Subscription{coffee, hazards} {
		if err := sys.Subscribe(sub); err != nil {
			log.Fatal(err)
		}
	}
	// Once Subscribe returns, every later Publish is matched against the
	// subscription; matches arrive asynchronously through OnMatch.

	// The publisher side: a stream of geo-tagged posts.
	posts := []ps2stream.Message{
		{ID: 1, Text: "new coffee roastery opening in brooklyn heights", Lat: 40.699, Lon: -73.993},
		{ID: 2, Text: "earthquake tremor felt downtown", Lat: 34.05, Lon: -118.25},
		{ID: 3, Text: "best coffee in seattle", Lat: 47.61, Lon: -122.33}, // wrong place
		{ID: 4, Text: "brooklyn pizza slice", Lat: 40.70, Lon: -73.95},    // wrong topic
		{ID: 5, Text: "wildfire smoke over the valley", Lat: 34.20, Lon: -118.40},
	}
	for _, p := range posts {
		sys.Publish(p)
	}
	sys.Flush()

	mu.Lock()
	for _, m := range delivered {
		fmt.Printf("subscriber %d: message %d matched subscription %d\n",
			m.Subscriber, m.MessageID, m.SubscriptionID)
	}
	mu.Unlock()

	st := sys.Stats()
	fmt.Printf("\nprocessed=%d matches=%d discarded=%d mean latency=%v\n",
		st.Processed, st.Matches, st.Discarded, st.MeanLatency)
	if err := sys.Close(); err != nil {
		log.Fatal(err)
	}
}
