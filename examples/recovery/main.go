// Recovery: checkpoint the live subscription population, "crash" the
// system, and re-prime a replacement from the snapshot — including a
// different worker count, since a snapshot is just the deduplicated query
// set and restoring routes every query afresh.
//
//	go run ./examples/recovery
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"ps2stream"
)

func main() {
	usa := ps2stream.NewRegion(-125, 24, -66, 49)

	// ---- Generation 1: a deployment accumulates subscriptions. ----
	gen1, err := ps2stream.Open(ps2stream.Options{Region: usa, Workers: 8})
	if err != nil {
		log.Fatal(err)
	}
	cities := []struct {
		name     string
		lat, lon float64
	}{
		{"nyc", 40.71, -74.00},
		{"la", 34.05, -118.24},
		{"chicago", 41.88, -87.63},
		{"houston", 29.76, -95.37},
		{"miami", 25.76, -80.19},
	}
	topics := []string{"traffic", "weather", "concert", "protest AND downtown", "food OR festival"}
	id := uint64(0)
	for _, c := range cities {
		for _, topic := range topics {
			id++
			if err := gen1.Subscribe(ps2stream.Subscription{
				ID:         id,
				Subscriber: id,
				Query:      topic,
				Region:     ps2stream.RegionAround(c.lat, c.lon, 40, 40),
			}); err != nil {
				log.Fatal(err)
			}
		}
	}
	// Some subscribers leave again.
	gen1.Unsubscribe(ps2stream.Subscription{
		ID: 3, Query: topics[2],
		Region: ps2stream.RegionAround(cities[0].lat, cities[0].lon, 40, 40),
	})
	gen1.Flush()

	// Checkpoint to disk, as a production deployment would on a schedule.
	path := filepath.Join(os.TempDir(), "ps2stream.snap")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := gen1.Checkpoint(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(path)
	fmt.Printf("checkpointed %d subscriptions (%d bytes) to %s\n",
		id-1, info.Size(), path)

	// The process "crashes": all in-memory worker state is gone.
	if err := gen1.Close(); err != nil {
		log.Fatal(err)
	}

	// ---- Generation 2: a replacement restores from the snapshot. ----
	var mu sync.Mutex
	var delivered []ps2stream.Match
	gen2, err := ps2stream.Open(ps2stream.Options{
		Region:  usa,
		Workers: 4, // smaller replacement cluster
		OnMatch: func(m ps2stream.Match) {
			mu.Lock()
			delivered = append(delivered, m)
			mu.Unlock()
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	n, err := gen2.Restore(bytes.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	gen2.Flush()
	fmt.Printf("restored %d subscriptions into a %d-worker replacement\n", n, 4)

	// Traffic resumes; restored subscriptions fire immediately.
	posts := []ps2stream.Message{
		{ID: 100, Text: "weather alert: thunderstorms tonight", Lat: 29.76, Lon: -95.37},
		{ID: 101, Text: "surprise concert announced", Lat: 40.71, Lon: -74.00}, // unsubscribed: silent
		{ID: 102, Text: "food truck festival this weekend", Lat: 25.76, Lon: -80.19},
		{ID: 103, Text: "traffic jam on the 405", Lat: 34.05, Lon: -118.24},
	}
	for _, p := range posts {
		gen2.Publish(p)
	}
	gen2.Flush()

	mu.Lock()
	for _, m := range delivered {
		fmt.Printf("subscriber %d: message %d matched subscription %d\n",
			m.Subscriber, m.MessageID, m.SubscriptionID)
	}
	mu.Unlock()
	if err := gen2.Close(); err != nil {
		log.Fatal(err)
	}
	os.Remove(path)
}
