// Event watch: the paper's first motivating use case — "individual users
// may be interested in events in particular regions, and are keen to
// receive up-to-date messages and photos that originate in the interested
// regions and are relevant to the events."
//
// Subscribers register OR-expressions over event vocabularies scoped to
// city regions; the example replays a generated spatio-textual stream with
// injected incident bursts and prints a live-style feed of deliveries.
//
//	go run ./examples/eventwatch
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"
	"sync"

	"ps2stream"
	"ps2stream/internal/workload"
)

func main() {
	type watch struct {
		city string
		sub  ps2stream.Subscription
	}
	watches := []watch{
		{"New York", ps2stream.Subscription{ID: 1, Subscriber: 11,
			Query: "blackout OR outage", Region: ps2stream.RegionAround(40.71, -74.00, 60, 60)}},
		{"Miami", ps2stream.Subscription{ID: 2, Subscriber: 12,
			Query: "hurricane AND landfall", Region: ps2stream.RegionAround(25.76, -80.19, 200, 200)}},
		{"Seattle", ps2stream.Subscription{ID: 3, Subscriber: 13,
			Query: "protest OR march OR rally", Region: ps2stream.RegionAround(47.61, -122.33, 40, 40)}},
	}

	type delivery struct {
		m    ps2stream.Match
		text string
	}
	var mu sync.Mutex
	texts := map[uint64]string{}
	var feed []delivery
	sys, err := ps2stream.Open(ps2stream.Options{
		Region:  ps2stream.NewRegion(-125, 24, -66, 49),
		Workers: 4,
		OnMatch: func(m ps2stream.Match) {
			mu.Lock()
			feed = append(feed, delivery{m: m, text: texts[m.MessageID]})
			mu.Unlock()
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range watches {
		if err := sys.Subscribe(w.sub); err != nil {
			log.Fatal(err)
		}
	}

	publish := func(m ps2stream.Message) {
		mu.Lock()
		texts[m.ID] = m.Text
		mu.Unlock()
		sys.Publish(m)
	}

	// Interleave background chatter with incident bursts.
	gen := workload.NewGenerator(workload.TweetsUS(), 7)
	rng := rand.New(rand.NewSource(7))
	nextID := uint64(100)
	incidents := []ps2stream.Message{
		{Text: "citywide blackout reported downtown", Lat: 40.72, Lon: -74.00},
		{Text: "power outage on the east side", Lat: 40.73, Lon: -73.98},
		{Text: "hurricane makes landfall south of the city", Lat: 25.60, Lon: -80.30},
		{Text: "rally gathering by the waterfront", Lat: 47.60, Lon: -122.33},
		{Text: "march heading up fifth avenue", Lat: 47.62, Lon: -122.32},
	}
	for i := 0; i < 5000; i++ {
		o := gen.Object()
		nextID++
		publish(ps2stream.Message{ID: nextID, Text: strings.Join(o.Terms, " "), Lat: o.Loc.Y, Lon: o.Loc.X})
		// Occasionally inject an incident report.
		if i%1000 == 500 {
			inc := incidents[rng.Intn(len(incidents))]
			nextID++
			inc.ID = nextID
			publish(inc)
		}
	}
	// Flush the remaining incident types so each watch fires.
	for _, inc := range incidents {
		nextID++
		inc.ID = nextID
		publish(inc)
	}
	sys.Flush()

	mu.Lock()
	fmt.Printf("delivered %d event notifications:\n", len(feed))
	for _, d := range feed {
		var city string
		for _, w := range watches {
			if w.sub.ID == d.m.SubscriptionID {
				city = w.city
			}
		}
		fmt.Printf("  [%s watch] %q\n", city, d.text)
	}
	mu.Unlock()

	st := sys.Stats()
	fmt.Printf("\n%d messages processed, %d matched, %d discarded before reaching a worker\n",
		st.Processed, st.Matches, st.Discarded)
	if err := sys.Close(); err != nil {
		log.Fatal(err)
	}
}
