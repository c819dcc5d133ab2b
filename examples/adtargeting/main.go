// Ad targeting: the paper's second motivating use case — "business users,
// e.g., Internet advertisers, expect to identify potential customers with
// certain interest at a particular location, based on their spatio-textual
// messages, e.g., restaurant diners in a target zone."
//
// Each campaign is an STS subscription: product keywords + a geofence
// around the advertiser's venues. The example streams synthetic geo-tagged
// posts (the TWEETS-US generator) plus injected purchase-intent posts, and
// reports per-campaign impression counts.
//
//	go run ./examples/adtargeting
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"
	"sync"

	"ps2stream"
	"ps2stream/internal/workload"
)

type campaign struct {
	sub  ps2stream.Subscription
	desc string
}

func main() {
	campaigns := []campaign{
		{desc: "NYC ramen bar: 'ramen AND dinner' within 15km of Manhattan",
			sub: ps2stream.Subscription{ID: 1, Subscriber: 501,
				Query: "ramen AND dinner", Region: ps2stream.RegionAround(40.75, -73.99, 15, 15)}},
		{desc: "SF coffee chain: 'coffee OR espresso' within 25km of SF",
			sub: ps2stream.Subscription{ID: 2, Subscriber: 502,
				Query: "coffee OR espresso", Region: ps2stream.RegionAround(37.77, -122.42, 25, 25)}},
		{desc: "Chicago pizza: 'pizza AND deepdish' within 20km of the Loop",
			sub: ps2stream.Subscription{ID: 3, Subscriber: 503,
				Query: "pizza AND deepdish", Region: ps2stream.RegionAround(41.88, -87.63, 20, 20)}},
	}

	var mu sync.Mutex
	impressions := map[uint64]int{}
	sys, err := ps2stream.Open(ps2stream.Options{
		Region:  ps2stream.NewRegion(-125, 24, -66, 49),
		Workers: 4,
		OnMatch: func(m ps2stream.Match) {
			mu.Lock()
			impressions[m.SubscriptionID]++
			mu.Unlock()
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range campaigns {
		if err := sys.Subscribe(c.sub); err != nil {
			log.Fatal(err)
		}
	}

	// Background chatter: synthetic tweets across the US (almost none
	// match the campaigns — they are discarded cheaply at the
	// dispatcher via the H2 check).
	gen := workload.NewGenerator(workload.TweetsUS(), 42)
	nextID := uint64(1000)
	for i := 0; i < 20000; i++ {
		o := gen.Object()
		nextID++
		sys.Publish(ps2stream.Message{
			ID: nextID, Text: strings.Join(o.Terms, " "), Lat: o.Loc.Y, Lon: o.Loc.X,
		})
	}
	// Purchase-intent posts inside and outside the geofences.
	intent := []ps2stream.Message{
		{ID: 1, Text: "amazing ramen dinner tonight", Lat: 40.76, Lon: -73.98}, // hits 1
		{ID: 2, Text: "ramen dinner in queens", Lat: 40.73, Lon: -73.79},       // near edge
		{ID: 3, Text: "need espresso right now", Lat: 37.78, Lon: -122.41},     // hits 2
		{ID: 4, Text: "coffee break by the bay", Lat: 37.80, Lon: -122.27},     // oakland, inside 25km
		{ID: 5, Text: "deepdish pizza with the team", Lat: 41.89, Lon: -87.64}, // hits 3
		{ID: 6, Text: "deepdish pizza cravings", Lat: 34.05, Lon: -118.24},     // LA: outside
		{ID: 7, Text: "dinner was great", Lat: 40.75, Lon: -73.99},             // no keywords
	}
	for _, m := range intent {
		sys.Publish(m)
	}
	sys.Flush()

	fmt.Println("campaign impressions:")
	ids := make([]int, 0, len(campaigns))
	for _, c := range campaigns {
		ids = append(ids, int(c.sub.ID))
	}
	sort.Ints(ids)
	mu.Lock()
	for _, id := range ids {
		var desc string
		for _, c := range campaigns {
			if c.sub.ID == uint64(id) {
				desc = c.desc
			}
		}
		fmt.Printf("  campaign %d: %3d impressions  (%s)\n", id, impressions[uint64(id)], desc)
	}
	mu.Unlock()

	st := sys.Stats()
	fmt.Printf("\nstream: %d posts processed, %d discarded without any campaign keyword (%.1f%%)\n",
		st.Processed, st.Discarded, 100*float64(st.Discarded)/float64(st.Processed))
	fmt.Printf("mean latency %v, p99 %v\n", st.MeanLatency, st.P99Latency)
	if err := sys.Close(); err != nil {
		log.Fatal(err)
	}
}
