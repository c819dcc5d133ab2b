// Package window implements the sliding-window top-k subscription
// machinery of PS2Stream's ranked-delivery extension. Where the boolean
// pub/sub core (Chen et al., ICDE 2017) forwards every matching object to
// a subscription, a top-k subscription asks for the k most relevant
// objects published within a sliding time window — the subscription type
// formalised by "Top-k Spatial-keyword Publish/Subscribe Over Sliding
// Window" (Wang et al., arXiv:1611.03204).
//
// The package provides two layers, both worker-local:
//
//   - Skyband: one subscription's k-skyband, the entries fewer than k
//     newer-or-equal, better-ranked entries dominate, best first. Ranks
//     are time-independent (see DecayScorer), so a dominated entry can
//     never re-enter the top-k and is dropped at once, and the entry that
//     replaces an expired top-k member is already held: expiry needs no
//     scan of older publications.
//   - Store: one per worker; it owns a Skyband per registered top-k
//     subscription and hands a subscription's entries, whole or located
//     in one grid cell, to the §V migration machinery, which moves window
//     state together with the migrated queries.
//
// A subscription ranks only the objects offered to it after it is
// registered: the stream's order decides, as it does for a boolean
// subscription's matches.
//
// A Store is owned by a single worker goroutine (guarded by the worker's
// mutex in internal/core) and is not safe for concurrent use. Membership
// changes are reported as Deltas; the global reconciler in internal/core
// merges the per-worker deltas into each subscription's global top-k set.
package window

import (
	"time"

	"ps2stream/internal/geo"
)

// Entry is one published object retained in the sliding window.
type Entry struct {
	// MsgID identifies the published object.
	MsgID uint64
	// Terms is the object's tokenised text.
	Terms []string
	// Loc is the object's location.
	Loc geo.Point
	// At is the publish timestamp; the entry leaves every window of span
	// W at At+W.
	At time.Time
}

// Live reports whether the entry is still inside a window whose oldest
// admissible instant is cutoff (an entry exactly window-old is expired).
func (e Entry) Live(cutoff time.Time) bool { return e.At.After(cutoff) }
