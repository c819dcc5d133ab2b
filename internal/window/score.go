package window

import (
	"math"

	"ps2stream/internal/geo"
	"ps2stream/internal/model"
)

// Score is a subscription-relative relevance for a window entry.
type Score struct {
	// Rank orders entries within one subscription's window: higher is
	// better. Rank folds recency decay in log-space (see DecayScorer), so
	// the relative order of two fixed entries never changes as time
	// advances — a heap keyed on Rank stays valid without re-scoring.
	Rank float64
	// Rel is the undecayed relevance (text × proximity, in (0, 1]) that
	// is reported to subscribers.
	Rel float64
}

// Better reports whether a ranks strictly above b in a top-k. Ties on Rank
// break towards the higher message id (the newer message), making the
// global order total and deterministic.
func (a Score) Better(b Score, aID, bID uint64) bool {
	if a.Rank != b.Rank {
		return a.Rank > b.Rank
	}
	return aID > bID
}

// DecayScorer ranks window entries for top-k subscriptions: text
// relevance (fraction of the subscription's distinct keywords present) ×
// spatial proximity (inverse normalised distance to the region centre) ×
// exponential recency decay with half-life HalfLifeFraction·q.Window.
//
// With one decay rate per subscription, decay multiplies every entry's
// score by the same factor as time advances, so order is preserved; the
// Rank is therefore stored as log(rel) + λ·t, a time-independent key.
type DecayScorer struct {
	// HalfLifeFraction sets the decay half-life as a fraction of the
	// subscription's window (<= 0 uses DefaultHalfLifeFraction).
	HalfLifeFraction float64
}

// DefaultHalfLifeFraction halves an entry's effective score every quarter
// window: an entry must be markedly more relevant than a fresh one to hold
// a top-k slot for its whole lifetime.
const DefaultHalfLifeFraction = 0.25

// Score scores one entry. It is the reference implementation; the Store
// uses the compiled form on the hot path.
func (d DecayScorer) Score(q *model.Query, e Entry) Score {
	return d.Compile(q)(e)
}

// Compile precomputes the subscription's distinct terms, region
// geometry, and decay rate, so per-entry scoring is allocation-free.
// Compile(q)(e) equals Score(q, e) exactly. Ranks must be deterministic
// functions of (q, e): workers and the migration machinery re-score
// entries independently and their ranks must agree.
func (d DecayScorer) Compile(q *model.Query) func(Entry) Score {
	terms := q.Expr.Terms()
	center := q.Region.Center()
	halfDiagKm := distKm(center, q.Region.Max)
	f := d.HalfLifeFraction
	if f <= 0 {
		f = DefaultHalfLifeFraction
	}
	halfLife := q.Window.Seconds() * f
	if halfLife <= 0 {
		halfLife = 1
	}
	lambda := math.Ln2 / halfLife
	return func(e Entry) Score {
		rel := textRelevance(terms, e) * proximity(center, halfDiagKm, e)
		if rel <= 0 {
			rel = 1e-12 // matched entries always keep a positive score
		}
		t := float64(e.At.UnixNano()) / float64(1e9)
		return Score{Rank: math.Log(rel) + lambda*t, Rel: rel}
	}
}

// textRelevance is the fraction of the subscription's distinct keywords
// present in the entry (1 for single-keyword subscriptions).
func textRelevance(terms []string, e Entry) float64 {
	if len(terms) == 0 {
		return 1
	}
	hit := 0
	for _, t := range terms {
		for _, et := range e.Terms {
			if t == et {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(len(terms))
}

// proximity maps the entry's distance from the region centre to (0, 1]:
// 1 at the centre, 1/2 at one half-diagonal away.
func proximity(center geo.Point, halfDiagKm float64, e Entry) float64 {
	if halfDiagKm <= 0 {
		return 1
	}
	return 1 / (1 + distKm(center, e.Loc)/halfDiagKm)
}

// distKm is the equirectangular distance in kilometres (adequate for the
// 1–100 km region scales of the workload, matching geo's conventions).
func distKm(a, b geo.Point) float64 {
	dy := (b.Y - a.Y) * geo.KmPerDegreeLat
	dx := (b.X - a.X) * geo.KmPerDegreeLat * math.Cos(a.Y*math.Pi/180)
	return math.Hypot(dx, dy)
}
