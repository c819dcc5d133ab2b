// Package migrate implements the dynamic load adjustment machinery of §V:
// the Minimum Cost Migration problem (Definition 4, NP-hard by Theorem 2)
// solved by the paper's greedy algorithm GR, and the Phase I split/merge
// planning that precedes cell selection. The paper's exact
// dynamic-programming algorithm is the reference the tests check GR
// against; §VI-D's comparison with the SI and RA baselines is recorded in
// docs/PAPER_RESULTS.md.
package migrate

import (
	"math"
	"sort"

	"ps2stream/internal/load"
)

// Cell is a migration candidate: one gridt cell (or one worker's share of
// it) with its Definition 3 load L_g and serialised size S_g.
type Cell struct {
	ID   int
	Load float64
	Size int64
}

// Selection is the result of a cell-selection algorithm.
type Selection struct {
	Cells []Cell
	Load  float64
	Size  int64
}

func summarize(cells []Cell) Selection {
	s := Selection{Cells: cells}
	for _, c := range cells {
		s.Load += c.Load
		s.Size += c.Size
	}
	return s
}

// SelectGR implements Algorithm GR: cells are scanned in ascending
// relative cost S_g/L_g; cells that keep the running load below tau are
// accepted into the growing prefix ("GS"), others become candidates
// ("GL"). Every candidate closes a feasible solution (prefix + that cell);
// the minimum-cost one seen wins.
func SelectGR(cells []Cell, tau float64) (Selection, bool) {
	if tau <= 0 {
		return Selection{}, true
	}
	order := append([]Cell(nil), cells...)
	sort.Slice(order, func(i, j int) bool {
		ri := relativeCost(order[i])
		rj := relativeCost(order[j])
		if ri != rj {
			return ri < rj
		}
		return order[i].ID < order[j].ID
	})
	var prefix []Cell
	var prefixLoad float64
	var prefixSize int64
	bestSize := int64(math.MaxInt64)
	bestPrefixLen := -1
	var bestClosing Cell
	for _, c := range order {
		if prefixLoad+c.Load < tau {
			prefix = append(prefix, c)
			prefixLoad += c.Load
			prefixSize += c.Size
			continue
		}
		// c is a GL cell: prefix + c is a feasible candidate solution.
		if cost := prefixSize + c.Size; cost < bestSize {
			bestSize = cost
			bestPrefixLen = len(prefix)
			bestClosing = c
		}
	}
	if bestPrefixLen < 0 {
		// No single closing cell ever pushed the prefix over tau.
		if prefixLoad >= tau {
			return summarize(prefix), true
		}
		return summarize(order), false
	}
	out := append(append([]Cell(nil), prefix[:bestPrefixLen]...), bestClosing)
	return summarize(out), true
}

func relativeCost(c Cell) float64 {
	if c.Load <= 0 {
		return math.Inf(1)
	}
	return float64(c.Size) / c.Load
}

// Tau computes the load amount τ to migrate from the most loaded worker so
// both ends of the transfer approach the mean: half the load gap between
// w_o and w_l.
func Tau(loads []float64) float64 {
	if len(loads) < 2 {
		return 0
	}
	lo, hi := load.ArgMinMax(loads)
	return (loads[hi] - loads[lo]) / 2
}
