package hybrid

import (
	"fmt"
	"math/rand"
	"testing"
)

// Extreme δ values force the algorithm to the all-space (δ=0 sends every
// node to N_t only if splitting helps; δ→1 classifies everything N_s) and
// all-text ends; both must still satisfy the routing invariant.
func TestConfigDeltaExtremes(t *testing.T) {
	s := mixedSample(t, 40, 2000, 300)
	for _, delta := range []float64{0.01, 0.5, 0.99} {
		t.Run(fmt.Sprintf("delta=%v", delta), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Delta = delta
			a, err := Builder{Config: cfg}.Build(s, 8)
			if err != nil {
				t.Fatal(err)
			}
			checkInvariant(t, a, s)
		})
	}
}

func TestConfigSigmaTight(t *testing.T) {
	s := mixedSample(t, 41, 2000, 300)
	cfg := DefaultConfig()
	cfg.Sigma = 1.05 // near-perfect balance demanded
	cfg.Theta = 128
	a, err := Builder{Config: cfg}.Build(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariant(t, a, s)
}

func TestConfigTinyTheta(t *testing.T) {
	s := mixedSample(t, 42, 1500, 200)
	cfg := DefaultConfig()
	cfg.Theta = 4 // fewer units than workers: merge must still cover all 8
	a, err := Builder{Config: cfg}.Build(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariant(t, a, s)
}

// Random mutation sequences must preserve the local consistency between
// H2 entries and object routing: an object whose term is a live H2 key is
// always routed to that key's recorded worker.
func TestMutationSequencePreservesH2Consistency(t *testing.T) {
	s := mixedSample(t, 43, 2500, 400)
	gt := buildHybrid(t, s, 8)
	for _, q := range s.Queries {
		gt.RouteQuery(q, true)
	}
	rng := rand.New(rand.NewSource(43))
	muts := 0
	for i := 0; i < 200 && muts < 50; i++ {
		cell := rng.Intn(gt.Grid().NumCells())
		ws := gt.CellWorkers(cell)
		if len(ws) == 0 {
			continue
		}
		from := ws[rng.Intn(len(ws))]
		to := (from + 1 + rng.Intn(7)) % 8
		if gt.IsTextCell(cell) {
			gt.ReassignTextShare(cell, from, to)
			muts++
		} else {
			keys := gt.H2Keys(cell, from)
			if len(keys) > 1 && rng.Intn(2) == 0 {
				gt.SplitSpaceCellByText(cell, keys[:len(keys)/2], to)
			} else {
				gt.ReassignSpaceCell(cell, to)
			}
			muts++
		}
	}
	if muts == 0 {
		t.Skip("no mutations applied")
	}
	// Consistency check via routing: objects must route to the worker
	// recorded in their cell's H2 entry for each of their live terms.
	for _, o := range s.Objects[:500] {
		cell := gt.Grid().CellOf(o.Loc)
		routed := map[int]bool{}
		for _, w := range gt.RouteObject(o) {
			routed[w] = true
		}
		for _, term := range o.Terms {
			for _, w := range gt.CellWorkers(cell) {
				for _, k := range gt.H2Keys(cell, w) {
					if k == term && !routed[w] {
						t.Fatalf("object %d term %q: H2 records worker %d but routing gave %v",
							o.ID, term, w, routed)
					}
				}
			}
		}
	}
}
