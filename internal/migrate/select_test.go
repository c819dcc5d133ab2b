package migrate

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// totalLoad sums the loads of all cells.
func totalLoad(cells []Cell) float64 {
	var t float64
	for _, c := range cells {
		t += c.Load
	}
	return t
}

// SelectDP solves Minimum Cost Migration exactly (up to size
// quantisation): find the cell set minimising total size subject to total
// load ≥ tau. It implements the paper's knapsack-style DP
//
//	A(i,j) = max{A(i-1,j), A(i-1,j-S_gi) + L_gi}
//
// over sizes quantised to sizeUnit bytes (pass 0 for the 1 KiB default).
// Its O(n·P) time and memory is exactly the weakness Figures 12–13
// demonstrate, so the system runs SelectGR and the tests keep this as the
// exact reference GR is checked against. ok is false when even migrating
// everything cannot reach tau.
func SelectDP(cells []Cell, tau float64, sizeUnit int64) (Selection, bool) {
	if tau <= 0 {
		return Selection{}, true
	}
	if totalLoad(cells) < tau {
		return summarize(append([]Cell(nil), cells...)), false
	}
	if sizeUnit <= 0 {
		sizeUnit = 1024
	}
	n := len(cells)
	sizes := make([]int, n)
	// P: upper bound of the minimum migration cost = total quantised size.
	P := 0
	for i, c := range cells {
		s := int((c.Size + sizeUnit - 1) / sizeUnit)
		if s < 1 {
			s = 1
		}
		sizes[i] = s
		P += s
	}
	// A[i][j]: 2D table for reconstruction, per the paper.
	A := make([][]float64, n+1)
	for i := range A {
		A[i] = make([]float64, P+1)
	}
	for i := 1; i <= n; i++ {
		li, si := cells[i-1].Load, sizes[i-1]
		for j := 0; j <= P; j++ {
			A[i][j] = A[i-1][j]
			if j >= si {
				if v := A[i-1][j-si] + li; v > A[i][j] {
					A[i][j] = v
				}
			}
		}
	}
	// Smallest j whose best load reaches tau.
	jStar := -1
	for j := 0; j <= P; j++ {
		if A[n][j] >= tau {
			jStar = j
			break
		}
	}
	if jStar < 0 {
		return summarize(append([]Cell(nil), cells...)), false
	}
	var picked []Cell
	j := jStar
	for i := n; i >= 1; i-- {
		if A[i][j] != A[i-1][j] {
			picked = append(picked, cells[i-1])
			j -= sizes[i-1]
		}
	}
	return summarize(picked), true
}

func cellsFixture() []Cell {
	return []Cell{
		{ID: 0, Load: 10, Size: 100},
		{ID: 1, Load: 20, Size: 150},
		{ID: 2, Load: 5, Size: 500},
		{ID: 3, Load: 40, Size: 300},
		{ID: 4, Load: 15, Size: 50},
		{ID: 5, Load: 8, Size: 900},
	}
}

func TestSelectDPOptimalSmall(t *testing.T) {
	cells := cellsFixture()
	tau := 50.0
	got, ok := SelectDP(cells, tau, 1) // 1-byte units: exact
	if !ok {
		t.Fatal("DP infeasible")
	}
	if got.Load < tau {
		t.Fatalf("DP load %v < tau %v", got.Load, tau)
	}
	// Exhaustive oracle.
	best := int64(math.MaxInt64)
	for mask := 0; mask < 1<<len(cells); mask++ {
		var l float64
		var s int64
		for i, c := range cells {
			if mask&(1<<i) != 0 {
				l += c.Load
				s += c.Size
			}
		}
		if l >= tau && s < best {
			best = s
		}
	}
	if got.Size != best {
		t.Errorf("DP size %d, optimal %d", got.Size, best)
	}
}

// Property: DP with 1-byte quantisation matches the exhaustive optimum on
// random small instances.
func TestSelectDPOptimalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		cells := make([]Cell, n)
		var total float64
		for i := range cells {
			cells[i] = Cell{
				ID:   i,
				Load: float64(1 + rng.Intn(20)),
				Size: int64(1 + rng.Intn(30)),
			}
			total += cells[i].Load
		}
		tau := total * (0.2 + 0.6*rng.Float64())
		got, ok := SelectDP(cells, tau, 1)
		if !ok {
			return false
		}
		if got.Load < tau {
			return false
		}
		best := int64(math.MaxInt64)
		for mask := 0; mask < 1<<n; mask++ {
			var l float64
			var s int64
			for i, c := range cells {
				if mask&(1<<i) != 0 {
					l += c.Load
					s += c.Size
				}
			}
			if l >= tau && s < best {
				best = s
			}
		}
		return got.Size == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSelectGRFeasible(t *testing.T) {
	cells := cellsFixture()
	for _, tau := range []float64{1, 10, 50, 90} {
		sel, ok := SelectGR(cells, tau)
		if !ok {
			t.Fatalf("GR infeasible at tau=%v", tau)
		}
		if sel.Load < tau {
			t.Errorf("GR load %v < tau %v", sel.Load, tau)
		}
	}
}

func TestSelectGRPrefersLowRelativeCost(t *testing.T) {
	cells := []Cell{
		{ID: 0, Load: 10, Size: 1000}, // relative cost 100
		{ID: 1, Load: 10, Size: 10},   // relative cost 1
		{ID: 2, Load: 10, Size: 20},   // relative cost 2
	}
	sel, ok := SelectGR(cells, 15)
	if !ok {
		t.Fatal("infeasible")
	}
	// Best: cells 1+2 (size 30), never cell 0.
	for _, c := range sel.Cells {
		if c.ID == 0 {
			t.Errorf("GR picked the expensive cell: %+v", sel.Cells)
		}
	}
	if sel.Size != 30 {
		t.Errorf("GR size = %d, want 30", sel.Size)
	}
}

func TestSelectGRSingleClosingCell(t *testing.T) {
	// A single large cell is cheaper than many small ones.
	cells := []Cell{
		{ID: 0, Load: 100, Size: 50},
		{ID: 1, Load: 1, Size: 10},
		{ID: 2, Load: 1, Size: 10},
	}
	sel, ok := SelectGR(cells, 90)
	if !ok {
		t.Fatal("infeasible")
	}
	if len(sel.Cells) != 1 || sel.Cells[0].ID != 0 {
		t.Errorf("GR = %+v, want just cell 0", sel.Cells)
	}
}

// selectors are the exact reference and the algorithm the system runs.
var selectors = map[string]func(cells []Cell, tau float64) (Selection, bool){
	"DP": func(cells []Cell, tau float64) (Selection, bool) { return SelectDP(cells, tau, 0) },
	"GR": SelectGR,
}

func TestSelectInfeasible(t *testing.T) {
	cells := []Cell{{ID: 0, Load: 5, Size: 10}}
	for name, sel := range selectors {
		got, ok := sel(cells, 100)
		if ok {
			t.Errorf("%s: reported feasible for impossible tau", name)
		}
		if len(got.Cells) == 0 {
			t.Errorf("%s: infeasible selection should still return best effort", name)
		}
	}
}

func TestSelectZeroTau(t *testing.T) {
	for name, sel := range selectors {
		got, ok := sel(cellsFixture(), 0)
		if !ok || len(got.Cells) != 0 {
			t.Errorf("%s: tau=0 should select nothing", name)
		}
	}
}

// Property: DP and GR return feasible selections whenever total load
// suffices, and GR's cost never beats DP's optimum.
func TestSelectionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		cells := make([]Cell, n)
		var total float64
		for i := range cells {
			cells[i] = Cell{ID: i, Load: float64(1 + rng.Intn(30)), Size: int64(1 + rng.Intn(50))}
			total += cells[i].Load
		}
		tau := total * 0.4
		dp, ok1 := SelectDP(cells, tau, 1)
		gr, ok2 := SelectGR(cells, tau)
		if !ok1 || !ok2 {
			return false
		}
		if dp.Load < tau || gr.Load < tau {
			return false
		}
		// DP is optimal: GR cannot beat it.
		return gr.Size >= dp.Size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTau(t *testing.T) {
	if got := Tau([]float64{10, 50}); got != 20 {
		t.Errorf("Tau = %v, want 20", got)
	}
	if got := Tau([]float64{30}); got != 0 {
		t.Errorf("Tau single = %v, want 0", got)
	}
	if got := Tau(nil); got != 0 {
		t.Errorf("Tau nil = %v, want 0", got)
	}
}
