package hybrid

import (
	"fmt"
	"math/rand"
	"testing"

	"ps2stream/internal/geo"
	"ps2stream/internal/load"
	"ps2stream/internal/model"
	"ps2stream/internal/partition"
)

var testBounds = geo.NewRect(0, 0, 100, 100)

// mixedSample reproduces the Figure 2 scenario: the left half of the space
// behaves like region r1 (large clustered query ranges, rare keywords —
// text-partition friendly) and the right half like r2 (small well-spread
// queries on frequent keywords — space-partition friendly).
func mixedSample(t testing.TB, seed int64, nObj, nQry int) *partition.Sample {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	frequent := make([]string, 40)
	for i := range frequent {
		frequent[i] = fmt.Sprintf("hot%02d", i)
	}
	rare := make([]string, 400)
	for i := range rare {
		rare[i] = fmt.Sprintf("rare%03d", i)
	}
	pickFrequent := func() string { return frequent[rng.Intn(len(frequent))] }
	pickRare := func() string { return rare[rng.Intn(len(rare))] }

	var objects []*model.Object
	for i := 0; i < nObj; i++ {
		left := rng.Intn(2) == 0
		var x float64
		if left {
			x = rng.Float64() * 50
		} else {
			x = 50 + rng.Float64()*50
		}
		y := rng.Float64() * 100
		terms := map[string]struct{}{}
		// Both halves carry frequent terms; the left also carries rare
		// topical terms that its queries subscribe to.
		for len(terms) < 3 {
			terms[pickFrequent()] = struct{}{}
		}
		if left {
			terms[pickRare()] = struct{}{}
		}
		var ts []string
		for s := range terms {
			ts = append(ts, s)
		}
		objects = append(objects, &model.Object{ID: uint64(i), Terms: ts, Loc: geo.Point{X: x, Y: y}})
	}
	var queries []*model.Query
	for i := 0; i < nQry; i++ {
		left := rng.Intn(2) == 0
		var q *model.Query
		if left {
			// Large clustered ranges, rare keywords.
			cx := 10 + rng.Float64()*30
			cy := 30 + rng.Float64()*40
			half := 10 + rng.Float64()*15
			q = &model.Query{
				ID:     uint64(i + 1),
				Expr:   model.And(pickRare()),
				Region: geo.NewRect(cx-half, cy-half, cx+half, cy+half).Clip(testBounds),
			}
		} else {
			// Small spread ranges, frequent keywords.
			cx := 50 + rng.Float64()*50
			cy := rng.Float64() * 100
			half := 0.5 + rng.Float64()*2
			q = &model.Query{
				ID:     uint64(i + 1),
				Expr:   model.And(pickFrequent()),
				Region: geo.NewRect(cx-half, cy-half, cx+half, cy+half).Clip(testBounds),
			}
		}
		queries = append(queries, q)
	}
	return partition.NewSample(objects, queries, testBounds, load.DefaultCosts)
}

func buildHybrid(t testing.TB, s *partition.Sample, m int) *GridT {
	t.Helper()
	a, err := Builder{}.Build(s, m)
	if err != nil {
		t.Fatal(err)
	}
	return a.(*GridT)
}

func TestBuildBasics(t *testing.T) {
	s := mixedSample(t, 1, 2000, 300)
	gt := buildHybrid(t, s, 8)
	if gt.NumWorkers() != 8 {
		t.Errorf("NumWorkers = %d", gt.NumWorkers())
	}
	if gt.Name() != "hybrid" {
		t.Errorf("Name = %q", gt.Name())
	}
	if gt.Footprint() <= 0 {
		t.Error("Footprint <= 0")
	}
	if gt.Grid().NumCells() != 64*64 {
		t.Errorf("default granularity = %d cells", gt.Grid().NumCells())
	}
}

func TestBuildInvalidWorkers(t *testing.T) {
	s := mixedSample(t, 2, 100, 20)
	if _, err := (Builder{}).Build(s, 0); err == nil {
		t.Error("Build(m=0) did not error")
	}
}

// The core correctness property: every matching (object, query) pair
// shares a worker between object route and query insertion route.
func checkInvariant(t *testing.T, a partition.Assignment, s *partition.Sample) {
	t.Helper()
	qws := make(map[uint64][]int)
	for _, q := range s.Queries {
		ws := a.RouteQuery(q, true)
		if len(ws) == 0 {
			t.Fatalf("query %d routed nowhere", q.ID)
		}
		qws[q.ID] = ws
	}
	pairs, missed := 0, 0
	for _, o := range s.Objects {
		ows := a.RouteObject(o)
		oset := map[int]bool{}
		for _, w := range ows {
			oset[w] = true
		}
		for _, q := range s.Queries {
			if !q.Matches(o) {
				continue
			}
			pairs++
			ok := false
			for _, w := range qws[q.ID] {
				if oset[w] {
					ok = true
					break
				}
			}
			if !ok {
				missed++
				if missed <= 3 {
					t.Errorf("pair (obj %d @%v, qry %d) unmatched: obj->%v qry->%v",
						o.ID, o.Loc, q.ID, ows, qws[q.ID])
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("vacuous: no matching pairs in sample")
	}
	if missed > 0 {
		t.Fatalf("%d/%d pairs missed", missed, pairs)
	}
}

func TestRoutingInvariant(t *testing.T) {
	s := mixedSample(t, 3, 3000, 500)
	for _, m := range []int{1, 2, 8, 16} {
		t.Run(fmt.Sprintf("m%d", m), func(t *testing.T) {
			checkInvariant(t, buildHybrid(t, s, m), s)
		})
	}
}

// Routing must also hold for queries/objects NOT in the build sample
// (fresh stream content).
func TestRoutingInvariantFreshData(t *testing.T) {
	s := mixedSample(t, 4, 2000, 300)
	gt := buildHybrid(t, s, 8)
	fresh := mixedSample(t, 5, 500, 100)
	checkInvariant(t, gt, fresh)
}

// Hybrid should impose less total routed work than pure space or pure
// text partitioning on the mixed workload — the Figure 7(c) claim.
func TestHybridReducesTotalWorkload(t *testing.T) {
	s := mixedSample(t, 6, 4000, 800)
	totalRoutes := func(a partition.Assignment) int {
		n := 0
		for _, q := range s.Queries {
			n += len(a.RouteQuery(q, true))
		}
		for _, o := range s.Objects {
			n += len(a.RouteObject(o))
		}
		return n
	}
	hybridN := totalRoutes(buildHybrid(t, s, 8))
	kd, err := partition.KDTreeBuilder{}.Build(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	kdN := totalRoutes(kd)
	metric, err := partition.MetricBuilder{}.Build(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	metricN := totalRoutes(metric)
	t.Logf("total routed tuples: hybrid=%d kdtree=%d metric=%d", hybridN, kdN, metricN)
	if float64(hybridN) > 1.10*float64(kdN) {
		t.Errorf("hybrid routes %d, kd-tree %d: hybrid should not exceed by >10%%", hybridN, kdN)
	}
	if float64(hybridN) > 1.10*float64(metricN) {
		t.Errorf("hybrid routes %d, metric %d: hybrid should not exceed by >10%%", hybridN, metricN)
	}
}

func TestObjectDiscardWithoutQueries(t *testing.T) {
	s := mixedSample(t, 7, 1000, 200)
	gt := buildHybrid(t, s, 8)
	// No queries registered: H2 empty everywhere, objects dropped.
	if ws := gt.RouteObject(s.Objects[0]); len(ws) != 0 {
		t.Errorf("object routed to %v with empty H2", ws)
	}
}

func TestDeleteMirrorsInsert(t *testing.T) {
	s := mixedSample(t, 8, 1000, 200)
	gt := buildHybrid(t, s, 8)
	for _, q := range s.Queries {
		ins := gt.RouteQuery(q, true)
		del := gt.RouteQuery(q, false)
		if fmt.Sprint(ins) != fmt.Sprint(del) {
			t.Fatalf("query %d insert %v != delete %v", q.ID, ins, del)
		}
	}
}

func TestComputeNumberPartitions(t *testing.T) {
	s := mixedSample(t, 9, 2000, 400)
	cfg := DefaultConfig()
	cfg.Theta = 64
	nodes := []*unit{
		{bounds: geo.NewRect(0, 0, 50, 100), kind: kindNt},
		{bounds: geo.NewRect(50, 0, 100, 100), kind: kindNs},
	}
	for _, n := range nodes {
		for _, o := range s.Objects {
			if n.bounds.Contains(o.Loc) {
				n.objects = append(n.objects, o)
			}
		}
		for _, q := range s.Queries {
			if q.Region.Intersects(n.bounds) {
				n.queries = append(n.queries, q)
			}
		}
		n.computeLoad(cfg.Costs)
	}
	counts := computeNumberPartitions(nodes, 8, s.Stats, cfg)
	if len(counts) != 2 {
		t.Fatalf("counts = %v", counts)
	}
	sum := 0
	for _, c := range counts {
		if c < 1 {
			t.Errorf("count %d < 1", c)
		}
		sum += c
	}
	if sum != 8 {
		t.Errorf("counts sum to %d, want 8", sum)
	}
}

func TestMergeNodesBalance(t *testing.T) {
	units := []*unit{
		{load: 100}, {load: 90}, {load: 50}, {load: 40},
		{load: 30}, {load: 20}, {load: 10}, {load: 5},
	}
	owners := mergeNodesIntoPartitions(units, 3)
	loads := make([]float64, 3)
	for i, u := range units {
		if owners[i] < 0 || owners[i] >= 3 {
			t.Fatalf("owner %d out of range", owners[i])
		}
		loads[owners[i]] += u.load
	}
	if f := load.BalanceFactor(loads); f > 1.6 {
		t.Errorf("merge balance factor %v (loads %v)", f, loads)
	}
}

func TestBalanceAcrossWorkers(t *testing.T) {
	s := mixedSample(t, 10, 4000, 600)
	gt := buildHybrid(t, s, 8)
	counts := make([]float64, 8)
	for _, q := range s.Queries {
		for _, w := range gt.RouteQuery(q, true) {
			counts[w] += 0.5
		}
	}
	for _, o := range s.Objects {
		for _, w := range gt.RouteObject(o) {
			counts[w]++
		}
	}
	if f := load.BalanceFactor(counts); f > 6 {
		t.Errorf("runtime balance factor %v (counts %v)", f, counts)
	}
}

func TestHybridUsesBothStrategies(t *testing.T) {
	s := mixedSample(t, 11, 4000, 600)
	gt := buildHybrid(t, s, 8)
	text, space := 0, 0
	for id := 0; id < gt.Grid().NumCells(); id++ {
		if gt.IsTextCell(id) {
			text++
		} else {
			space++
		}
	}
	t.Logf("cells: %d text, %d space", text, space)
	if text == 0 {
		t.Error("hybrid produced no text-partitioned cells on the mixed workload")
	}
	if space == 0 {
		t.Error("hybrid produced no space-partitioned cells on the mixed workload")
	}
}

func TestEmptySampleBuild(t *testing.T) {
	s := partition.NewSample(nil, nil, testBounds, load.Costs{})
	gt := buildHybrid(t, s, 4)
	q := &model.Query{ID: 1, Expr: model.And("x"), Region: geo.NewRect(10, 10, 20, 20)}
	o := &model.Object{ID: 1, Terms: []string{"x"}, Loc: geo.Point{X: 15, Y: 15}}
	qw := gt.RouteQuery(q, true)
	ow := gt.RouteObject(o)
	shared := false
	for _, a := range ow {
		for _, b := range qw {
			shared = shared || a == b
		}
	}
	if !shared {
		t.Errorf("empty-sample hybrid broke invariant: obj %v qry %v", ow, qw)
	}
}

// TestEmptySampleSpreadsCells: with no objects to cut at, Build splits
// the region by geometry, so every worker owns a space cell and no cell
// is a text cell.
func TestEmptySampleSpreadsCells(t *testing.T) {
	for _, m := range []int{1, 3, 4, 7} {
		gt := buildHybrid(t, partition.NewSample(nil, nil, testBounds, load.Costs{}), m)
		cells := make([]int, m)
		for id := 0; id < gt.Grid().NumCells(); id++ {
			if gt.IsTextCell(id) {
				t.Fatalf("m = %d: cell %d is a text cell", m, id)
			}
			cells[gt.CellWorkers(id)[0]]++
		}
		for w, n := range cells {
			if n == 0 {
				t.Errorf("m = %d: worker %d owns no cell (cells per worker %v)", m, w, cells)
			}
		}
	}
}
