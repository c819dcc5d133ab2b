package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"ps2stream/internal/geo"
	"ps2stream/internal/load"
	"ps2stream/internal/model"
)

var testBounds = geo.NewRect(-100, 20, -70, 50)

// makeSample builds a small synthetic spatio-textual workload with skewed
// terms and clustered locations, sufficient to exercise every builder.
func makeSample(t testing.TB, seed int64, nObj, nQry int) *Sample {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vocab := make([]string, 200)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("term%03d", i)
	}
	pick := func() string {
		// Quadratic skew: low ranks far more likely.
		r := rng.Float64()
		return vocab[int(r*r*float64(len(vocab)))]
	}
	randPoint := func() geo.Point {
		// Two hotspots plus uniform background.
		switch rng.Intn(3) {
		case 0:
			return geo.Point{X: -74 + rng.NormFloat64()*0.5, Y: 40.7 + rng.NormFloat64()*0.5}
		case 1:
			return geo.Point{X: -87.6 + rng.NormFloat64()*0.5, Y: 41.8 + rng.NormFloat64()*0.5}
		default:
			return geo.Point{
				X: testBounds.Min.X + rng.Float64()*testBounds.Width(),
				Y: testBounds.Min.Y + rng.Float64()*testBounds.Height(),
			}
		}
	}
	clampP := func(p geo.Point) geo.Point {
		if p.X < testBounds.Min.X {
			p.X = testBounds.Min.X
		}
		if p.X > testBounds.Max.X {
			p.X = testBounds.Max.X
		}
		if p.Y < testBounds.Min.Y {
			p.Y = testBounds.Min.Y
		}
		if p.Y > testBounds.Max.Y {
			p.Y = testBounds.Max.Y
		}
		return p
	}
	objects := make([]*model.Object, nObj)
	for i := range objects {
		n := 3 + rng.Intn(5)
		terms := map[string]struct{}{}
		for len(terms) < n {
			terms[pick()] = struct{}{}
		}
		var ts []string
		for s := range terms {
			ts = append(ts, s)
		}
		objects[i] = &model.Object{ID: uint64(i), Terms: ts, Loc: clampP(randPoint())}
	}
	queries := make([]*model.Query, nQry)
	for i := range queries {
		n := 1 + rng.Intn(3)
		terms := map[string]struct{}{}
		for len(terms) < n {
			terms[pick()] = struct{}{}
		}
		var ts []string
		for s := range terms {
			ts = append(ts, s)
		}
		var e model.Expr
		if rng.Intn(2) == 0 {
			e = model.And(ts...)
		} else {
			e = model.Or(ts...)
		}
		c := clampP(randPoint())
		half := 0.1 + rng.Float64()*1.5
		queries[i] = &model.Query{
			ID:     uint64(i + 1),
			Expr:   e,
			Region: geo.NewRect(c.X-half, c.Y-half, c.X+half, c.Y+half).Clip(testBounds),
		}
	}
	return NewSample(objects, queries, testBounds, load.DefaultCosts)
}

// checkRoutingInvariant verifies that every matching (object, query) pair
// shares at least one worker between the object route and the query's
// insertion route.
func checkRoutingInvariant(t *testing.T, a Assignment, s *Sample) {
	t.Helper()
	queryWorkers := make(map[uint64]map[int]bool)
	for _, q := range s.Queries {
		ws := a.RouteQuery(q, true)
		if len(ws) == 0 {
			t.Fatalf("%s: query %d routed to no worker", a.Name(), q.ID)
		}
		set := map[int]bool{}
		for _, w := range ws {
			if w < 0 || w >= a.NumWorkers() {
				t.Fatalf("%s: query %d routed to invalid worker %d", a.Name(), q.ID, w)
			}
			set[w] = true
		}
		queryWorkers[q.ID] = set
	}
	missed := 0
	pairs := 0
	for _, o := range s.Objects {
		ows := a.RouteObject(o)
		for _, w := range ows {
			if w < 0 || w >= a.NumWorkers() {
				t.Fatalf("%s: object %d routed to invalid worker %d", a.Name(), o.ID, w)
			}
		}
		oset := map[int]bool{}
		for _, w := range ows {
			oset[w] = true
		}
		for _, q := range s.Queries {
			if !q.Matches(o) {
				continue
			}
			pairs++
			shared := false
			for w := range queryWorkers[q.ID] {
				if oset[w] {
					shared = true
					break
				}
			}
			if !shared {
				missed++
				if missed <= 3 {
					t.Errorf("%s: match (obj %d, query %d) has no shared worker: obj->%v query->%v",
						a.Name(), o.ID, q.ID, ows, sortedKeys(queryWorkers[q.ID]))
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatalf("%s: sample produced no matching pairs; test is vacuous", a.Name())
	}
	if missed > 0 {
		t.Fatalf("%s: %d/%d matching pairs missed", a.Name(), missed, pairs)
	}
}

func sortedKeys(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestRoutingInvariantAllBuilders(t *testing.T) {
	s := makeSample(t, 1, 2000, 400)
	for name, b := range Builders() {
		t.Run(name, func(t *testing.T) {
			a, err := b.Build(s, 8)
			if err != nil {
				t.Fatal(err)
			}
			if a.NumWorkers() != 8 {
				t.Fatalf("NumWorkers = %d", a.NumWorkers())
			}
			if a.Name() == "" {
				t.Error("empty Name")
			}
			if a.Footprint() <= 0 {
				t.Error("Footprint <= 0")
			}
			checkRoutingInvariant(t, a, s)
		})
	}
}

func TestRoutingInvariantVariousWorkerCounts(t *testing.T) {
	s := makeSample(t, 2, 800, 150)
	for _, m := range []int{1, 2, 3, 16} {
		for name, b := range Builders() {
			t.Run(fmt.Sprintf("%s-m%d", name, m), func(t *testing.T) {
				a, err := b.Build(s, m)
				if err != nil {
					t.Fatal(err)
				}
				checkRoutingInvariant(t, a, s)
			})
		}
	}
}

func TestInvalidWorkerCount(t *testing.T) {
	s := makeSample(t, 3, 50, 10)
	for name, b := range Builders() {
		if _, err := b.Build(s, 0); err == nil {
			t.Errorf("%s: Build(m=0) did not error", name)
		}
	}
}

func TestTextObjectDiscard(t *testing.T) {
	s := makeSample(t, 4, 500, 100)
	a, err := MetricBuilder{}.Build(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	// No queries registered yet: H2 empty, every object is discarded.
	o := s.Objects[0]
	if got := a.RouteObject(o); len(got) != 0 {
		t.Errorf("object routed to %v before any query registered", got)
	}
	for _, q := range s.Queries {
		a.RouteQuery(q, true)
	}
	// Object with a nonsense term only: still discarded.
	junk := &model.Object{ID: 9999, Terms: []string{"zzzzneverseen"}, Loc: o.Loc}
	if got := a.RouteObject(junk); len(got) != 0 {
		t.Errorf("junk object routed to %v", got)
	}
}

func TestTextDeleteMirrorsInsert(t *testing.T) {
	s := makeSample(t, 5, 500, 100)
	a, err := MetricBuilder{}.Build(s, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range s.Queries {
		ins := a.RouteQuery(q, true)
		del := a.RouteQuery(q, false)
		if fmt.Sprint(ins) != fmt.Sprint(del) {
			t.Fatalf("query %d: insert route %v != delete route %v", q.ID, ins, del)
		}
	}
	// After deleting everything H2 must be empty again.
	ta := a.(*TextAssignment)
	if n := ta.activeKeyCount(); n != 0 {
		t.Errorf("H2 has %d residual keys after balanced insert/delete", n)
	}
}

func TestTextH2Refcount(t *testing.T) {
	s := makeSample(t, 6, 200, 50)
	a, _ := MetricBuilder{}.Build(s, 4)
	ta := a.(*TextAssignment)
	q1 := s.Queries[0]
	q2 := &model.Query{ID: 777, Expr: q1.Expr.Clone(), Region: q1.Region}
	a.RouteQuery(q1, true)
	a.RouteQuery(q2, true)
	a.RouteQuery(q1, false)
	// q2 still live: its keys must remain in H2.
	keys := s.Stats.RegistrationKeys(q2.Expr.Conj)
	for _, k := range keys {
		if ta.activeKeyRefs(k) == 0 {
			t.Errorf("H2 lost key %q while a query still references it", k)
		}
	}
}

func TestSpaceObjectSingleWorker(t *testing.T) {
	s := makeSample(t, 7, 800, 100)
	a, err := KDTreeBuilder{}.Build(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range s.Objects[:100] {
		if got := a.RouteObject(o); len(got) != 1 {
			t.Errorf("object routed to %d workers, want 1", len(got))
		}
	}
}

func TestSpaceBalance(t *testing.T) {
	s := makeSample(t, 8, 4000, 200)
	a, err := KDTreeBuilder{}.Build(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, 8)
	for _, o := range s.Objects {
		for _, w := range a.RouteObject(o) {
			counts[w]++
		}
	}
	if bf := load.BalanceFactor(counts); bf > 5 {
		t.Errorf("object balance factor %v too high (counts %v)", bf, counts)
	}
}

func TestTextBalance(t *testing.T) {
	s := makeSample(t, 9, 4000, 400)
	a, err := MetricBuilder{}.Build(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range s.Queries {
		a.RouteQuery(q, true)
	}
	counts := make([]float64, 8)
	for _, o := range s.Objects {
		for _, w := range a.RouteObject(o) {
			counts[w]++
		}
	}
	if bf := load.BalanceFactor(counts); bf > 12 {
		t.Errorf("object balance factor %v too high (counts %v)", bf, counts)
	}
}

// TestKDTreeEmptySampleSpreadsCells: with no objects to cut at, the
// kd-tree cuts the space by geometry into m equal pieces, so every worker
// owns an equal share of the cells.
func TestKDTreeEmptySampleSpreadsCells(t *testing.T) {
	s := NewSample(nil, nil, testBounds, load.Costs{})
	for _, m := range []int{1, 3, 4, 7} {
		a, err := KDTreeBuilder{}.Build(s, m)
		if err != nil {
			t.Fatal(err)
		}
		owners := a.(*SpaceAssignment).CellOwners()
		counts := make([]float64, m)
		for _, w := range owners {
			counts[w]++
		}
		for w, n := range counts {
			if n == 0 {
				t.Fatalf("m=%d: worker %d owns no cell (counts %v)", m, w, counts)
			}
		}
		// Pieces of equal area on a 64×64 raster: each holds about
		// len(owners)/m cells, off by at most a row or column of cells.
		if bf := load.BalanceFactor(counts); bf > 1.1 {
			t.Errorf("m=%d: cell counts %v, balance factor %v", m, counts, bf)
		}
	}
}

func TestEmptySample(t *testing.T) {
	s := NewSample(nil, nil, testBounds, load.Costs{})
	for name, b := range Builders() {
		a, err := b.Build(s, 4)
		if err != nil {
			t.Errorf("%s: Build on empty sample errored: %v", name, err)
			continue
		}
		o := &model.Object{ID: 1, Terms: []string{"x"}, Loc: testBounds.Center()}
		q := &model.Query{ID: 1, Expr: model.And("x"), Region: geo.RectAround(testBounds.Center(), 10, 10)}
		qw := a.RouteQuery(q, true)
		ow := a.RouteObject(o)
		shared := false
		for _, w1 := range ow {
			for _, w2 := range qw {
				shared = shared || w1 == w2
			}
		}
		if !shared {
			t.Errorf("%s: empty-sample assignment broke routing invariant (obj %v, qry %v)", name, ow, qw)
		}
	}
}

func TestHashTermStable(t *testing.T) {
	a := hashTerm("hello", 8)
	b := hashTerm("hello", 8)
	if a != b {
		t.Error("hashTerm not deterministic")
	}
	if a < 0 || a >= 8 {
		t.Errorf("hashTerm out of range: %d", a)
	}
}
