package worker

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"ps2stream/internal/geo"
	"ps2stream/internal/gi2"
	"ps2stream/internal/index/grid"
	"ps2stream/internal/model"
	"ps2stream/internal/oplog"
	"ps2stream/internal/textutil"
	"ps2stream/internal/window"
	"ps2stream/internal/wire"
)

// The engine test runs a miniature coordinator: a routing table over two
// engines, a seeded insert/delete/object stream, and one §V migration in
// the middle of it, executed with the same four rounds internal/core
// uses (ExtractCells copy → InstallCells → ExtractCells remove →
// reconciling InstallCells). Boolean deliveries are checked against a
// brute force over model.Query.Matches, top-k sets against one engine
// that saw the whole stream.

const (
	testGran = 4 // 4×4 cells
	movedKey = "a"
)

var (
	testBounds = geo.NewRect(0, 0, 40, 40)
	testVocab  = []string{"a", "b", "c", "d", "e"}
	testEpoch  = time.Unix(1_700_000_000, 0)
)

func newTestEngine(task int, stats *textutil.Stats) *Engine {
	return New(Config{Task: task, Index: gi2.New(testBounds, testGran, stats)})
}

// cluster is the two engines under test plus the routing table a
// coordinator would keep for them.
type cluster struct {
	t       *testing.T
	g       *grid.Grid
	stats   *textutil.Stats
	engines [2]*Engine
	// owner is each cell's worker; splitKeys, when non-nil for a cell,
	// lists the registration keys that live on worker 1 instead (a Phase
	// I text split: the cell's other keys stay with its owner).
	owner     []int
	splitKeys map[int]map[string]bool
	// delivered collects the boolean matches, deduplicated as the mergers
	// would.
	delivered map[[2]uint64]bool
}

func newCluster(t *testing.T) *cluster {
	c := &cluster{
		t:         t,
		g:         grid.New(testBounds, testGran, testGran),
		stats:     textutil.NewStats(),
		splitKeys: make(map[int]map[string]bool),
		delivered: make(map[[2]uint64]bool),
	}
	c.owner = make([]int, c.g.NumCells())
	for cell := range c.owner {
		c.owner[cell] = cell % 2
	}
	for i := range c.engines {
		c.engines[i] = newTestEngine(i, c.stats)
	}
	return c
}

// routeQuery lists the workers holding a registration of q, as gridt's
// RouteQuery would.
func (c *cluster) routeQuery(q *model.Query) []int {
	var to [2]bool
	keys := c.stats.RegistrationKeys(q.Expr.Conj)
	c.g.VisitOverlapping(q.Region, func(cell int) {
		split := c.splitKeys[cell]
		for _, k := range keys {
			if split[k] {
				to[1] = true
			} else {
				to[c.owner[cell]] = true
			}
		}
	})
	return targets(to)
}

// routeObject lists the workers that can hold a query matching o.
func (c *cluster) routeObject(o *model.Object) []int {
	var to [2]bool
	cell := c.g.CellOf(o.Loc)
	split := c.splitKeys[cell]
	for _, term := range o.Terms {
		if split[term] {
			to[1] = true
		} else {
			to[c.owner[cell]] = true
		}
	}
	return targets(to)
}

func targets(to [2]bool) []int {
	var out []int
	for w, ok := range to {
		if ok {
			out = append(out, w)
		}
	}
	return out
}

// apply routes one op to its workers and collects the boolean matches.
func (c *cluster) apply(env wire.OpEnv) {
	var to []int
	if env.Op.Kind == model.OpObject {
		to = c.routeObject(env.Op.Obj)
	} else {
		to = c.routeQuery(env.Op.Query)
	}
	for _, w := range to {
		out, _, _ := c.engines[w].Process([]wire.OpEnv{env}, nil, nil)
		for _, m := range out {
			if m.M.Worker != w {
				c.t.Fatalf("match %+v stamped with worker %d, produced on %d", m.M, m.M.Worker, w)
			}
			c.delivered[[2]uint64{m.M.QueryID, m.M.ObjectID}] = true
		}
	}
}

// advance runs one expiry round on every engine at the same instant, as
// AdvanceWindows does; it also brings every engine's clock to now.
func advance(now time.Time, engines ...*Engine) {
	for _, e := range engines {
		e.Serve(wire.AdvanceWindow{Now: now})
	}
}

// migration is the coordinator's record of a cell share between its copy
// and its extraction (core's handOff).
type migration struct {
	cell       int
	keys       []string
	copied     map[uint64]bool
	copiedMsgs map[[2]uint64]bool
}

// copyShare runs the copy and transfer rounds of a hand-off from worker
// 0 to worker 1. Routing is not flipped yet: traffic applied before
// finish plays the batches still in flight under the old table.
func (c *cluster) copyShare(cell int, keys []string) *migration {
	share, err := c.engines[0].ExtractCells(wire.ExtractCells{Cells: []wire.CellSpec{{Cell: cell, Keys: keys}}, Subs: true})
	if err != nil {
		c.t.Fatal(err)
	}
	if len(share.Cells) != 1 || len(share.Deltas) != 0 {
		c.t.Fatalf("copying extraction returned %d cells and %d deltas", len(share.Cells), len(share.Deltas))
	}
	p := share.Cells[0]
	if len(p.Queries) == 0 {
		c.t.Fatal("vacuous: the migrating share holds no queries")
	}
	if _, err := c.engines[1].InstallCells(wire.InstallCells{Cells: []wire.CellPayload{p}}); err != nil {
		c.t.Fatal(err)
	}
	m := &migration{cell: cell, keys: keys, copied: make(map[uint64]bool), copiedMsgs: make(map[[2]uint64]bool)}
	for _, q := range p.Queries {
		m.copied[q.ID] = true
	}
	for _, se := range p.Subs {
		for _, e := range se.Entries {
			m.copiedMsgs[[2]uint64{se.ID, e.MsgID}] = true
		}
	}
	return m
}

// finish flips the routing and runs the removing extraction and the
// reconciling install: queries and window entries that reached the
// source after the copy move on, queries deleted there since are deleted
// from the destination's copy. It reports how much reconciling there was.
func (c *cluster) finish(m *migration) (leftover, deleted, entriesLeft int) {
	if m.keys == nil {
		c.owner[m.cell] = 1
	} else {
		split := make(map[string]bool)
		for _, k := range m.keys {
			split[k] = true
		}
		c.splitKeys[m.cell] = split
	}
	share, err := c.engines[0].ExtractCells(wire.ExtractCells{
		Cells: []wire.CellSpec{{Cell: m.cell, Keys: m.keys}}, Remove: true, Subs: true,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	p := share.Cells[0]
	fwd := wire.CellPayload{Cell: m.cell}
	extracted := make(map[uint64]bool)
	for _, q := range p.Queries {
		extracted[q.ID] = true
		if !m.copied[q.ID] {
			fwd.Queries = append(fwd.Queries, q)
		}
	}
	for _, se := range p.Subs {
		left := wire.SubEntries{ID: se.ID}
		for _, e := range se.Entries {
			if !m.copiedMsgs[[2]uint64{se.ID, e.MsgID}] {
				left.Entries = append(left.Entries, e)
			}
		}
		if len(left.Entries) > 0 {
			fwd.Subs = append(fwd.Subs, left)
			entriesLeft += len(left.Entries)
		}
	}
	var deletes []uint64
	for id := range m.copied {
		if !extracted[id] {
			deletes = append(deletes, id)
		}
	}
	if _, err := c.engines[1].InstallCells(wire.InstallCells{Cells: []wire.CellPayload{fwd}, Deletes: deletes}); err != nil {
		c.t.Fatal(err)
	}
	return len(fwd.Queries), len(deletes), entriesLeft
}

// opStream generates the seeded op stream. Every query lives strictly
// inside one grid cell; top-k queries are single conjunctions, so exactly
// one worker holds each of them at any routing state. Stamps advance one
// millisecond per op.
type opStream struct {
	rng    *rand.Rand
	g      *grid.Grid
	n      int
	nextID uint64
	live   []*model.Query
	// hot is the migrating cell: a third of the traffic goes there.
	hot int
}

func (s *opStream) cell() int {
	if s.rng.Intn(3) == 0 {
		return s.hot
	}
	return s.rng.Intn(s.g.NumCells())
}

func (s *opStream) terms(n int) []string {
	perm := s.rng.Perm(len(testVocab))
	out := make([]string, n)
	for i := range out {
		out[i] = testVocab[perm[i]]
	}
	return out
}

// stamp numbers the op and gives it its submit time.
func (s *opStream) stamp(op model.Op) wire.OpEnv {
	s.n++
	return wire.OpEnv{Op: op, T0: testEpoch.Add(time.Duration(s.n) * time.Millisecond)}
}

// insert registers a query over most of one cell: a random inset keeps
// the region strictly inside it while leaving some objects outside.
func (s *opStream) insert(cell int, expr model.Expr, topK int, win time.Duration) wire.OpEnv {
	s.nextID++
	r := s.g.CellRect(cell)
	inset := func() float64 { return 0.2 + 3*s.rng.Float64() }
	q := &model.Query{
		ID:         s.nextID,
		Subscriber: s.nextID % 7,
		Expr:       expr,
		Region:     geo.NewRect(r.Min.X+inset(), r.Min.Y+inset(), r.Max.X-inset(), r.Max.Y-inset()),
		TopK:       topK,
		Window:     win,
	}
	s.live = append(s.live, q)
	return s.stamp(model.Op{Kind: model.OpInsert, Query: q})
}

func (s *opStream) delete(q *model.Query) wire.OpEnv {
	for i := range s.live {
		if s.live[i] == q {
			s.live = append(s.live[:i], s.live[i+1:]...)
			break
		}
	}
	return s.stamp(model.Op{Kind: model.OpDelete, Query: q})
}

func (s *opStream) object(cell int, terms []string) wire.OpEnv {
	r := s.g.CellRect(cell)
	loc := geo.Point{
		X: r.Min.X + (0.1+0.8*s.rng.Float64())*r.Width(),
		Y: r.Min.Y + (0.1+0.8*s.rng.Float64())*r.Height(),
	}
	return s.stamp(model.Op{Kind: model.OpObject, Obj: &model.Object{ID: uint64(1_000_000 + s.n), Terms: terms, Loc: loc}})
}

func (s *opStream) next() wire.OpEnv {
	switch r := s.rng.Intn(10); {
	case r < 3 || len(s.live) == 0:
		switch s.rng.Intn(3) {
		case 0: // top-k: one conjunction, a window some entries outlive
			return s.insert(s.cell(), model.And(s.terms(1+s.rng.Intn(2))...),
				1+s.rng.Intn(3), time.Duration(150+s.rng.Intn(400))*time.Millisecond)
		case 1:
			return s.insert(s.cell(), model.Or(s.terms(2)...), 0, 0)
		default:
			return s.insert(s.cell(), model.And(s.terms(1+s.rng.Intn(2))...), 0, 0)
		}
	case r < 4:
		return s.delete(s.live[s.rng.Intn(len(s.live))])
	default:
		return s.object(s.cell(), s.terms(1+s.rng.Intn(3)))
	}
}

func TestEngineMigrationMatchesBruteForceAndSingleEngine(t *testing.T) {
	const hot = 2 // an even cell: worker 0 owns it at the start
	for _, tc := range []struct {
		name string
		keys []string // nil: whole-cell move
		seed int64
	}{
		{"whole-cell move", nil, 11},
		{"whole-cell move, second seed", nil, 12},
		{"key split", []string{movedKey}, 21},
		{"key split, second seed", []string{movedKey}, 22},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t)
			single := newTestEngine(0, c.stats)
			s := &opStream{rng: rand.New(rand.NewSource(tc.seed)), g: c.g, hot: hot}
			want := make(map[[2]uint64]bool)
			var now time.Time
			// step applies one generated op to the cluster, the single
			// engine and the brute force.
			step := func(gen func() wire.OpEnv) {
				live := append([]*model.Query(nil), s.live...)
				env := gen()
				now = env.T0
				if env.Op.Kind == model.OpObject {
					for _, q := range live {
						if !q.IsTopK() && q.Matches(env.Op.Obj) {
							want[[2]uint64{q.ID, env.Op.Obj.ID}] = true
						}
					}
				}
				c.apply(env)
				single.Process([]wire.OpEnv{env}, nil, nil)
			}
			run := func(n int) {
				for i := 0; i < n; i++ {
					step(s.next)
				}
				advance(now, c.engines[0], c.engines[1], single)
			}
			// hotQuery registers a query under the moving key in the
			// moving cell; hotObject publishes one such queries match.
			hotQuery := func(topK int, win time.Duration) *model.Query {
				var q *model.Query
				step(func() wire.OpEnv {
					env := s.insert(hot, model.And(movedKey), topK, win)
					q = env.Op.Query
					return env
				})
				return q
			}
			hotObject := func() {
				step(func() wire.OpEnv { return s.object(hot, []string{movedKey, "b"}) })
			}

			// Both workers observe publications from the start, as the
			// single engine does: one long-lived top-k subscription each.
			for cell := 0; cell < 2; cell++ {
				r := c.g.CellRect(cell)
				q := &model.Query{
					ID: uint64(900_000 + cell), Expr: model.And("zz"), Region: r,
					TopK: 1, Window: time.Hour,
				}
				env := wire.OpEnv{Op: model.Op{Kind: model.OpInsert, Query: q}, T0: testEpoch}
				c.apply(env)
				single.Process([]wire.OpEnv{env}, nil, nil)
			}

			run(400)
			doomed := hotQuery(0, 0) // copied, then deleted before the flip
			hotQuery(2, time.Hour)   // copied: a top-k subscription that migrates
			hotObject()
			m := c.copyShare(hot, tc.keys)
			// In flight under the pre-flip table: the source alone sees
			// these, and the reconciling install must carry them over.
			step(func() wire.OpEnv { return s.delete(doomed) })
			hotQuery(0, 0)
			hotQuery(1, time.Hour)
			hotObject()
			run(60)
			leftover, deleted, entriesLeft := c.finish(m)
			if leftover < 2 || deleted < 1 || entriesLeft < 1 {
				t.Fatalf("vacuous: reconciled %d inserted queries, %d deleted queries, %d window entries",
					leftover, deleted, entriesLeft)
			}
			// The source holds nothing of the moved share any more.
			left, err := c.engines[0].ExtractCells(wire.ExtractCells{Cells: []wire.CellSpec{{Cell: hot, Keys: tc.keys}}})
			if err != nil {
				t.Fatal(err)
			}
			if n := len(left.Cells[0].Queries); n != 0 {
				t.Errorf("source still holds %d queries of the moved share", n)
			}
			hotObject()
			run(400)

			if len(want) == 0 {
				t.Fatal("vacuous: brute force found no boolean matches")
			}
			for k := range want {
				if !c.delivered[k] {
					t.Errorf("match %v missing", k)
				}
			}
			for k := range c.delivered {
				if !want[k] {
					t.Errorf("match %v delivered but not in the brute force", k)
				}
			}

			topk, moved := 0, 0
			for _, q := range s.live {
				if !q.IsTopK() {
					continue
				}
				topk++
				holders := c.routeQuery(q)
				if len(holders) != 1 {
					t.Fatalf("top-k query %d routes to %v, want one holder", q.ID, holders)
				}
				h := holders[0]
				if c.g.CellOf(q.Region.Center()) == hot && h == 1 {
					moved++
				}
				if c.engines[1-h].HasSub(q.ID) {
					t.Errorf("top-k query %d holds window state on worker %d, which does not route it", q.ID, 1-h)
				}
				got, ref := c.engines[h].TopKSet(q.ID), single.TopKSet(q.ID)
				if fmt.Sprint(got) != fmt.Sprint(ref) {
					t.Errorf("top-k query %d on worker %d holds %v, single engine %v", q.ID, h, got, ref)
				}
			}
			if moved == 0 {
				t.Fatalf("vacuous: none of the %d live top-k queries migrated", topk)
			}
			// Deleted subscriptions left no window state behind anywhere.
			liveIDs := make(map[uint64]bool)
			for _, q := range s.live {
				liveIDs[q.ID] = true
			}
			for id := uint64(1); id <= s.nextID; id++ {
				if liveIDs[id] {
					continue
				}
				for w, e := range c.engines {
					if e.HasSub(id) {
						t.Errorf("deleted query %d still holds window state on worker %d", id, w)
					}
				}
			}
		})
	}
}

// TestEngineReplayFromOpLogMatchesLive: an engine rebuilt from an op
// log's base — the live engine's population with bands at the
// checkpoint's position — and the tail behind it, operations and logged
// cut frames alike, holds every top-k set the live engine holds. That
// includes a subscription inserted after matching objects that are still
// in the window, which ranks only the objects after it on replay as it
// did live.
func TestEngineReplayFromOpLogMatchesLive(t *testing.T) {
	for _, seed := range []int64{31, 32, 33} {
		g := grid.New(testBounds, testGran, testGran)
		s := &opStream{rng: rand.New(rand.NewSource(seed)), g: g, hot: 5}
		live := newTestEngine(0, nil)
		log := oplog.New()
		var now time.Time
		apply := func(env wire.OpEnv) {
			now = env.T0
			log.Append(env.Op, env.T0)
			live.Process([]wire.OpEnv{env}, nil, nil)
		}
		serve := func(f wire.Frame) wire.Frame {
			log.AppendFrame(f)
			reply, err := live.Serve(f)
			if err != nil {
				t.Fatal(err)
			}
			return reply
		}
		for i := 0; i < 300; i++ {
			apply(s.next())
		}
		// Matching objects, then a subscription that must not rank them.
		// Every hot-cell query region holds the cell's centre.
		centre := func(id uint64) wire.OpEnv {
			return s.stamp(model.Op{Kind: model.OpObject, Obj: &model.Object{ID: id, Terms: []string{movedKey}, Loc: g.CellRect(s.hot).Center()}})
		}
		for id := uint64(1); id <= 3; id++ {
			apply(centre(id))
		}
		late := s.insert(s.hot, model.And(movedKey), 3, time.Hour)
		s.live = s.live[:len(s.live)-1] // kept out of the random deletes
		apply(late)
		apply(centre(4))
		for i := 0; i < 100; i++ {
			apply(s.next())
		}
		pop, err := live.Serve(wire.ExtractCells{Cells: []wire.CellSpec{{Cell: wire.WholeQueries}}, Subs: true})
		if err != nil {
			t.Fatal(err)
		}
		// The base is kept as a node sends it: the population's pages,
		// encoded.
		var base []wire.Page
		for _, ic := range wire.Pages(pop.(wire.CellShare).Cells, wire.PageBudget) {
			p, err := wire.DecodeBinPage(wire.AppendInstallCells(nil, ic))
			if err != nil {
				t.Fatal(err)
			}
			base = append(base, p)
		}
		log.Checkpoint(log.Seq(), base)
		for i := 0; i < 100; i++ {
			apply(s.next())
		}
		// A cut moves a top-k cell away and back: its removing extraction
		// and its install are logged as the frames the slot was served.
		moved := -1
		for _, q := range s.live {
			if c := g.CellOf(q.Region.Center()); q.IsTopK() && c != s.hot {
				moved = c
				break
			}
		}
		if moved < 0 {
			t.Fatalf("seed %d: no top-k query outside the hot cell", seed)
		}
		share := serve(wire.ExtractCells{Cells: []wire.CellSpec{{Cell: moved}}, Remove: true, Subs: true}).(wire.CellShare)
		for i := 0; i < 50; i++ {
			apply(s.next())
		}
		serve(wire.InstallCells{Cells: share.Cells})
		for i := 0; i < 50; i++ {
			apply(s.next())
		}

		replayed := newTestEngine(0, nil)
		base, tail, _ := log.Replay()
		for _, p := range base {
			ic, err := p.Decode()
			if err == nil {
				_, err = replayed.Serve(ic)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		frames := 0
		for _, e := range tail {
			if e.Frame != nil {
				frames++
				if _, err := replayed.Serve(e.Frame); err != nil {
					t.Fatal(err)
				}
				continue
			}
			replayed.Process([]wire.OpEnv{{Op: e.Op, T0: e.T0}}, nil, nil)
		}
		if frames != 2 {
			t.Fatalf("seed %d: the tail holds %d frames, want the cut's extraction and install", seed, frames)
		}
		advance(now, live, replayed)

		lateSet := live.TopKSet(late.Op.Query.ID)
		if !slices.Contains(lateSet, 4) || slices.ContainsFunc(lateSet, func(id uint64) bool { return id < 4 }) {
			t.Fatalf("seed %d: the late subscription ranks %v live, want object 4 and none published before it", seed, lateSet)
		}
		compared := 0
		for _, q := range append(s.live, late.Op.Query) {
			if !q.IsTopK() {
				continue
			}
			compared++
			if got, want := replayed.TopKSet(q.ID), live.TopKSet(q.ID); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("seed %d: query %d holds %v after replay, %v live", seed, q.ID, got, want)
			}
		}
		if compared < 5 {
			t.Fatalf("seed %d: vacuous: %d live top-k queries", seed, compared)
		}
	}
}

// TestEngineClockIsRunningMaximum pins the clock rule: the engine's now
// is the largest T0 or AdvanceWindow time it has seen, never a local
// clock and never moving backwards.
func TestEngineClockIsRunningMaximum(t *testing.T) {
	e := newTestEngine(0, nil)
	loc := geo.Point{X: 5, Y: 5}
	q := &model.Query{
		ID: 1, Expr: model.And("a"), Region: geo.NewRect(0, 0, 9, 9),
		TopK: 5, Window: 10 * time.Second,
	}
	at := func(sec int) time.Time { return testEpoch.Add(time.Duration(sec) * time.Second) }
	obj := func(id uint64, sec int) wire.OpEnv {
		return wire.OpEnv{
			Op: model.Op{Kind: model.OpObject, Obj: &model.Object{ID: id, Terms: []string{"a"}, Loc: loc}},
			T0: at(sec),
		}
	}
	e.Process([]wire.OpEnv{{Op: model.Op{Kind: model.OpInsert, Query: q}, T0: at(0)}, obj(10, 1), obj(11, 20)}, nil, nil)
	// now is 20s: object 10 (stamped 1s) is past the window, but only an
	// expiry round retires it.
	if got := fmt.Sprint(e.TopKSet(1)); got != "[10 11]" {
		t.Fatalf("before any expiry round the heap holds %s, want [10 11]", got)
	}
	// An older stamp must not move the clock back: a sweep at 5s still
	// runs at 20s and expires object 10.
	ack, _ := e.Serve(wire.AdvanceWindow{Now: at(5)})
	if got := fmt.Sprint(e.TopKSet(1)); got != "[11]" {
		t.Fatalf("after the sweep the heap holds %s, want [11] (deltas %+v)", got, ack.(wire.AdvanceAck).Deltas)
	}
	// A late-stamped object is judged against the running maximum too.
	_, ds, _ := e.Process([]wire.OpEnv{obj(12, 2)}, nil, nil)
	if len(ds) != 0 {
		t.Fatalf("an object stamped outside the window produced deltas %+v", ds)
	}
}

// TestEngineResetKeepsCountersAndClock: a reset (a psnode's recovery
// session) drops index and window state under the new epoch, while the
// slot's lifetime counters and clock reading carry on.
func TestEngineResetKeepsCountersAndClock(t *testing.T) {
	e := newTestEngine(3, nil)
	q := &model.Query{ID: 1, Expr: model.And("a"), Region: geo.NewRect(0, 0, 9, 9)}
	o := &model.Object{ID: 7, Terms: []string{"a"}, Loc: geo.Point{X: 5, Y: 5}}
	ops := []wire.OpEnv{
		{Op: model.Op{Kind: model.OpInsert, Query: q}, T0: testEpoch},
		{Op: model.Op{Kind: model.OpObject, Obj: o}, T0: testEpoch},
	}
	if out, _, epoch := e.Process(ops, nil, nil); len(out) != 1 || epoch != 0 {
		t.Fatalf("first session: %d matches under epoch %d, want 1 under 0", len(out), epoch)
	}
	e.Reset(Config{Task: 3, Epoch: 2, Index: gi2.New(testBounds, testGran, nil)})
	out, _, epoch := e.Process(ops[1:], nil, nil)
	if len(out) != 0 || epoch != 2 {
		t.Errorf("after reset: %d matches under epoch %d, want 0 under 2", len(out), epoch)
	}
	if st := e.Stats(); st.Queries != 0 || st.Inserts != 1 || st.Objects != 2 {
		t.Errorf("after reset: stats %+v, want 0 queries and lifetime counts 1 insert / 2 objects", st)
	}
}

// TestEngineProcessAllocs: matching objects against standing queries
// they do not satisfy allocates nothing once the scratch has grown — the
// match callback is bound once, not per object.
func TestEngineProcessAllocs(t *testing.T) {
	e := newTestEngine(0, nil)
	loc := geo.Point{X: 5, Y: 5}
	q := &model.Query{ID: 1, Expr: model.And("a", "zz"), Region: geo.NewRect(0, 0, 9, 9)}
	e.Process([]wire.OpEnv{{Op: model.Op{Kind: model.OpInsert, Query: q}, T0: testEpoch}}, nil, nil)
	ops := make([]wire.OpEnv, 64)
	for i := range ops {
		ops[i] = wire.OpEnv{
			Op: model.Op{Kind: model.OpObject, Obj: &model.Object{ID: uint64(100 + i), Terms: []string{"a", "b"}, Loc: loc}},
			T0: testEpoch,
		}
	}
	var out []wire.MatchEnv
	var dout []window.Delta
	if n := testing.AllocsPerRun(100, func() { out, dout, _ = e.Process(ops, out[:0], dout[:0]) }); n != 0 {
		t.Errorf("a 64-object batch with no matches allocates %v times, want 0", n)
	}
	if len(out) != 0 || len(dout) != 0 {
		t.Errorf("no-match batch produced %d matches and %d deltas", len(out), len(dout))
	}
}

// TestEngineWholeQueryCopy: a copying wire.WholeQueries spec lists each
// live query once — however many cells it spans, deleted ones not at all
// — with each top-k subscription's held entries when Subs is set, and
// changes neither the index nor the window.
func TestEngineWholeQueryCopy(t *testing.T) {
	e := newTestEngine(0, nil)
	everywhere := geo.NewRect(0, 0, 40, 40) // all 16 cells
	loc := geo.Point{X: 5, Y: 5}
	ops := []wire.OpEnv{
		{Op: model.Op{Kind: model.OpInsert, Query: &model.Query{ID: 1, Expr: model.And("a"), Region: everywhere}}},
		{Op: model.Op{Kind: model.OpInsert, Query: &model.Query{ID: 2, Expr: model.Or("b", "c"), Region: geo.NewRect(1, 1, 2, 2)}}},
		{Op: model.Op{Kind: model.OpInsert, Query: &model.Query{ID: 3, Expr: model.And("a"), Region: everywhere, TopK: 2, Window: time.Hour}}},
		{Op: model.Op{Kind: model.OpInsert, Query: &model.Query{ID: 4, Expr: model.And("d"), Region: everywhere}}},
		{Op: model.Op{Kind: model.OpDelete, Query: &model.Query{ID: 4, Expr: model.And("d"), Region: everywhere}}},
		{Op: model.Op{Kind: model.OpObject, Obj: &model.Object{ID: 50, Terms: []string{"a"}, Loc: loc}}},
	}
	for i := range ops {
		ops[i].T0 = testEpoch
	}
	e.Process(ops, nil, nil)
	before, footprint := e.Stats(), e.Footprint()
	share, err := e.ExtractCells(wire.ExtractCells{Cells: []wire.CellSpec{{Cell: wire.WholeQueries}}, Subs: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(share.Cells) != 1 || len(share.Deltas) != 0 {
		t.Fatalf("whole-query copy returned %d payloads and %d deltas, want 1 and 0", len(share.Cells), len(share.Deltas))
	}
	p := share.Cells[0]
	var ids []uint64
	for _, q := range p.Queries {
		ids = append(ids, q.ID)
	}
	slices.Sort(ids)
	if fmt.Sprint(ids) != "[1 2 3]" {
		t.Errorf("whole-query copy lists %v, want each live query once: [1 2 3]", ids)
	}
	if p.Cell != wire.WholeQueries {
		t.Errorf("payload cell %d, want the whole-query cell", p.Cell)
	}
	if len(p.Subs) != 1 || p.Subs[0].ID != 3 || len(p.Subs[0].Entries) != 1 {
		t.Errorf("held entries %+v, want subscription 3 holding object 50", p.Subs)
	}
	if after := e.Stats(); after != before || e.Footprint() != footprint || fmt.Sprint(e.TopKSet(3)) != "[50]" {
		t.Errorf("the copy changed the engine: stats %+v -> %+v, footprint %d -> %d, top-k %v",
			before, after, footprint, e.Footprint(), e.TopKSet(3))
	}
	out, _, _ := e.Process([]wire.OpEnv{{Op: model.Op{Kind: model.OpObject, Obj: &model.Object{ID: 51, Terms: []string{"a"}, Loc: loc}}, T0: testEpoch}}, nil, nil)
	if len(out) != 1 || out[0].M.QueryID != 1 {
		t.Errorf("after the copy object 51 matched %+v, want query 1 alone", out)
	}
}

// TestEngineRefusesCellsOutsideGrid: a cell id the grid does not have
// fails the control round with an error naming it and leaves the engine
// untouched; the whole-query id is refused where it means nothing.
func TestEngineRefusesCellsOutsideGrid(t *testing.T) {
	e := newTestEngine(0, nil)
	q := &model.Query{ID: 1, Expr: model.And("a"), Region: geo.NewRect(0, 0, 40, 40)}
	e.Process([]wire.OpEnv{{Op: model.Op{Kind: model.OpInsert, Query: q}, T0: testEpoch}}, nil, nil)
	for _, tc := range []struct {
		name string
		ex   wire.ExtractCells
		want string
	}{
		{"copy past the grid", wire.ExtractCells{Cells: []wire.CellSpec{{Cell: 0}, {Cell: 5000}}}, "cell 5000"},
		{"remove past the grid", wire.ExtractCells{Cells: []wire.CellSpec{{Cell: 0}, {Cell: 5000}}, Remove: true}, "cell 5000"},
		{"negative", wire.ExtractCells{Cells: []wire.CellSpec{{Cell: -2}}}, "cell -2"},
		{"remove whole queries", wire.ExtractCells{Cells: []wire.CellSpec{{Cell: wire.WholeQueries}}, Remove: true}, "cell -1"},
		{"whole queries by key", wire.ExtractCells{Cells: []wire.CellSpec{{Cell: wire.WholeQueries, Keys: []string{"a"}}}}, "cell -1"},
	} {
		if _, err := e.ExtractCells(tc.ex); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %s", tc.name, err, tc.want)
		}
	}
	for _, p := range []wire.CellPayload{
		{Cell: 5000, Queries: []*model.Query{{ID: 2, Expr: model.And("a"), Region: geo.NewRect(0, 0, 1, 1)}}},
		{Cell: -2, Subs: []wire.SubEntries{{ID: 1, Entries: []window.Entry{{MsgID: 9, Terms: []string{"a"}, At: testEpoch}}}}},
	} {
		if _, err := e.InstallCells(wire.InstallCells{Cells: []wire.CellPayload{{Cell: 0}, p}, Deletes: []uint64{1}}); err == nil ||
			!strings.Contains(err.Error(), fmt.Sprintf("cell %d", p.Cell)) {
			t.Errorf("install into cell %d: err = %v, want one naming it", p.Cell, err)
		}
	}
	if st := e.Stats(); st.Queries != 1 {
		t.Errorf("refused rounds changed the index: %d live queries, want 1", st.Queries)
	}
}
