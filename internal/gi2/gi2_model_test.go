package gi2

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ps2stream/internal/geo"
	"ps2stream/internal/index/grid"
	"ps2stream/internal/model"
	"ps2stream/internal/textutil"
)

// refIndex is GI2 written the obvious way — strings, maps and one record
// per insertion — with the same lazy deletion: a deleted query's entries
// stay on their lists until a traversal drops them. The differential test
// holds the real index to it after every step.
type refIndex struct {
	g     *grid.Grid
	stats *textutil.Stats
	byID  map[uint64]*refQuery
	cells map[int]*refCell
}

type refQuery struct {
	q    *model.Query
	dead bool
	refs int
}

type refCell struct {
	lists   map[string][]*refQuery
	hits    map[string]int64
	objSeen int64
}

func newRefIndex(g *grid.Grid, stats *textutil.Stats) *refIndex {
	return &refIndex{g: g, stats: stats, byID: map[uint64]*refQuery{}, cells: map[int]*refCell{}}
}

func (r *refIndex) cell(id int) *refCell {
	c := r.cells[id]
	if c == nil {
		c = &refCell{lists: map[string][]*refQuery{}, hits: map[string]int64{}}
		r.cells[id] = c
	}
	return c
}

func (r *refIndex) insert(q *model.Query, cells []int) {
	keys := r.stats.RegistrationKeys(q.Expr.Conj)
	if len(keys) == 0 {
		return
	}
	rq := r.byID[q.ID]
	if rq == nil || rq.dead {
		rq = &refQuery{q: q}
		r.byID[q.ID] = rq
	}
	for _, cid := range cells {
		c := r.cell(cid)
		for _, k := range keys {
			held := false
			for _, e := range c.lists[k] {
				held = held || e == rq
			}
			if !held {
				c.lists[k] = append(c.lists[k], rq)
				rq.refs++
			}
		}
	}
}

func (r *refIndex) delete(id uint64) {
	if rq := r.byID[id]; rq != nil {
		rq.dead = true
	}
}

func (r *refIndex) unref(rq *refQuery) {
	if rq.refs--; rq.refs == 0 && r.byID[rq.q.ID] == rq {
		delete(r.byID, rq.q.ID)
	}
}

// sweep drops the dead entries of one list, and the list with its last.
func (r *refIndex) sweep(c *refCell, key string) {
	var kept []*refQuery
	for _, rq := range c.lists[key] {
		if rq.dead {
			r.unref(rq)
		} else {
			kept = append(kept, rq)
		}
	}
	if len(kept) == 0 {
		delete(c.lists, key)
		delete(c.hits, key)
	} else {
		c.lists[key] = kept
	}
}

// match is the brute force: every live query on a list the object's
// terms select, judged by model.Query.Matches.
func (r *refIndex) match(o *model.Object) querySet {
	c := r.cell(r.g.CellOf(o.Loc))
	c.objSeen++
	out := querySet{}
	for _, t := range o.Terms {
		if _, ok := c.lists[t]; !ok {
			continue
		}
		c.hits[t]++
		for _, rq := range c.lists[t] {
			if !rq.dead && rq.q.Matches(o) {
				out[rq.q.ID] = rq.q
			}
		}
		r.sweep(c, t)
	}
	return out
}

func (r *refIndex) purge() {
	for _, c := range r.cells {
		for k := range c.lists {
			r.sweep(c, k)
		}
	}
}

// queries returns the distinct live queries on the given lists of a cell
// (all of them for nil keys), removing every entry of those lists when
// extract is set.
func (r *refIndex) queries(cid int, keys []string, extract bool) querySet {
	c := r.cell(cid)
	if keys == nil {
		for k := range c.lists {
			keys = append(keys, k)
		}
	}
	out := querySet{}
	for _, k := range keys {
		for _, rq := range c.lists[k] {
			if !rq.dead {
				out[rq.q.ID] = rq.q
			}
			if extract {
				r.unref(rq)
			}
		}
		if extract {
			delete(c.lists, k)
			delete(c.hits, k)
		}
	}
	return out
}

func (r *refIndex) resetWindow() {
	for _, c := range r.cells {
		c.objSeen = 0
		c.hits = map[string]int64{}
	}
}

// held returns every stored query record, live or dead, once each.
func (r *refIndex) held() map[*refQuery]bool {
	out := map[*refQuery]bool{}
	for _, c := range r.cells {
		for _, l := range c.lists {
			for _, rq := range l {
				out[rq] = true
			}
		}
	}
	return out
}

// querySet holds live definitions by id: at most one definition of an id
// is live at a time, and the index hands out equal definitions, not the
// inserted pointers.
type querySet map[uint64]*model.Query

func setOf(qs []*model.Query, t *testing.T, what string) querySet {
	out := querySet{}
	for _, q := range qs {
		if q == nil || out[q.ID] != nil {
			t.Fatalf("%s returned a nil or repeated query: %v", what, qs)
		}
		out[q.ID] = q
	}
	return out
}

func sameSet(a, b querySet) bool {
	if len(a) != len(b) {
		return false
	}
	for id, q := range a {
		if !reflect.DeepEqual(q, b[id]) {
			return false
		}
	}
	return true
}

func ids(m querySet) []uint64 {
	var out []uint64
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkState compares everything the index reports about itself with the
// reference.
func checkState(t *testing.T, step string, ix *Index, ref *refIndex) {
	t.Helper()
	live, entries, stored := querySet{}, 0, 0
	for rq := range ref.held() {
		stored++
		entries += rq.refs
		if !rq.dead {
			live[rq.q.ID] = rq.q
		}
	}
	if got := ix.LiveQueryCount(); got != len(live) {
		t.Fatalf("%s: LiveQueryCount = %d, want %d", step, got, len(live))
	}
	if got := ix.QueryCount(); got != stored {
		t.Fatalf("%s: QueryCount = %d, want %d", step, got, stored)
	}
	if got := ix.EntryCount(); got != entries {
		t.Fatalf("%s: EntryCount = %d, want %d", step, got, entries)
	}
	each := querySet{}
	ix.Each(func(q *model.Query) {
		if each[q.ID] != nil {
			t.Fatalf("%s: Each visited query %d twice", step, q.ID)
		}
		each[q.ID] = q
	})
	if !sameSet(each, live) {
		t.Fatalf("%s: Each visited %v, want %v", step, ids(each), ids(live))
	}
	if got := len(ix.LiveQueryIDs()); got != len(live) {
		t.Fatalf("%s: LiveQueryIDs has %d ids, want %d", step, got, len(live))
	}
	for id := uint64(0); id < 48; id++ {
		var want *model.Query
		if rq := ref.byID[id]; rq != nil && !rq.dead {
			want = rq.q
		}
		if got := ix.Get(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Get(%d) = %v, want %v", step, id, got, want)
		}
		if got := ix.HasLive(id); got != (want != nil) {
			t.Fatalf("%s: HasLive(%d) = %v", step, id, got)
		}
	}
	cellStats := map[int]CellStat{}
	for _, cs := range ix.CellStats() {
		cellStats[cs.CellID] = cs
	}
	for cid := 0; cid < ix.Grid().NumCells(); cid++ {
		c := ref.cell(cid)
		var want []TermStat
		var cellEntries int
		for k, l := range c.lists {
			n := 0
			for _, rq := range l {
				if !rq.dead {
					n++
				}
			}
			cellEntries += len(l)
			if n > 0 {
				want = append(want, TermStat{Term: k, Queries: n, ObjHits: c.hits[k]})
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Term < want[j].Term })
		if got := ix.CellTermStats(cid); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: CellTermStats(%d) = %v, want %v", step, cid, got, want)
		}
		// S_g counts each of the cell's live queries once, as they ship.
		inCell := ref.queries(cid, nil, false)
		var size int64
		for _, q := range inCell {
			size += int64(q.SizeBytes())
		}
		cs := cellStats[cid] // absent, hence zero, for a cell with nothing to report
		if cs.Entries != cellEntries || cs.ObjSeen != c.objSeen || cs.SizeBytes != size || cs.Shared != 0 {
			t.Fatalf("%s: CellStats[%d] = %+v, want entries %d objSeen %d size %d", step, cid, cs, cellEntries, c.objSeen, size)
		}
		if got := setOf(ix.QueriesInCell(cid), t, "QueriesInCell"); !sameSet(got, inCell) {
			t.Fatalf("%s: QueriesInCell(%d) = %v, want %v", step, cid, ids(got), ids(inCell))
		}
	}
}

// TestDifferentialAgainstReference drives random interleavings of every
// mutating and reading operation through the index and the reference.
// Ids are few, so they are deleted and re-used constantly; expressions
// range from one keyword to DNF well past what a slot holds inline, with
// keywords repeated inside a conjunction; objects carry terms no query
// ever used.
func TestDifferentialAgainstReference(t *testing.T) {
	queryVocab := []string{"aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh", "ii", "jj"}
	objectVocab := append([]string{"never", "seen", "by", "any", "query"}, queryVocab...)
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stats := textutil.NewStats()
		for i, v := range queryVocab {
			stats.AddWeighted(v, 1+(i*7)%5) // ties included
		}
		ix := New(testBounds, 4, stats)
		ref := newRefIndex(ix.Grid(), stats)

		pick := func(vocab []string, n int) []string {
			out := make([]string, n)
			for i := range out {
				out[i] = vocab[rng.Intn(len(vocab))]
			}
			return out
		}
		newQuery := func() *model.Query {
			var e model.Expr
			switch rng.Intn(4) {
			case 0:
				e = model.And(pick(queryVocab, 1+rng.Intn(3))...)
			case 1:
				e = model.Or(pick(queryVocab, 1+rng.Intn(3))...)
			default:
				for n := 1 + rng.Intn(4); n > 0; n-- {
					e.Conj = append(e.Conj, pick(queryVocab, 1+rng.Intn(4)))
				}
			}
			x, y := rng.Float64()*100, rng.Float64()*100
			return q(uint64(rng.Intn(40)), e, geo.NewRect(x, y, x+rng.Float64()*60, y+rng.Float64()*60))
		}
		someKeys := func() []string { return pick(queryVocab, 1+rng.Intn(3)) }

		for n := 0; n < 1500; n++ {
			step := fmt.Sprintf("seed %d step %d", seed, n)
			cid := rng.Intn(ix.Grid().NumCells())
			switch op := rng.Intn(20); {
			case op < 5:
				qq := newQuery()
				step += fmt.Sprintf(" Insert(%d %s)", qq.ID, qq.Expr)
				ix.Insert(qq)
				ref.insert(qq, ix.Grid().CellsOverlapping(qq.Region))
			case op < 7:
				qq := newQuery()
				if rq := ref.byID[qq.ID]; rq != nil && rng.Intn(2) == 0 {
					qq = rq.q // a migration re-installing a query already held
				}
				step += fmt.Sprintf(" InsertAt(%d, %d %s)", cid, qq.ID, qq.Expr)
				ix.InsertAt(cid, qq)
				ref.insert(qq, []int{cid})
			case op < 10:
				id := uint64(rng.Intn(40))
				step += fmt.Sprintf(" Delete(%d)", id)
				ix.Delete(id)
				ref.delete(id)
			case op < 16:
				o := obj(uint64(n), geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}, pick(objectVocab, rng.Intn(6))...)
				step += fmt.Sprintf(" Match(%v at %v)", o.Terms, o.Loc)
				got := querySet{}
				ix.Match(o, func(mq *model.Query) {
					if got[mq.ID] != nil {
						t.Fatalf("%s: query %d reported twice", step, mq.ID)
					}
					// mq is a view the next match refills.
					kept := *mq
					kept.Expr = mq.Expr.Clone()
					got[mq.ID] = &kept
				})
				if want := ref.match(o); !sameSet(got, want) {
					t.Fatalf("%s = %v, want %v", step, ids(got), ids(want))
				}
			case op == 16:
				step += " Purge"
				ix.Purge()
				ref.purge()
			case op == 17:
				step += fmt.Sprintf(" ExtractCell(%d)", cid)
				got := setOf(ix.ExtractCell(cid), t, step)
				if want := ref.queries(cid, nil, true); !sameSet(got, want) {
					t.Fatalf("%s = %v, want %v", step, ids(got), ids(want))
				}
			case op == 18:
				keys := someKeys()
				step += fmt.Sprintf(" ExtractCellKeys(%d, %v)", cid, keys)
				if rng.Intn(2) == 0 {
					got := setOf(ix.QueriesInCellKeys(cid, keys), t, step)
					if want := ref.queries(cid, keys, false); !sameSet(got, want) {
						t.Fatalf("%s: QueriesInCellKeys first = %v, want %v", step, ids(got), ids(want))
					}
				}
				got := setOf(ix.ExtractCellKeys(cid, keys), t, step)
				if want := ref.queries(cid, keys, true); !sameSet(got, want) {
					t.Fatalf("%s = %v, want %v", step, ids(got), ids(want))
				}
			default:
				step += " ResetWindow"
				ix.ResetWindow()
				ref.resetWindow()
			}
			checkState(t, step, ix, ref)
		}
	}
}
