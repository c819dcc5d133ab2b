package gi2

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ps2stream/internal/geo"
	"ps2stream/internal/model"
)

// randomDefinition returns a definition with id: one to four
// conjunctions of up to four terms, repeats allowed, so both inline and
// spilled expressions occur; a later conjunction may be empty. One in
// five is a top-k subscription.
func randomDefinition(rng *rand.Rand, id uint64) *model.Query {
	vocab := []string{"common", "mid", "rare", "alpha", "beta", "gamma", "a-much-longer-keyword"}
	var e model.Expr
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		var c []string // an empty conjunction is nil, as it comes back
		for k := rng.Intn(5); k > 0 || (i == 0 && len(c) == 0); k-- {
			c = append(c, vocab[rng.Intn(len(vocab))])
		}
		e.Conj = append(e.Conj, c)
	}
	x, y := rng.Float64()*90, rng.Float64()*90
	qq := &model.Query{ID: id, Expr: e, Region: geo.NewRect(x, y, x+rng.Float64()*10, y+rng.Float64()*10), Subscriber: rng.Uint64()}
	if rng.Intn(5) == 0 {
		qq.TopK, qq.Window = 1+rng.Intn(5), time.Duration(1+rng.Intn(60))*time.Second
	}
	return qq
}

func center(r geo.Rect) geo.Point {
	return geo.Point{X: (r.Min.X + r.Max.X) / 2, Y: (r.Min.Y + r.Max.Y) / 2}
}

// Every accessor, and the view Match passes, equals the inserted
// definition field for field, though the index keeps no boolean one.
// Ids are deleted and inserted again while the deleted slot's postings
// are still there.
func TestStoredDefinitionRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ix := newTestIndex()
		want := map[uint64]*model.Query{}
		for n := 0; n < 80; n++ {
			id := uint64(rng.Intn(30))
			if want[id] != nil {
				ix.Delete(id)
				delete(want, id)
				continue
			}
			want[id] = randomDefinition(rng, id)
			ix.Insert(want[id])
		}
		same := func(what string, got *model.Query) {
			t.Helper()
			if !reflect.DeepEqual(got, want[got.ID]) {
				t.Fatalf("seed %d: %s = %+v, want %+v", seed, what, got, want[got.ID])
			}
		}

		for id := uint64(0); id < 30; id++ {
			if got := ix.Get(id); !reflect.DeepEqual(got, want[id]) {
				t.Fatalf("seed %d: Get(%d) = %+v, want %+v", seed, id, got, want[id])
			}
		}
		each := 0
		ix.Each(func(q *model.Query) { each++; same("Each", q) })
		if each != len(want) {
			t.Fatalf("seed %d: Each visited %d queries, want %d", seed, each, len(want))
		}
		for id, qq := range want {
			var terms []string
			for _, c := range qq.Expr.Conj {
				terms = append(terms, c...)
			}
			at := center(qq.Region)
			seen := false
			ix.Match(obj(1, at, terms...), func(mq *model.Query) {
				if mq.ID == id {
					seen = true
					same("Match view", mq)
				}
			})
			if !seen {
				t.Fatalf("seed %d: query %d did not match an object with all its terms", seed, id)
			}
			seen = false
			for _, got := range ix.QueriesInCell(ix.Grid().CellOf(at)) {
				seen = seen || got.ID == id
				same("QueriesInCell", got)
			}
			if !seen {
				t.Fatalf("seed %d: QueriesInCell misses query %d", seed, id)
			}
		}
		extracted := map[uint64]bool{}
		for cid := 0; cid < ix.Grid().NumCells(); cid++ {
			got := ix.ExtractCellKeys(cid, []string{"rare", "alpha", "a-much-longer-keyword"})
			for _, q := range got {
				same("ExtractCellKeys", q)
				extracted[q.ID] = true
			}
			for _, q := range ix.ExtractCell(cid) {
				same("ExtractCell", q)
				extracted[q.ID] = true
			}
		}
		if len(extracted) != len(want) || ix.QueryCount() != 0 {
			t.Fatalf("seed %d: extraction returned %d queries of %d and left %d", seed, len(extracted), len(want), ix.QueryCount())
		}
	}
}

// Once Insert returns, the index holds no reference to a boolean
// subscription's definition; a top-k one it keeps for Match to pass on.
func TestInsertKeepsOnlyTopKDefinitions(t *testing.T) {
	for _, topk := range []bool{false, true} {
		ix := newTestIndex()
		collected := make(chan struct{})
		func() {
			qq := q(1, model.Or("rare", "mid"), geo.NewRect(1, 1, 2, 2))
			if topk {
				qq.TopK, qq.Window = 3, time.Minute
			}
			runtime.SetFinalizer(qq, func(*model.Query) { close(collected) })
			ix.Insert(qq)
		}()
		runtime.GC()
		wait := 10 * time.Second
		if topk {
			wait = 200 * time.Millisecond // long enough for a queued finalizer to run
		}
		select {
		case <-collected:
			if topk {
				t.Error("a top-k definition was collected while the index holds it")
			}
		case <-time.After(wait):
			if !topk {
				t.Error("a boolean definition is still reachable after Insert returned")
			}
		}
		if ix.Get(1) == nil {
			t.Fatal("the query is gone from the index")
		}
	}
}

// FuzzStoredDefinition decodes a definition from bytes — a region and a
// subscriber from the first eight, then conjunctions separated by '|'
// whose terms are separated by ',' — inserts it into an empty index, and
// requires Get to return an equal one. The slot encoding is the only
// copy of a boolean subscription.
func FuzzStoredDefinition(f *testing.F) {
	f.Add([]byte("\x02\x02\x01\x01\x00\x00\x00\x07rare"))
	f.Add([]byte("\x10\x20\x30\x40\x00\x00\x01\x00rare,mid,common,rare,alpha"))
	f.Add([]byte("\x10\x20\x30\x40\xff\xff\xff\xffmid|rare,common||alpha,mid"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		at := func(i int) float64 { return float64(data[i]) / 2 }
		qq := &model.Query{
			ID:         1,
			Region:     geo.NewRect(at(0), at(1), at(0)+at(2), at(1)+at(3)),
			Subscriber: uint64(binary.LittleEndian.Uint32(data[4:8])),
		}
		for _, c := range strings.Split(string(data[8:]), "|") {
			var conj []string
			if c != "" {
				conj = strings.Split(c, ",")
			}
			qq.Expr.Conj = append(qq.Expr.Conj, conj)
		}
		ix := newTestIndex()
		ix.Insert(qq)
		got := ix.Get(1)
		if len(RegistrationKeys(qq, ix.stats)) == 0 {
			if got != nil {
				t.Fatalf("a query without a registration key was stored: %+v", got)
			}
			return
		}
		if !reflect.DeepEqual(got, qq) {
			t.Fatalf("Get = %+v, want %+v", got, qq)
		}
	})
}
