// Package gi2 implements GI2 (Grid-Inverted-Index) [29], the in-memory
// index maintained by every PS2Stream worker to organise STS queries
// (§IV-D). The space is divided into grid cells; each cell holds an
// inverted index over query keywords. A query is appended to the inverted
// list of its least-frequent keyword (per conjunction for OR queries), and
// deletions are lazy: a deleted query is marked dead and its entries are
// physically removed when matching traverses their list.
//
// An Index is owned by a single worker goroutine and is not safe for
// concurrent use.
package gi2

import (
	"math/bits"
	"slices"
	"sort"
	"unsafe"

	"ps2stream/internal/geo"
	"ps2stream/internal/index/grid"
	"ps2stream/internal/model"
	"ps2stream/internal/textutil"
)

// Index is the per-worker GI2 structure.
//
// Layout. Every distinct query the index holds has one slot: a
// pointer-free record of its id, its region and its keyword expression
// compiled to term ids, with its subscriber in a column beside the
// slots. Term ids come from a dictionary private to the index and never
// leave it — objects, wire frames, snapshots and the op-log carry
// strings, and every method that takes or returns terms converts at its
// own boundary. A cell's inverted index is an open-addressed table from
// term id to the slot numbers registered under that term in that cell
// (the postings), with the term's object-hit counter beside them.
// Matching a posting reads the slot and compares integers.
//
// The slot is the only stored copy of a boolean subscription: Insert
// does not keep the caller's *model.Query, and every definition the
// index hands out is rebuilt from the slot and the dictionary. A top-k
// subscription (one with TopK or Window set) is the exception; its
// definition is kept in a side table, because the window store holds the
// same pointer and Match must pass it back.
//
// Deletion is lazy, as in the paper: Delete sets the slot's dead bit, and
// Match and Purge drop dead slot numbers from the postings they traverse.
// A slot is reused once no posting refers to it.
type Index struct {
	g     *grid.Grid
	stats *textutil.Stats
	cells []cell

	// dict assigns ids (from 1) to the terms of every query ever
	// inserted; terms is its inverse. Object terms outside it cannot
	// matter to any query here.
	dict  map[string]uint32
	terms []string

	// slots[s] and subs[s] describe one query, and topk[s] is its
	// definition when slots[s].topk is set; free lists the unused slot
	// numbers. byID finds the slot an id was last inserted into, live or
	// dead; a dead slot whose id has since been re-inserted is reachable
	// from its postings only.
	slots []slot
	subs  []uint64
	topk  map[uint32]*model.Query
	free  []uint32
	byID  map[uint64]uint32
	live  int // slots in use and not dead
	dead  int // slots in use and dead, waiting for their postings to go

	// spill holds the expressions that do not fit a slot, each a sequence
	// of conjunctions stored as a length followed by that many term ids.
	// spillDead counts the words freed slots left behind.
	spill     []uint32
	spillDead int

	// lists[i] is a posting list of two or more slot numbers, referenced
	// from one table entry as listBit|i; freeLists are the unused i.
	lists     [][]uint32
	freeLists []uint32

	entries int

	// Scratch, reused across calls.
	objIDs []uint32  // term ids of the object being matched
	hit    []uint32  // slots already reported for that object
	keyIDs []uint32  // registration keys of the query being inserted
	one    [1]uint32 // backing for a single posting viewed as a list
	gather []uint32
	enc    [2 * inlineTerms]uint32 // an inline expression in the spill encoding
	// view and viewTerms hold the definition Match passes for a boolean
	// subscription, refilled for each one.
	view      model.Query
	viewTerms []string
}

// slot is one query, stored once however many cells and keys it is
// registered under. It holds no pointers, so the collector never scans
// the slots.
type slot struct {
	region geo.Rect
	id     uint64
	// expr is the compiled expression. Inline (the common case, up to
	// three term ids in total): the ids in order, with bit i of ends set
	// where id i closes a conjunction. Spilled: expr[0] and expr[1] are
	// the offset and length of the encoding in Index.spill.
	expr    [inlineTerms]uint32
	refs    uint32 // (cell, key) postings that name this slot
	ends    uint8
	spilled bool
	dead    bool
	used    bool // the slot holds a query, live or dead
	topk    bool // the definition is in Index.topk
}

const inlineTerms = 3

// entry is one (cell, term) of the inverted index.
type entry struct {
	term uint32 // 0 marks an empty table position
	// ref is the slot number of a single posting, or listBit|i for the
	// postings in Index.lists[i].
	ref  uint32
	hits uint32 // objects that hit this list in the current window
}

const listBit = 1 << 31

type cell struct {
	// tab is a linear-probing table, a power of two in size and at most
	// three quarters full; removal shifts back, so there are no
	// tombstones. The top bits of term*hashMul index it.
	tab     []entry
	shift   uint8
	keys    int32 // occupied positions of tab
	entries int32 // postings, dead ones included until they are dropped
	objSeen int64 // objects matched against this cell in the current window
}

const hashMul = 0x9E3779B1

// New returns an empty index over bounds with granularity×granularity
// cells, using stats to select least-frequent keywords. A nil stats uses
// empty statistics (all terms equally infrequent, ties broken
// lexicographically).
func New(bounds geo.Rect, granularity int, stats *textutil.Stats) *Index {
	if stats == nil {
		stats = textutil.NewStats()
	}
	g := grid.New(bounds, granularity, granularity)
	return &Index{
		g:     g,
		stats: stats,
		cells: make([]cell, g.NumCells()),
		dict:  make(map[string]uint32),
		terms: []string{""},
		topk:  make(map[uint32]*model.Query),
		byID:  make(map[uint64]uint32),
	}
}

// Grid exposes the underlying grid (shared geometry with the dispatcher).
func (ix *Index) Grid() *grid.Grid { return ix.g }

// RegistrationKeys returns the distinct least-frequent keywords, one per
// conjunction of q, under which the query is indexed. It delegates to
// textutil.Stats.RegistrationKeys so dispatchers and workers share one
// rule.
func RegistrationKeys(q *model.Query, stats *textutil.Stats) []string {
	return stats.RegistrationKeys(q.Expr.Conj)
}

// Insert registers q in every cell its region overlaps. An id that was
// deleted (or never seen) gets a slot of its own, so the new definition
// is the only one that matches from here on even while entries of the
// deleted one are still waiting to be dropped. An id that is live keeps
// its stored definition and only gains the (cell, key) entries it lacks.
func (ix *Index) Insert(q *model.Query) {
	s, fresh, ok := ix.slotFor(q)
	if !ok {
		return
	}
	ix.g.VisitOverlapping(q.Region, func(cellID int) { ix.insertAt(cellID, s, fresh) })
}

// InsertAt registers q in a single cell only. It is used when migrating a
// cell between workers: the receiving worker becomes responsible for
// exactly that cell's share of the query. Entries the cell already holds
// for the live query are skipped, so installing a share twice is
// harmless.
func (ix *Index) InsertAt(cellID int, q *model.Query) {
	if s, fresh, ok := ix.slotFor(q); ok {
		ix.insertAt(cellID, s, fresh)
	}
}

// slotFor returns the slot q's entries are to name, leaving q's
// registration keys in ix.keyIDs. fresh reports that the slot was taken
// for this call, so no posting can name it yet. ok is false for a query
// with no keyword to register under, which is not indexed.
func (ix *Index) slotFor(q *model.Query) (s uint32, fresh, ok bool) {
	keys := RegistrationKeys(q, ix.stats)
	if len(keys) == 0 {
		return 0, false, false
	}
	ix.keyIDs = ix.keyIDs[:0]
	for _, k := range keys {
		ix.keyIDs = append(ix.keyIDs, ix.termID(k))
	}
	if s, held := ix.byID[q.ID]; held && !ix.slots[s].dead {
		return s, false, true
	}
	if n := len(ix.free); n > 0 {
		s = ix.free[n-1]
		ix.free = ix.free[:n-1]
	} else {
		s = uint32(len(ix.slots))
		ix.slots = append(ix.slots, slot{})
		ix.subs = append(ix.subs, 0)
	}
	sl := &ix.slots[s]
	*sl = slot{region: q.Region, id: q.ID, used: true}
	ix.compile(sl, q.Expr.Conj)
	ix.subs[s] = q.Subscriber
	if q.TopK != 0 || q.Window != 0 {
		sl.topk = true
		ix.topk[s] = q
	}
	ix.byID[q.ID] = s
	ix.live++
	return s, true, true
}

// termID returns the dictionary id of a query term, assigning the next
// one to a term not seen before.
func (ix *Index) termID(t string) uint32 {
	id, ok := ix.dict[t]
	if !ok {
		id = uint32(len(ix.terms))
		ix.terms = append(ix.terms, t)
		ix.dict[t] = id
	}
	return id
}

// compile stores the expression in sl as term ids: inline when it has at
// most inlineTerms terms in all and no empty conjunction, else in spill.
func (ix *Index) compile(sl *slot, conj [][]string) {
	total := 0
	inline := true
	for _, c := range conj {
		total += len(c)
		inline = inline && len(c) > 0
	}
	if inline && total <= inlineTerms {
		i := 0
		for _, c := range conj {
			for _, t := range c {
				sl.expr[i] = ix.termID(t)
				i++
			}
			sl.ends |= 1 << (i - 1)
		}
		return
	}
	ix.compactSpill()
	sl.spilled = true
	sl.expr[0] = uint32(len(ix.spill))
	for _, c := range conj {
		ix.spill = append(ix.spill, uint32(len(c)))
		for _, t := range c {
			ix.spill = append(ix.spill, ix.termID(t))
		}
	}
	sl.expr[1] = uint32(len(ix.spill)) - sl.expr[0]
}

// compactSpill squeezes out the encodings of freed slots once they are
// more than half of spill.
func (ix *Index) compactSpill() {
	if ix.spillDead*2 <= len(ix.spill) {
		return
	}
	packed := make([]uint32, 0, len(ix.spill)-ix.spillDead)
	for s := range ix.slots {
		sl := &ix.slots[s]
		if !sl.used || !sl.spilled {
			continue
		}
		off := uint32(len(packed))
		packed = append(packed, ix.spill[sl.expr[0]:sl.expr[0]+sl.expr[1]]...)
		sl.expr[0] = off
	}
	ix.spill, ix.spillDead = packed, 0
}

// matches reports whether the object's term ids satisfy the slot's
// expression: some conjunction has all of its terms among them.
func (ix *Index) matches(sl *slot, obj []uint32) bool {
	if sl.spilled {
		enc := ix.spill[sl.expr[0] : sl.expr[0]+sl.expr[1]]
		for len(enc) > 0 {
			n := int(enc[0])
			if containsAll(obj, enc[1:1+n]) {
				return true
			}
			enc = enc[1+n:]
		}
		return false
	}
	ok := true
	for i := 0; sl.ends>>i != 0; i++ {
		ok = ok && slices.Contains(obj, sl.expr[i])
		if sl.ends>>i&1 != 0 {
			if ok {
				return true
			}
			ok = true
		}
	}
	return false
}

func containsAll(ids, want []uint32) bool {
	for _, id := range want {
		if !slices.Contains(ids, id) {
			return false
		}
	}
	return true
}

// encoding returns the slot's expression in the spill encoding, writing
// an inline one into ix.enc.
func (ix *Index) encoding(sl *slot) []uint32 {
	if sl.spilled {
		return ix.spill[sl.expr[0] : sl.expr[0]+sl.expr[1]]
	}
	enc, start := ix.enc[:0], 0
	for i := 0; sl.ends>>i != 0; i++ {
		if sl.ends>>i&1 != 0 {
			enc = append(enc, uint32(i+1-start))
			enc = append(enc, sl.expr[start:i+1]...)
			start = i + 1
		}
	}
	return enc
}

// rebuild sets q to the definition slot s holds, which has no top-k
// fields, appending the conjunctions to conj and their terms to terms,
// and returns terms. An empty conjunction comes back nil, as
// model.Expr.Clone returns it.
func (ix *Index) rebuild(q *model.Query, s uint32, conj [][]string, terms []string) []string {
	sl := &ix.slots[s]
	enc := ix.encoding(sl)
	n := 0
	for e := enc; len(e) > 0; e = e[1+e[0]:] {
		n++
	}
	conj = slices.Grow(conj, n)
	terms = slices.Grow(terms, len(enc)-n)
	for len(enc) > 0 {
		k := int(enc[0])
		var c []string
		if k > 0 {
			at := len(terms)
			for _, id := range enc[1 : 1+k] {
				terms = append(terms, ix.terms[id])
			}
			c = terms[at:len(terms):len(terms)]
		}
		conj = append(conj, c)
		enc = enc[1+k:]
	}
	*q = model.Query{ID: sl.id, Expr: model.Expr{Conj: conj}, Region: sl.region, Subscriber: ix.subs[s]}
	return terms
}

// viewOf returns slot s's definition as Match passes it: a top-k
// subscription's stored one, else ix.view refilled, which is valid until
// the next call.
func (ix *Index) viewOf(s uint32) *model.Query {
	if ix.slots[s].topk {
		return ix.topk[s]
	}
	ix.viewTerms = ix.rebuild(&ix.view, s, ix.view.Expr.Conj[:0], ix.viewTerms[:0])
	return &ix.view
}

// newQuery returns slot s's definition for the caller to keep: a top-k
// subscription's stored one, else a fresh copy.
func (ix *Index) newQuery(s uint32) *model.Query {
	if ix.slots[s].topk {
		return ix.topk[s]
	}
	q := new(model.Query)
	ix.rebuild(q, s, nil, nil)
	return q
}

// insertAt adds slot s to the cell's postings under each key in
// ix.keyIDs. Unless the slot is fresh, a posting that is already there is
// left alone.
func (ix *Index) insertAt(cellID int, s uint32, fresh bool) {
	c := &ix.cells[cellID]
	for _, k := range ix.keyIDs {
		if i := c.find(k); i < 0 {
			c.put(entry{term: k, ref: s})
		} else if e := &c.tab[i]; e.ref&listBit != 0 {
			li := e.ref &^ listBit
			if !fresh && slices.Contains(ix.lists[li], s) {
				continue
			}
			ix.lists[li] = append(ix.lists[li], s)
		} else {
			if !fresh && e.ref == s {
				continue
			}
			e.ref = listBit | ix.newList(e.ref, s)
		}
		c.entries++
		ix.entries++
		ix.slots[s].refs++
	}
}

// newList stores a two-posting list and returns its number.
func (ix *Index) newList(a, b uint32) uint32 {
	if n := len(ix.freeLists); n > 0 {
		li := ix.freeLists[n-1]
		ix.freeLists = ix.freeLists[:n-1]
		ix.lists[li] = append(ix.lists[li], a, b)
		return li
	}
	ix.lists = append(ix.lists, []uint32{a, b})
	return uint32(len(ix.lists) - 1)
}

// freeList releases list li's postings and makes its number reusable.
func (ix *Index) freeList(li uint32) {
	ix.lists[li] = nil
	ix.freeLists = append(ix.freeLists, li)
}

// postings returns the slot numbers of e as a slice the caller may
// compact in place; a single posting is viewed through ix.one.
func (ix *Index) postings(e *entry) []uint32 {
	if e.ref&listBit != 0 {
		return ix.lists[e.ref&^listBit]
	}
	ix.one[0] = e.ref
	return ix.one[:]
}

// setPostings makes kept — a prefix of what postings returned for the
// entry at position i, some postings having been dropped — the entry's
// postings, removing the entry when nothing is kept.
func (ix *Index) setPostings(c *cell, i int, kept []uint32) {
	e := &c.tab[i]
	if e.ref&listBit != 0 {
		li := e.ref &^ listBit
		if len(kept) > 0 {
			ix.lists[li] = kept
			return
		}
		ix.freeList(li)
	}
	c.remove(i)
}

// dropPosting accounts for one posting of slot s leaving cell c, and
// frees the slot with its last posting.
func (ix *Index) dropPosting(c *cell, s uint32) {
	c.entries--
	ix.entries--
	sl := &ix.slots[s]
	if sl.refs--; sl.refs > 0 {
		return
	}
	if sl.dead {
		ix.dead--
	} else {
		ix.live--
	}
	if sl.spilled {
		ix.spillDead += int(sl.expr[1])
	}
	if ix.byID[sl.id] == s {
		delete(ix.byID, sl.id)
	}
	if sl.topk {
		delete(ix.topk, s)
	}
	sl.used = false
	ix.free = append(ix.free, s)
}

// Delete lazily removes the query: one lookup finds its slot and sets
// the dead bit, after which it matches nothing and no accessor returns
// it. Its entries stay in the lists until Match or Purge next traverses
// them (§IV-D), and the slot is reused once the last is gone.
func (ix *Index) Delete(id uint64) {
	s, ok := ix.byID[id]
	if !ok || ix.slots[s].dead {
		return
	}
	ix.slots[s].dead = true
	ix.live--
	ix.dead++
}

// Match finds all live queries matching o and invokes fn once per query.
// Dead entries encountered on the traversed lists are removed, which
// implements lazy deletion. For a boolean subscription fn receives a view
// the index owns and refills for the next match: it is valid until fn
// returns, and fn must not modify it. A top-k subscription is passed as
// the definition that was inserted.
func (ix *Index) Match(o *model.Object, fn func(q *model.Query)) {
	c := &ix.cells[ix.g.CellOf(o.Loc)]
	c.objSeen++
	if c.keys == 0 {
		return
	}
	ids := ix.objIDs[:0]
	for _, t := range o.Terms {
		if id, ok := ix.dict[t]; ok {
			ids = append(ids, id)
		}
	}
	ix.objIDs = ids
	ix.hit = ix.hit[:0]
	for _, t := range ids {
		i := c.find(t)
		if i < 0 {
			continue
		}
		e := &c.tab[i]
		if e.hits++; e.hits == 0 {
			e.hits-- // saturate
		}
		list := ix.postings(e)
		w := 0
		for _, s := range list {
			sl := &ix.slots[s]
			if sl.dead {
				ix.dropPosting(c, s)
				continue
			}
			list[w] = s
			w++
			if sl.region.Contains(o.Loc) && ix.matches(sl, ids) && !slices.Contains(ix.hit, s) {
				ix.hit = append(ix.hit, s)
				fn(ix.viewOf(s))
			}
		}
		if w < len(list) {
			ix.setPostings(c, i, list[:w])
		}
	}
}

// MatchIDs returns the matching query ids (convenience for tests).
func (ix *Index) MatchIDs(o *model.Object) []uint64 {
	var out []uint64
	ix.Match(o, func(q *model.Query) { out = append(out, q.ID) })
	return out
}

// Purge eagerly removes all dead entries from every list. It is the
// eager-deletion side of BenchmarkAblationLazyVsEagerDeletion (bench_test.go
// at the module root) and is also used before migration so extracted cells
// contain only live queries.
func (ix *Index) Purge() {
	for ci := range ix.cells {
		if ix.dead == 0 {
			return
		}
		c := &ix.cells[ci]
		// A removal shifts later entries back, possibly into position i,
		// so i advances only past an entry that stays.
		for i := 0; i < len(c.tab); {
			e := &c.tab[i]
			if e.term == 0 {
				i++
				continue
			}
			list := ix.postings(e)
			w := 0
			for _, s := range list {
				if ix.slots[s].dead {
					ix.dropPosting(c, s)
					continue
				}
				list[w] = s
				w++
			}
			if w < len(list) {
				ix.setPostings(c, i, list[:w])
			}
			if w > 0 {
				i++
			}
		}
	}
}

// QueryCount returns the number of distinct queries the index stores.
// A deleted query counts until its last entry has been dropped.
func (ix *Index) QueryCount() int { return ix.live + ix.dead }

// LiveQueryCount returns distinct queries excluding deleted ones.
func (ix *Index) LiveQueryCount() int { return ix.live }

// EntryCount returns the number of (cell, term, query) entries.
func (ix *Index) EntryCount() int { return ix.entries }

// CellStat summarises one cell for load accounting and migration
// (Definition 3: L_g = n_o · n_q).
type CellStat struct {
	CellID  int
	Entries int
	// ObjSeen is n_o: objects matched against the cell this window.
	ObjSeen int64
	// Load is L_g = n_o · n_q.
	Load float64
	// SizeBytes is S_g: the total serialised size of the cell's distinct
	// live queries, each counted once however many keys it is registered
	// under — what QueriesInCell would ship.
	SizeBytes int64
}

// CellStats returns statistics for every non-empty cell.
func (ix *Index) CellStats() []CellStat {
	var out []CellStat
	for i := range ix.cells {
		c := &ix.cells[i]
		if c.entries == 0 && c.objSeen == 0 {
			continue
		}
		var size int64
		ix.gatherCell(c)
		ix.eachGathered(func(s uint32) { size += int64(ix.viewOf(s).SizeBytes()) })
		out = append(out, CellStat{
			CellID:    i,
			Entries:   int(c.entries),
			ObjSeen:   c.objSeen,
			Load:      float64(c.objSeen) * float64(c.entries),
			SizeBytes: size,
		})
	}
	return out
}

// ResetWindow zeroes the per-cell object and term-hit counters, starting a
// new load measurement window.
func (ix *Index) ResetWindow() {
	for i := range ix.cells {
		c := &ix.cells[i]
		c.objSeen = 0
		for j := range c.tab {
			c.tab[j].hits = 0
		}
	}
}

// TermStat describes one registration key within a cell: live queries
// registered under it and object hits on its inverted list this window.
type TermStat struct {
	Term    string
	Queries int
	ObjHits int64
}

// CellTermStats returns per-key statistics for a cell, sorted by term.
func (ix *Index) CellTermStats(cellID int) []TermStat {
	c := &ix.cells[cellID]
	out := make([]TermStat, 0, c.keys)
	for i := range c.tab {
		e := &c.tab[i]
		if e.term == 0 {
			continue
		}
		live := 0
		for _, s := range ix.postings(e) {
			if !ix.slots[s].dead {
				live++
			}
		}
		if live == 0 {
			continue
		}
		out = append(out, TermStat{Term: ix.terms[e.term], Queries: live, ObjHits: int64(e.hits)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Term < out[j].Term })
	return out
}

// ExtractCellKeys removes and returns the distinct live queries registered
// in the cell under the given registration keys, leaving other keys'
// entries in place. It is the extraction half of a Phase I text split.
func (ix *Index) ExtractCellKeys(cellID int, keys []string) []*model.Query {
	c := &ix.cells[cellID]
	ix.gather = ix.gather[:0]
	for _, k := range keys {
		if i := c.find(ix.dict[k]); i >= 0 {
			ix.gather = append(ix.gather, ix.postings(&c.tab[i])...)
			ix.setPostings(c, i, nil)
		}
	}
	return ix.takeGathered(c)
}

// ExtractCell removes and returns the distinct live queries registered in
// the cell. Used as the unit of migration ("The queries are migrated in
// the unit of one cell in the gridt index", §V-A).
func (ix *Index) ExtractCell(cellID int) []*model.Query {
	c := &ix.cells[cellID]
	ix.gather = ix.gather[:0]
	for i := range c.tab {
		e := &c.tab[i]
		if e.term == 0 {
			continue
		}
		ix.gather = append(ix.gather, ix.postings(e)...)
		if e.ref&listBit != 0 {
			ix.freeList(e.ref &^ listBit)
		}
	}
	c.tab, c.keys = nil, 0
	return ix.takeGathered(c)
}

// takeGathered finishes an extraction: ix.gather holds the postings
// already unlinked from cell c. It returns their distinct live queries
// and lets go of the slots.
func (ix *Index) takeGathered(c *cell) []*model.Query {
	out := ix.gathered()
	for _, s := range ix.gather {
		ix.dropPosting(c, s)
	}
	return out
}

// gathered returns the distinct live queries among the slot numbers in
// ix.gather, which it sorts.
func (ix *Index) gathered() []*model.Query {
	var out []*model.Query
	ix.eachGathered(func(s uint32) { out = append(out, ix.newQuery(s)) })
	return out
}

// eachGathered sorts ix.gather and calls fn once per distinct live slot
// number in it.
func (ix *Index) eachGathered(fn func(s uint32)) {
	slices.Sort(ix.gather)
	for i, s := range ix.gather {
		if (i == 0 || s != ix.gather[i-1]) && !ix.slots[s].dead {
			fn(s)
		}
	}
}

// gatherCell sets ix.gather to every posting of cell c.
func (ix *Index) gatherCell(c *cell) {
	ix.gather = ix.gather[:0]
	for i := range c.tab {
		if c.tab[i].term != 0 {
			ix.gather = append(ix.gather, ix.postings(&c.tab[i])...)
		}
	}
}

// QueriesInCell returns the distinct live queries in the cell without
// removing them.
func (ix *Index) QueriesInCell(cellID int) []*model.Query {
	ix.gatherCell(&ix.cells[cellID])
	return ix.gathered()
}

// QueriesInCellKeys returns the distinct live queries registered in the
// cell under the given registration keys, without removing them (the
// copy-before-flip half of a migration).
func (ix *Index) QueriesInCellKeys(cellID int, keys []string) []*model.Query {
	c := &ix.cells[cellID]
	ix.gather = ix.gather[:0]
	for _, k := range keys {
		if i := c.find(ix.dict[k]); i >= 0 {
			ix.gather = append(ix.gather, ix.postings(&c.tab[i])...)
		}
	}
	return ix.gathered()
}

// HasLive reports whether the query id is stored and not deleted.
func (ix *Index) HasLive(id uint64) bool {
	s, ok := ix.byID[id]
	return ok && !ix.slots[s].dead
}

// Get returns the stored definition of a live query, or nil. It equals
// the inserted definition field for field; a boolean subscription's is
// rebuilt for this call, so it is not the pointer that was inserted.
func (ix *Index) Get(id uint64) *model.Query {
	if s, ok := ix.byID[id]; ok && !ix.slots[s].dead {
		return ix.newQuery(s)
	}
	return nil
}

// Each invokes fn once per live (not deleted) query, in unspecified
// order, with a definition built as Get builds it. It satisfies the
// qindex.Index contract (checkpointing).
func (ix *Index) Each(fn func(q *model.Query)) {
	for s := range ix.slots {
		if sl := &ix.slots[s]; sl.used && !sl.dead {
			fn(ix.newQuery(uint32(s)))
		}
	}
}

// LiveQueryIDs returns the ids of all live (not deleted) queries.
func (ix *Index) LiveQueryIDs() []uint64 {
	out := make([]uint64, 0, ix.live)
	ix.Each(func(q *model.Query) { out = append(out, q.ID) })
	return out
}

// Approximate heap cost of one entry of a Go map with the given key and
// value sizes: the slot, its control byte, and the share of slots a table
// between two doublings leaves empty.
const mapSlack = 1.75

func mapEntryBytes(key, val uintptr) int64 {
	return int64(float64(key+val+1) * mapSlack)
}

// Footprint is the resident memory of the index in bytes, from the
// lengths and capacities of the structures it is made of: slots,
// subscribers and the id map, the term dictionary, every cell's table,
// the posting lists, and the top-k definitions (struct, conjunction
// headers, term headers and bytes), which the window store holds too but
// does not count. A boolean subscription has no storage beyond its slot
// and its terms. This drives the worker-memory comparison (Figure 10).
func (ix *Index) Footprint() int64 {
	const (
		word      = unsafe.Sizeof(uint32(0))
		strHeader = unsafe.Sizeof("")
		header    = unsafe.Sizeof([]string(nil)) // any slice header
	)
	b := int64(unsafe.Sizeof(*ix))
	add := func(n int, each uintptr) { b += int64(n) * int64(each) }
	add(cap(ix.cells), unsafe.Sizeof(cell{}))
	add(cap(ix.slots), unsafe.Sizeof(slot{}))
	add(cap(ix.subs), unsafe.Sizeof(uint64(0)))
	add(cap(ix.free)+cap(ix.spill)+cap(ix.freeLists), word)
	b += int64(len(ix.byID)) * mapEntryBytes(unsafe.Sizeof(uint64(0)), word)
	b += int64(len(ix.topk)) * mapEntryBytes(word, unsafe.Sizeof((*model.Query)(nil)))
	b += int64(len(ix.dict)) * mapEntryBytes(strHeader, word)
	add(cap(ix.terms), strHeader)
	for _, t := range ix.terms {
		add(len(t), 1)
	}
	for i := range ix.cells {
		add(cap(ix.cells[i].tab), unsafe.Sizeof(entry{}))
	}
	add(cap(ix.lists), header)
	for _, l := range ix.lists {
		add(cap(l), word)
	}
	for _, q := range ix.topk {
		add(1, unsafe.Sizeof(*q))
		add(cap(q.Expr.Conj), header)
		for _, c := range q.Expr.Conj {
			add(cap(c), strHeader)
			for _, t := range c {
				add(len(t), 1)
			}
		}
	}
	return b
}

// find returns the position of term's entry in the cell's table, or -1.
func (c *cell) find(term uint32) int {
	if c.keys == 0 || term == 0 {
		return -1
	}
	mask := uint32(len(c.tab) - 1)
	for i := (term * hashMul) >> c.shift; ; i = (i + 1) & mask {
		switch c.tab[i].term {
		case term:
			return int(i)
		case 0:
			return -1
		}
	}
}

// put adds an entry for a term the table does not hold, growing the
// table first if that would fill more than three quarters of it.
func (c *cell) put(e entry) {
	if int(c.keys+1)*4 > len(c.tab)*3 {
		old := c.tab
		size := max(4, 2*len(old))
		c.tab = make([]entry, size)
		c.shift = uint8(32 - bits.TrailingZeros(uint(size)))
		c.keys = 0
		for _, o := range old {
			if o.term != 0 {
				c.put(o)
			}
		}
	}
	mask := uint32(len(c.tab) - 1)
	i := (e.term * hashMul) >> c.shift
	for c.tab[i].term != 0 {
		i = (i + 1) & mask
	}
	c.tab[i] = e
	c.keys++
}

// remove empties position i and closes the gap: every later entry of the
// same run of occupied positions whose probe sequence passes through the
// gap moves back into it. The table is released with its last entry.
func (c *cell) remove(i int) {
	if c.keys--; c.keys == 0 {
		c.tab = nil
		return
	}
	mask := uint32(len(c.tab) - 1)
	gap := uint32(i)
	for j := (gap + 1) & mask; c.tab[j].term != 0; j = (j + 1) & mask {
		// The entry at j may move to the gap only if the gap lies on its
		// probe sequence, that is between its home and j.
		if home := (c.tab[j].term * hashMul) >> c.shift; (j-home)&mask >= (j-gap)&mask {
			c.tab[gap] = c.tab[j]
			gap = j
		}
	}
	c.tab[gap] = entry{}
}
