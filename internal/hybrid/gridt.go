package hybrid

import (
	"hash/fnv"
	"math/bits"
	"reflect"
	"sort"
	"sync"
	"unsafe"

	"ps2stream/internal/geo"
	"ps2stream/internal/index/grid"
	"ps2stream/internal/model"
	"ps2stream/internal/partition"
	"ps2stream/internal/termtab"
	"ps2stream/internal/textutil"
)

// GridT is the dispatcher-side index of §IV-C: a uniform grid where each
// cell carries two hash maps, H1 (the complete term partition: term →
// worker) and H2 (registration keys of live queries → worker). Cells
// covered by a space-partitioned kdt-tree leaf store a single worker and
// no H1; cells under text-partitioned leaves resolve terms through H1
// with a deterministic hash fallback for unseen terms.
//
// A query is registered under the first term of each conjunction, where
// the dispatcher put its least frequent term (textutil.Stats.KeyFirst).
//
// Layout. H1 is a string map, and only text cells have one. H2 is keyed
// by term id: every registration key a query is inserted under is
// interned in one dictionary for the whole grid (termtab.Dict), and each
// cell's H2 is a termtab.Table from key id to {worker, count} with
// 12-byte entries, the same table GI2 uses for its cells. A cell with no
// live key holds no table array. The dictionary only grows. It is the
// grid's own, holding one string per distinct registration key ever
// inserted, until UseDict hands the grid its coordinator's, which every
// GI2 of the coordinator's process shares too. RouteObjectIDs routes by
// the ids of an object's terms in that dictionary, looked up once by the
// caller; RouteObject looks them up itself. A term without an id is no
// live key anywhere.
//
// Locking. A cell is guarded by its stripe of mus. The dictionary needs
// no lock of the grid's (termtab.Dict is safe for concurrent use, and a
// lookup takes no lock at all), so RouteObject holds nothing but its
// cell's stripe: a read lock that every dispatcher shared on every
// object would cost more than the string maps it replaces. RouteQuery
// adds its keys to the dictionary before it takes any stripe.
//
// GridT implements partition.Assignment and additionally supports the cell
// mutations required by dynamic load adjustment (§V): reassigning a space
// cell, reassigning a worker's text share, splitting a space cell by text,
// and merging text shares.
type GridT struct {
	m int
	g *grid.Grid

	// mus stripes the cell locks: a cell's lock is mus[cell % lockStripes],
	// so the dispatcher's routing and a migration's cell changes rarely
	// contend.
	mus   [lockStripes]sync.RWMutex
	cells []gridtCell

	// dict gives registration keys their H2 ids. ownDict is false once
	// UseDict has shared the coordinator's, which its owner counts.
	dict    *termtab.Dict
	ownDict bool
}

// lockStripes is the number of lock stripes (power of two).
const lockStripes = 64

// lockFor returns the stripe lock guarding the cell.
func (gt *GridT) lockFor(cell int) *sync.RWMutex {
	return &gt.mus[cell&(lockStripes-1)]
}

type gridtCell struct {
	// worker is the owning worker for space cells, or -1 for text cells.
	worker int
	// h1 maps terms to workers for text cells. It may be shared between
	// cells built from the same kdt-tree leaf; sharedH1 marks it
	// copy-on-write.
	h1       map[string]int
	sharedH1 bool
	// fallback lists the candidate workers for terms absent from h1,
	// indexed by hash (text cells only).
	fallback []int
	// h2 maps the dictionary id of each live registration key to the
	// worker it routes to and the number of registrations behind it.
	h2 termtab.Table[h2Entry]
}

type h2Entry struct {
	worker uint32
	count  uint32 // > 0: a key's entry goes with its last registration
}

var _ partition.Assignment = (*GridT)(nil)

// buildGridT rasterises the final units onto the gridt index.
func buildGridT(s *partition.Sample, m int, cfg Config, units []*unit, owners []int) *GridT {
	g := grid.New(s.Bounds, cfg.Granularity, cfg.Granularity)
	gt := &GridT{m: m, g: g, cells: make([]gridtCell, g.NumCells()),
		dict: new(termtab.Dict), ownDict: true}

	// Precompute shared H1 maps per sibling group of text units.
	type groupInfo struct {
		h1       map[string]int
		fallback []int
	}
	groups := make(map[*unit]*groupInfo) // keyed by first sibling
	ownerOf := make(map[*unit]int, len(units))
	for i, u := range units {
		ownerOf[u] = owners[i]
	}
	groupFor := func(u *unit) *groupInfo {
		sibs := u.siblings
		if len(sibs) == 0 {
			sibs = []*unit{u}
		}
		key := sibs[0]
		if gi, ok := groups[key]; ok {
			return gi
		}
		gi := &groupInfo{h1: make(map[string]int)}
		for _, sib := range sibs {
			w, ok := ownerOf[sib]
			if !ok {
				continue // sibling replaced by a later split; its children carry the keys
			}
			for k := range sib.keys {
				gi.h1[k] = w
			}
			gi.fallback = append(gi.fallback, w)
		}
		sort.Ints(gi.fallback)
		groups[key] = gi
		return gi
	}

	for id := 0; id < g.NumCells(); id++ {
		center := g.CellRect(id).Center()
		var covering []*unit
		for _, u := range units {
			if u.bounds.Contains(center) {
				covering = append(covering, u)
			}
		}
		c := &gt.cells[id]
		c.worker = 0
		if len(covering) == 0 {
			// Float edge case: snap to the nearest unit.
			best, bestD := 0, -1.0
			for i, u := range units {
				d := rectDist(u.bounds, center)
				if bestD < 0 || d < bestD {
					best, bestD = i, d
				}
			}
			covering = []*unit{units[best]}
		}
		// Smallest-area covering units are the authoritative leaves
		// (same-bounds text siblings tie; a boundary-adjacent larger
		// node loses).
		minArea := covering[0].bounds.Area()
		for _, u := range covering[1:] {
			if a := u.bounds.Area(); a < minArea {
				minArea = a
			}
		}
		var leaves []*unit
		for _, u := range covering {
			if u.bounds.Area() <= minArea+1e-12 {
				leaves = append(leaves, u)
			}
		}
		if len(leaves) == 1 && !leaves[0].isText() {
			c.worker = ownerOf[leaves[0]]
			continue
		}
		// Text cell: merge the H1 info of every covering text group. The
		// common case is a single group, whose H1 map is shared across
		// all the leaf's cells (copy-on-write on later mutation).
		c.worker = -1
		seen := map[*groupInfo]bool{}
		var gis []*groupInfo
		var fb []int
		for _, u := range leaves {
			if !u.isText() {
				// A space leaf sharing bounds with text leaves should
				// not occur; treat its owner as a fallback route.
				fb = append(fb, ownerOf[u])
				continue
			}
			gi := groupFor(u)
			if seen[gi] {
				continue
			}
			seen[gi] = true
			gis = append(gis, gi)
			fb = append(fb, gi.fallback...)
		}
		switch len(gis) {
		case 0:
			c.h1 = map[string]int{}
		case 1:
			c.h1 = gis[0].h1
			c.sharedH1 = true
		default:
			merged := make(map[string]int)
			for _, gi := range gis {
				for k, w := range gi.h1 {
					merged[k] = w
				}
			}
			c.h1 = merged
		}
		if len(fb) == 0 {
			fb = []int{0}
		}
		sort.Ints(fb)
		c.fallback = fb
	}
	return gt
}

func rectDist(r geo.Rect, p geo.Point) float64 {
	dx := 0.0
	if p.X < r.Min.X {
		dx = r.Min.X - p.X
	} else if p.X > r.Max.X {
		dx = p.X - r.Max.X
	}
	dy := 0.0
	if p.Y < r.Min.Y {
		dy = r.Min.Y - p.Y
	} else if p.Y > r.Max.Y {
		dy = p.Y - r.Max.Y
	}
	return dx*dx + dy*dy
}

// ownerOfTerm resolves a term in a text cell: H1 first, then the hash
// fallback over the cell's worker list. Caller holds the lock.
func (c *gridtCell) ownerOfTerm(term string) int {
	if w, ok := c.h1[term]; ok {
		return w
	}
	h := fnv.New32a()
	h.Write([]byte(term))
	return c.fallback[int(h.Sum32())%len(c.fallback)]
}

// UseDict makes d the grid's dictionary: the coordinator's, which it
// shares with the GI2 indexes of its process and counts once in its own
// footprint. Call it on a grid fresh from Build, before it routes any
// query: H2 keys already registered would keep ids of the old
// dictionary.
func (gt *GridT) UseDict(d *termtab.Dict) {
	if d != gt.dict {
		gt.dict, gt.ownDict = d, false
	}
}

// RouteObject implements partition.Assignment. Per §IV-C the dispatcher
// looks the object's terms up in the cell's H2 and discards objects
// matching no live registration key. Callers must not modify the result:
// a single-worker answer is a slice shared by every call.
//
// In a space cell every live H2 entry names the cell's worker (RouteQuery
// installs c.worker, ReassignSpaceCell rewrites every entry, and no
// mutation turns a text cell back into a space cell: Phase I merges text
// shares with ReassignTextShare), so the first live term decides, and the
// terms after it are not looked up.
func (gt *GridT) RouteObject(o *model.Object) []int {
	id := gt.g.CellOf(o.Loc)
	var mask uint64
	mu := gt.lockFor(id)
	mu.RLock()
	c := &gt.cells[id]
	if c.h2.Len() > 0 {
		for _, t := range o.Terms {
			if i := c.h2.Find(gt.dict.Find(t)); i >= 0 {
				mask |= 1 << c.h2.Entries()[i].Val.worker
				if c.worker >= 0 {
					break
				}
			}
		}
	}
	mu.RUnlock()
	return maskRoute(mask)
}

// NoKeysAt reports whether the cell holding p has no live registration
// key, so that RouteObject discards any object there, whatever its
// terms: a caller that has not read an object's terms yet need not.
func (gt *GridT) NoKeysAt(p geo.Point) bool {
	id := gt.g.CellOf(p)
	mu := gt.lockFor(id)
	mu.RLock()
	defer mu.RUnlock()
	return gt.cells[id].h2.Len() == 0
}

// RouteObjectIDs is RouteObject for a caller that has looked o's terms
// up already: ids are the ids they have in the grid's dictionary (terms
// it does not hold left out).
func (gt *GridT) RouteObjectIDs(o *model.Object, ids []uint32) []int {
	id := gt.g.CellOf(o.Loc)
	var mask uint64
	mu := gt.lockFor(id)
	mu.RLock()
	c := &gt.cells[id]
	if c.h2.Len() > 0 {
		for _, t := range ids {
			if i := c.h2.Find(t); i >= 0 {
				mask |= 1 << c.h2.Entries()[i].Val.worker
				if c.worker >= 0 {
					break
				}
			}
		}
	}
	mu.RUnlock()
	return maskRoute(mask)
}

// maskRoute returns the workers in mask as RouteObject returns them.
func maskRoute(mask uint64) []int {
	if bits.OnesCount64(mask) == 1 {
		return oneWorker[bits.TrailingZeros64(mask)][:]
	}
	return maskToWorkers(mask)
}

// oneWorker[w] backs RouteObject's answer {w}, so that the common object,
// which has one target, costs no allocation.
var oneWorker = func() (t [64][1]int) {
	for w := range t {
		t[w][0] = w
	}
	return t
}()

// RouteQuery implements partition.Assignment. The insertion updates H2 in
// every overlapped cell under the first term of each conjunction;
// deletions decrement it.
func (gt *GridT) RouteQuery(q *model.Query, insert bool) []int {
	var kbuf [4]string
	keys := textutil.FirstTerms(kbuf[:0], q.Expr.Conj)
	var buf [4]uint32
	ids := buf[:0] // a delete's key the dictionary lacks gets 0, which no H2 holds
	for _, k := range keys {
		if insert {
			ids = append(ids, gt.dict.ID(k))
		} else {
			ids = append(ids, gt.dict.Find(k))
		}
	}
	var mask uint64
	gt.g.VisitOverlapping(q.Region, func(id int) {
		mu := gt.lockFor(id)
		mu.Lock()
		defer mu.Unlock()
		c := &gt.cells[id]
		for j, k := range keys {
			i, w := c.route(ids[j], k)
			mask |= 1 << w
			switch {
			case insert && i < 0:
				c.h2.Put(ids[j], h2Entry{worker: uint32(w), count: 1})
			case insert:
				c.h2.Entries()[i].Val.count++
			case i >= 0:
				if e := &c.h2.Entries()[i].Val; e.count > 1 {
					e.count--
				} else {
					c.h2.Remove(i)
				}
			}
		}
	})
	return maskToWorkers(mask)
}

// route returns the position of key id's H2 entry in the cell (-1 if it
// has none) and the worker the key routes to: its entry's, else the
// space cell's, else the text cell's owner of the term. Caller holds the
// lock.
func (c *gridtCell) route(id uint32, key string) (i, w int) {
	if i = c.h2.Find(id); i >= 0 {
		return i, int(c.h2.Entries()[i].Val.worker)
	}
	if c.worker >= 0 {
		return -1, c.worker
	}
	return -1, c.ownerOfTerm(key)
}

func maskToWorkers(mask uint64) []int {
	out := make([]int, 0, bits.OnesCount64(mask))
	for mask != 0 {
		w := bits.TrailingZeros64(mask)
		out = append(out, w)
		mask &^= 1 << uint(w)
	}
	return out
}

// NumWorkers implements partition.Assignment.
func (gt *GridT) NumWorkers() int { return gt.m }

// Name implements partition.Assignment.
func (gt *GridT) Name() string { return "hybrid" }

// Grid exposes the raster geometry (shared with worker GI2 indexes).
func (gt *GridT) Grid() *grid.Grid { return gt.g }

// Dict exposes the dictionary whose ids RouteObjectIDs takes.
func (gt *GridT) Dict() *termtab.Dict { return gt.dict }

// Footprint implements partition.Assignment (Figure 9's dispatcher
// memory): the cells, their H1 maps and fallback lists, every H2 table by
// capacity, and the key dictionary once unless UseDict shared it. H1 maps
// shared between cells are counted once, using the map's runtime
// identity.
func (gt *GridT) Footprint() int64 {
	b := int64(unsafe.Sizeof(*gt)) + int64(cap(gt.cells))*int64(unsafe.Sizeof(gridtCell{}))
	seenH1 := make(map[uintptr]bool)
	for i := range gt.cells {
		mu := gt.lockFor(i)
		mu.RLock()
		c := &gt.cells[i]
		if c.h1 != nil {
			p := reflect.ValueOf(c.h1).Pointer()
			if !seenH1[p] {
				seenH1[p] = true
				for t := range c.h1 {
					b += int64(len(t)) + 24
				}
			}
		}
		b += int64(cap(c.fallback)) * int64(unsafe.Sizeof(0))
		b += c.h2.Footprint()
		mu.RUnlock()
	}
	if gt.ownDict {
		b += gt.dict.Footprint()
	}
	return b
}

// IsTextCell reports whether the cell routes through H1/H2 term maps.
func (gt *GridT) IsTextCell(cellID int) bool {
	mu := gt.lockFor(cellID)
	mu.RLock()
	defer mu.RUnlock()
	return gt.cells[cellID].worker < 0
}

// CellWorkers returns the distinct workers currently serving a cell.
func (gt *GridT) CellWorkers(cellID int) []int {
	mu := gt.lockFor(cellID)
	mu.RLock()
	defer mu.RUnlock()
	c := &gt.cells[cellID]
	if c.worker >= 0 {
		return []int{c.worker}
	}
	var mask uint64
	for _, w := range c.fallback {
		mask |= 1 << uint(w)
	}
	for _, w := range c.h1 {
		mask |= 1 << uint(w)
	}
	for _, e := range c.h2.Entries() {
		if e.Key != 0 {
			mask |= 1 << e.Val.worker
		}
	}
	return maskToWorkers(mask)
}

// ReassignSpaceCell points a space cell at a new worker, returning the
// previous owner. It is the routing half of migrating a space cell; the
// caller moves the corresponding GI2 queries. Calling it on a text cell
// returns -1 without changes.
func (gt *GridT) ReassignSpaceCell(cellID, to int) int {
	mu := gt.lockFor(cellID)
	mu.Lock()
	defer mu.Unlock()
	c := &gt.cells[cellID]
	if c.worker < 0 {
		return -1
	}
	old := c.worker
	c.worker = to
	c.reassignH2(old, to)
	return old
}

// ReassignTextShare moves every term owned by from in a text cell to to
// (H1, fallback slots, and live H2 entries). It returns the number of H2
// keys moved. No-op on space cells.
func (gt *GridT) ReassignTextShare(cellID, from, to int) int {
	mu := gt.lockFor(cellID)
	mu.Lock()
	defer mu.Unlock()
	c := &gt.cells[cellID]
	if c.worker >= 0 {
		return 0
	}
	gt.ensureOwnH1(c)
	for t, w := range c.h1 {
		if w == from {
			c.h1[t] = to
		}
	}
	for i, w := range c.fallback {
		if w == from {
			c.fallback[i] = to
		}
	}
	return c.reassignH2(from, to)
}

// reassignH2 points the cell's H2 entries routed to from at to, and
// returns how many it moved. Caller holds the write lock.
func (c *gridtCell) reassignH2(from, to int) int {
	moved := 0
	tab := c.h2.Entries()
	for i := range tab {
		if e := &tab[i]; e.Key != 0 && int(e.Val.worker) == from {
			e.Val.worker = uint32(to)
			moved++
		}
	}
	return moved
}

// SplitSpaceCellByText converts a space cell into a text cell, moving the
// given registration keys to worker to while everything else stays with
// the previous owner (Phase I of local load adjustment: "after using
// text-partitioning to partition g_s into two new cells g_1 and g_2 ...
// migrate the cell having a smaller size"). Returns the previous owner, or
// -1 if the cell was already text-partitioned.
func (gt *GridT) SplitSpaceCellByText(cellID int, keys []string, to int) int {
	mu := gt.lockFor(cellID)
	mu.Lock()
	defer mu.Unlock()
	c := &gt.cells[cellID]
	if c.worker < 0 {
		return -1
	}
	old := c.worker
	c.worker = -1
	c.h1 = make(map[string]int, len(keys))
	c.sharedH1 = false
	for _, k := range keys {
		c.h1[k] = to
	}
	c.fallback = []int{old}
	for _, k := range keys {
		if i := c.h2.Find(gt.dict.Find(k)); i >= 0 {
			c.h2.Entries()[i].Val.worker = uint32(to)
		}
	}
	return old
}

// H2Keys returns the live registration keys of a cell routed to the given
// worker. Used by migration to extract the matching GI2 entries.
func (gt *GridT) H2Keys(cellID, worker int) []string {
	mu := gt.lockFor(cellID)
	mu.RLock()
	defer mu.RUnlock()
	c := &gt.cells[cellID]
	var out []string
	for _, e := range c.h2.Entries() {
		if e.Key != 0 && int(e.Val.worker) == worker {
			out = append(out, gt.dict.Term(e.Key))
		}
	}
	sort.Strings(out)
	return out
}

// ensureOwnH1 clones a shared H1 map before mutation (copy-on-write).
// Caller holds the write lock.
func (gt *GridT) ensureOwnH1(c *gridtCell) {
	if !c.sharedH1 {
		return
	}
	clone := make(map[string]int, len(c.h1))
	for k, v := range c.h1 {
		clone[k] = v
	}
	c.h1 = clone
	c.sharedH1 = false
}
