package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"ps2stream/internal/hybrid"
	"ps2stream/internal/model"
	"ps2stream/internal/partition"
	"ps2stream/internal/window"
	"ps2stream/internal/wire"
)

// dualAssignment routes with two strategies during a global repartition
// (§V-B): queries registered before the switch are tracked in oldIDs and
// keep routing (and deleting) through the old strategy; new queries use
// the new strategy; objects take the union so no match is lost.
type dualAssignment struct {
	old partition.Assignment
	new partition.Assignment

	mu      sync.Mutex
	oldIDs  map[uint64]struct{}
	initial int
}

var _ partition.Assignment = (*dualAssignment)(nil)

// RouteObject implements partition.Assignment (union of both routes).
func (d *dualAssignment) RouteObject(o *model.Object) []int {
	a := d.old.RouteObject(o)
	b := d.new.RouteObject(o)
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	seen := make(map[int]struct{}, len(a)+len(b))
	out := make([]int, 0, len(a)+len(b))
	for _, w := range a {
		if _, dup := seen[w]; !dup {
			seen[w] = struct{}{}
			out = append(out, w)
		}
	}
	for _, w := range b {
		if _, dup := seen[w]; !dup {
			seen[w] = struct{}{}
			out = append(out, w)
		}
	}
	return out
}

// RouteQuery implements partition.Assignment: insertions go to the new
// strategy; deletions go wherever the insertion went.
func (d *dualAssignment) RouteQuery(q *model.Query, insert bool) []int {
	if insert {
		return d.new.RouteQuery(q, true)
	}
	d.mu.Lock()
	_, isOld := d.oldIDs[q.ID]
	if isOld {
		delete(d.oldIDs, q.ID)
	}
	d.mu.Unlock()
	if isOld {
		return d.old.RouteQuery(q, false)
	}
	return d.new.RouteQuery(q, false)
}

// NumWorkers implements partition.Assignment.
func (d *dualAssignment) NumWorkers() int { return d.new.NumWorkers() }

// Name implements partition.Assignment.
func (d *dualAssignment) Name() string {
	return fmt.Sprintf("dual(%s->%s)", d.old.Name(), d.new.Name())
}

// Footprint implements partition.Assignment: both structures are resident
// during the transition — the paper's "temporary compromise on the system
// performance by maintaining two workload distribution strategies".
func (d *dualAssignment) Footprint() int64 {
	d.mu.Lock()
	n := int64(len(d.oldIDs))
	d.mu.Unlock()
	return d.old.Footprint() + d.new.Footprint() + n*16
}

// remaining returns the live old-strategy query count and the initial
// count at switch time.
func (d *dualAssignment) remaining() (int, int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.oldIDs), d.initial
}

// GlobalRepartition begins a global load adjustment: a fresh assignment is
// built from the sample and installed alongside the current one. The old
// strategy keeps serving pre-existing queries until their population
// decays below finishFraction of its initial size, at which point the
// controller migrates the remainder and retires the old strategy
// (checkGlobalProgress). If the adjustment controller is disabled, call
// FinishGlobalRepartition explicitly.
//
// The start-of-transition snapshot reads each worker's standing
// population with one whole-query ExtractCells round, which covers every
// operation whose Submit returned before the call, and the finish
// relocates queries with InstallCells rounds.
func (s *System) GlobalRepartition(sample *partition.Sample, builder partition.Builder) error {
	if sample == nil {
		return errors.New("core: nil repartition sample")
	}
	if builder == nil {
		builder = s.cfg.Builder
	}
	newAssign, err := builder.Build(sample, s.cfg.Workers)
	if err != nil {
		return fmt.Errorf("core: global repartition build: %w", err)
	}
	s.globalMu.Lock()
	defer s.globalMu.Unlock()
	if s.dual != nil {
		return errors.New("core: global repartition already in progress")
	}
	// Snapshot the live query population: these stay on the old routes.
	// Each slot answers in its stream, behind every insert routed to it
	// before the call.
	oldIDs := make(map[uint64]struct{})
	for _, w := range s.activeWorkerSlots() {
		p, err := s.slotPopulation(w, false)
		if err != nil {
			return fmt.Errorf("core: global repartition snapshot of worker %d: %w", w, err)
		}
		for _, q := range p.Queries {
			oldIDs[q.ID] = struct{}{}
		}
	}
	d := &dualAssignment{
		old:     s.Assignment(),
		new:     newAssign,
		oldIDs:  oldIDs,
		initial: len(oldIDs),
	}
	s.dual = d
	s.assign.Store(assignBox{d})
	return nil
}

// globalFinishFraction is the old-query decay threshold below which the
// transition completes ("When the amount of old STS queries becomes small,
// we conduct the migration and stop the old workload distribution
// strategy").
const globalFinishFraction = 0.1

// checkGlobalProgress finishes an in-flight global repartition once the
// old population has decayed. Called from the adjustment loop.
func (s *System) checkGlobalProgress() {
	s.globalMu.Lock()
	d := s.dual
	s.globalMu.Unlock()
	if d == nil {
		return
	}
	rem, initial := d.remaining()
	if initial == 0 || float64(rem) <= globalFinishFraction*float64(initial) {
		s.FinishGlobalRepartition()
	}
}

// repartView is one worker's standing population at finish time: the
// queries it holds (with their definitions) and the window entries its
// top-k subscriptions' bands hold.
type repartView struct {
	defs map[uint64]*model.Query
	subs map[uint64][]window.Entry
}

// repartBatch accumulates one worker's relocation rounds: whole-query
// installs (wire.WholeQueries payloads, indexed by the worker's own
// placement) and ids to delete from its index.
type repartBatch struct {
	cells   []wire.CellPayload
	adopted []*model.Query
	deletes []uint64
}

// FinishGlobalRepartition migrates the remaining old-strategy queries to
// their new-strategy workers and retires the old assignment. It returns
// the number of queries relocated. Holders are discovered with one
// whole-query ExtractCells round per worker (including each top-k
// subscription's window band), then the relocations are flushed
// as InstallCells rounds whose deltas fold into the top-k board. A
// worker that gives up a top-k subscription is read once more before
// its delete round (carryLate).
func (s *System) FinishGlobalRepartition() int {
	s.globalMu.Lock()
	d := s.dual
	if d == nil {
		s.globalMu.Unlock()
		return 0
	}
	s.dual = nil
	s.globalMu.Unlock()

	d.mu.Lock()
	ids := make([]uint64, 0, len(d.oldIDs))
	for id := range d.oldIDs {
		ids = append(ids, id)
	}
	d.oldIDs = map[uint64]struct{}{}
	d.mu.Unlock()

	// One population round per worker: its population and held top-k
	// window entries at finish time. A worker unreachable this round
	// keeps its population where it is — its connection is failing the
	// run (or entering recovery) anyway, and a half-seen view would
	// misclassify every one of its queries as not-held.
	active := s.activeWorkerSlots()
	views := make(map[int]*repartView, len(active))
	for _, w := range active {
		p, err := s.slotPopulation(w, true)
		if err != nil {
			s.log.Warn("global repartition: worker population round failed; leaving its queries in place",
				"worker", w, "err", err)
			continue
		}
		v := &repartView{
			defs: make(map[uint64]*model.Query, len(p.Queries)),
			subs: make(map[uint64][]window.Entry, len(p.Subs)),
		}
		for _, q := range p.Queries {
			v.defs[q.ID] = q
		}
		for _, se := range p.Subs {
			v.subs[se.ID] = se.Entries
		}
		views[w] = v
	}

	batches := make(map[int]*repartBatch, len(views))
	for w := range views {
		batches[w] = &repartBatch{}
	}
	late := make(map[uint64]*lateCarry)
	moved := 0
	for _, id := range ids {
		// Find a live definition on any holder.
		var def *model.Query
		for _, v := range views {
			if def = v.defs[id]; def != nil {
				break
			}
		}
		if def == nil {
			continue // deleted concurrently
		}
		want := make(map[int]struct{})
		for _, w := range d.new.RouteQuery(def, true) {
			want[w] = struct{}{}
		}
		// The window bands travel with the subscription: every wanted
		// worker adopts the union of its holders' bands, so no entry that
		// can still reach the top-k leaves with a departing holder.
		var carried []window.Entry
		if def.IsTopK() {
			seen := make(map[uint64]struct{})
			late[id] = &lateCarry{want: want, seen: seen}
			for _, v := range views {
				for _, e := range v.subs[id] {
					if _, dup := seen[e.MsgID]; !dup {
						seen[e.MsgID] = struct{}{}
						carried = append(carried, e)
					}
				}
			}
		}
		for w, v := range views {
			_, wanted := want[w]
			_, holds := v.defs[id]
			b := batches[w]
			switch {
			case wanted && !holds:
				p := wire.CellPayload{Cell: wire.WholeQueries, Queries: []*model.Query{def}}
				if len(carried) > 0 {
					p.Subs = []wire.SubEntries{{ID: id, Entries: carried}}
				}
				b.cells = append(b.cells, p)
				b.adopted = append(b.adopted, def)
			case wanted && len(carried) > 0:
				b.cells = append(b.cells, wire.CellPayload{Cell: wire.WholeQueries,
					Subs: []wire.SubEntries{{ID: id, Entries: carried}}})
			case !wanted && holds:
				b.deletes = append(b.deletes, id)
			}
		}
		moved++
	}
	// Flush the relocations: every install before any delete, so a
	// subscription hopping between two workers is never without a holder
	// and a relocation whose top-k membership survives shows subscribers
	// no change.
	for _, w := range active {
		if b := batches[w]; b != nil && len(b.cells) > 0 {
			if _, err := s.installCells(w, wire.InstallCells{Cells: b.cells}); err != nil {
				s.log.Warn("global repartition: install round failed", "worker", w, "err", err)
			}
		}
	}
	s.carryLate(active, batches, late)
	for _, w := range active {
		b := batches[w]
		if b == nil {
			continue
		}
		if len(b.deletes) > 0 {
			if _, err := s.installCells(w, wire.InstallCells{Deletes: b.deletes}); err != nil {
				s.log.Warn("global repartition: delete round failed", "worker", w, "err", err)
			}
		}
		var carried []wire.SubEntries
		for _, p := range b.cells {
			carried = append(carried, p.Subs...)
		}
		// Logged regardless of the rounds' outcome: the new routes are
		// about to go live, so replay must reconstruct the slot as routed.
		s.logAdoptions(w, b.adopted, b.deletes, carried)
	}
	// Install the new strategy as the only route; local adjustment
	// resumes against the new gridt when the new strategy is hybrid.
	s.assign.Store(assignBox{d.new})
	if gt, ok := d.new.(*hybrid.GridT); ok {
		s.gridT.Store(gt)
	}
	return moved
}

// lateCarry is one relocated top-k subscription: its new holders and the
// messages already carried to them.
type lateCarry struct {
	want map[int]struct{}
	seen map[uint64]struct{}
}

// carryLate hands the new holders what joined a departing holder's band
// after its population round: an object routed between that round and
// the installs, which a new holder may have passed by before its
// install. One more population round per departing holder reads those
// entries — it follows every object routed before the installs — and
// objects routed after the installs reach the new holders behind them,
// so nothing later is lost when the holder deletes.
func (s *System) carryLate(active []int, batches map[int]*repartBatch, late map[uint64]*lateCarry) {
	cells := make(map[int][]wire.CellPayload)
	for _, w := range active {
		b := batches[w]
		if b == nil || !slices.ContainsFunc(b.deletes, func(id uint64) bool { return late[id] != nil }) {
			continue
		}
		p, err := s.slotPopulation(w, true)
		if err != nil {
			s.log.Warn("global repartition: departing holder's band round failed", "worker", w, "err", err)
			continue
		}
		for _, se := range p.Subs {
			lc := late[se.ID]
			if lc == nil || !slices.Contains(b.deletes, se.ID) {
				continue
			}
			var es []window.Entry
			for _, e := range se.Entries {
				if _, dup := lc.seen[e.MsgID]; !dup {
					lc.seen[e.MsgID] = struct{}{}
					es = append(es, e)
				}
			}
			for nw := range lc.want {
				if len(es) > 0 && batches[nw] != nil {
					cells[nw] = append(cells[nw], wire.CellPayload{Cell: wire.WholeQueries,
						Subs: []wire.SubEntries{{ID: se.ID, Entries: es}}})
				}
			}
		}
	}
	for _, w := range active {
		if len(cells[w]) == 0 {
			continue
		}
		if _, err := s.installCells(w, wire.InstallCells{Cells: cells[w]}); err != nil {
			s.log.Warn("global repartition: late install round failed", "worker", w, "err", err)
		}
		batches[w].cells = append(batches[w].cells, cells[w]...)
	}
}
