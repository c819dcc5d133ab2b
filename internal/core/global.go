package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"ps2stream/internal/geo"
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
	return union(d.old.RouteObject(o), d.new.RouteObject(o))
}

// NoKeysAt implements termIDRouter: never, so both routes see every
// object.
func (d *dualAssignment) NoKeysAt(geo.Point) bool { return false }

// RouteObjectIDs implements termIDRouter (union of both routes).
func (d *dualAssignment) RouteObjectIDs(o *model.Object, ids []uint32) []int {
	return union(routeByIDs(d.old, o, ids), routeByIDs(d.new, o, ids))
}

// union returns the workers of a and b, each once.
func union(a, b []int) []int {
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
// The switch is one cut (docs/ARCHITECTURE.md, "A migration is a cut"):
// the dispatcher holds every member slot, reads each one's standing
// population with one whole-query ExtractCells round through its hold,
// and installs the dual assignment before it routes the next operation.
// So every query routed before the call is tracked as old, and every
// later one routes under the new strategy.
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
	if gt, ok := newAssign.(*hybrid.GridT); ok {
		gt.UseDict(s.dict)
	}
	s.globalMu.Lock()
	defer s.globalMu.Unlock()
	if s.dualAssign() != nil {
		return errors.New("core: global repartition already in progress")
	}
	s.cut(s.members(), func(holds []*hold) {
		defer release(holds)
		// The live query population at the cut stays on the old routes.
		oldIDs := make(map[uint64]struct{})
		for _, h := range holds {
			p, perr := s.population(s.through(h, slotPopulation(h.slot, false)))
			if perr != nil {
				err = fmt.Errorf("core: global repartition snapshot of worker %d: %w", h.slot, perr)
				return
			}
			for _, q := range p.Queries {
				oldIDs[q.ID] = struct{}{}
			}
		}
		s.assign.Store(assignBox{&dualAssignment{old: s.Assignment(), new: newAssign, oldIDs: oldIDs, initial: len(oldIDs)}})
	})
	return err
}

// dualAssign returns the assignment of the global repartition in
// progress, or nil.
func (s *System) dualAssign() *dualAssignment {
	d, _ := s.Assignment().(*dualAssignment)
	return d
}

// globalFinishFraction is the old-query decay threshold below which the
// transition completes ("When the amount of old STS queries becomes small,
// we conduct the migration and stop the old workload distribution
// strategy").
const globalFinishFraction = 0.1

// checkGlobalProgress finishes an in-flight global repartition once the
// old population has decayed. Called from the adjustment loop.
func (s *System) checkGlobalProgress() {
	d := s.dualAssign()
	if d == nil {
		return
	}
	rem, initial := d.remaining()
	if initial == 0 || float64(rem) <= globalFinishFraction*float64(initial) {
		s.FinishGlobalRepartition()
	}
}

// repartSlot is one held slot at a global finish: its standing
// population — the queries it holds and its top-k subscriptions' bands —
// and the rounds planned for it: whole-query installs (wire.WholeQueries
// payloads, indexed by the slot's own placement) and the ids it deletes.
type repartSlot struct {
	h       *hold
	defs    map[uint64]*model.Query
	subs    map[uint64][]window.Entry
	cells   []wire.CellPayload
	deletes []uint64
}

// FinishGlobalRepartition migrates the remaining old-strategy queries to
// their new-strategy workers and retires the old assignment. It returns
// the number of queries relocated. The finish is one cut that holds every
// member slot: through each hold, one whole-query ExtractCells round reads
// the slot's population and its top-k subscriptions' window bands; then
// every slot's InstallCells round of adopted queries and bands, then every
// slot's round of departures, whose deltas fold into the top-k board; and
// the new assignment replaces the dual one before the dispatcher routes
// the next operation. An object published meanwhile is routed after the
// finish, under the new assignment, so it reaches the new holders after
// their installs.
func (s *System) FinishGlobalRepartition() int {
	s.globalMu.Lock()
	defer s.globalMu.Unlock()
	d := s.dualAssign()
	if d == nil {
		return 0
	}
	moved := 0
	s.cut(s.members(), func(holds []*hold) {
		defer release(holds)
		moved = s.relocate(d, holds)
		// Local adjustment resumes against the new gridt when the new
		// strategy is hybrid.
		s.assign.Store(assignBox{d.new})
		if gt, ok := d.new.(*hybrid.GridT); ok {
			s.gridT.Store(gt)
		}
	})
	return moved
}

// relocate moves d's old-strategy queries still live on the held slots to
// their new-strategy workers, with their window bands, and returns how
// many it moved.
func (s *System) relocate(d *dualAssignment, holds []*hold) int {
	d.mu.Lock()
	ids := make([]uint64, 0, len(d.oldIDs))
	for id := range d.oldIDs {
		ids = append(ids, id)
	}
	d.mu.Unlock()

	// A worker unreachable this round keeps its population where it is —
	// its connection is failing the run (or entering recovery) anyway,
	// and a half-seen view would misclassify every one of its queries as
	// not-held.
	var slots []*repartSlot
	for _, h := range holds {
		p, err := s.population(s.through(h, slotPopulation(h.slot, true)))
		if err != nil {
			s.log.Warn("global repartition: worker population round failed; leaving its queries in place",
				"worker", h.slot, "err", err)
			continue
		}
		v := &repartSlot{h: h, defs: make(map[uint64]*model.Query, len(p.Queries)),
			subs: make(map[uint64][]window.Entry, len(p.Subs))}
		for _, q := range p.Queries {
			v.defs[q.ID] = q
		}
		for _, se := range p.Subs {
			v.subs[se.ID] = se.Entries
		}
		slots = append(slots, v)
	}

	moved := 0
	for _, id := range ids {
		// Find a live definition on any holder.
		var def *model.Query
		for _, v := range slots {
			if def = v.defs[id]; def != nil {
				break
			}
		}
		if def == nil {
			continue // deleted before the cut
		}
		want := d.new.RouteQuery(def, true)
		// The window bands travel with the subscription: every wanted
		// worker adopts the union of its holders' bands, so no entry that
		// can still reach the top-k leaves with a departing holder.
		var carried []window.Entry
		if def.IsTopK() {
			seen := make(map[uint64]struct{})
			for _, v := range slots {
				for _, e := range v.subs[id] {
					if _, dup := seen[e.MsgID]; !dup {
						seen[e.MsgID] = struct{}{}
						carried = append(carried, e)
					}
				}
			}
		}
		for _, v := range slots {
			_, has := v.defs[id]
			if !slices.Contains(want, v.h.slot) {
				if has {
					v.deletes = append(v.deletes, id)
				}
				continue
			}
			p := wire.CellPayload{Cell: wire.WholeQueries}
			if !has {
				p.Queries = []*model.Query{def}
			}
			if len(carried) > 0 {
				p.Subs = []wire.SubEntries{{ID: id, Entries: carried}}
			}
			if p.Queries != nil || p.Subs != nil {
				v.cells = append(v.cells, p)
			}
		}
		moved++
	}
	// Every install before any delete, so a subscription hopping between
	// two workers is never without a holder and a relocation whose top-k
	// membership survives shows subscribers no change. A slot's installs
	// are one round per page (wire.Pages). Each round is logged regardless
	// of its outcome: the new routes are about to go live, so replay must
	// rebuild the slot as routed.
	round := func(v *repartSlot, req wire.InstallCells, what string) {
		if _, err := s.installCells(v.h, req); err != nil {
			s.log.Warn("global repartition: "+what+" round failed", "worker", v.h.slot, "err", err)
		}
		s.logFrame(v.h.slot, req)
	}
	for _, v := range slots {
		for _, page := range wire.Pages(v.cells, wire.PageBudget) {
			round(v, page, "install")
		}
	}
	for _, v := range slots {
		if len(v.deletes) > 0 {
			round(v, wire.InstallCells{Deletes: v.deletes}, "delete")
		}
	}
	return moved
}
