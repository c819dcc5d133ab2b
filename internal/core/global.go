package core

import (
	"errors"
	"fmt"
	"sync"

	"ps2stream/internal/hybrid"
	"ps2stream/internal/index/grid"
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

// allCellSpecs enumerates every grid cell as an ExtractCells spec: the
// workers' GI2 geometry is fixed at build time (bounds + granularity,
// distributed to nodes by the handshake), so a full sweep over it is a
// complete view of a worker's standing population, independent of the
// routing strategy in force.
func (s *System) allCellSpecs() []wire.CellSpec {
	g := grid.New(s.bounds, s.cfg.Granularity, s.cfg.Granularity)
	specs := make([]wire.CellSpec, g.NumCells())
	for i := range specs {
		specs[i].Cell = i
	}
	return specs
}

// GlobalRepartition begins a global load adjustment: a fresh assignment is
// built from the sample and installed alongside the current one. The old
// strategy keeps serving pre-existing queries until their population
// decays below finishFraction of its initial size, at which point the
// controller migrates the remainder and retires the old strategy
// (checkGlobalProgress). If the adjustment controller is disabled, call
// FinishGlobalRepartition explicitly.
//
// The start-of-transition snapshot sweeps each worker's standing
// population with a copying ExtractCells round, and the finish relocates
// queries with InstallCells rounds.
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
	// Each sweep is barriered behind all traffic handed to the worker
	// before it.
	oldIDs := make(map[uint64]struct{})
	specs := s.allCellSpecs()
	for _, w := range s.activeWorkerSlots() {
		cs, err := s.slots[w].ExtractCells(specs, false, false)
		if err != nil {
			return fmt.Errorf("core: global repartition snapshot of worker %d: %w", w, err)
		}
		for _, p := range cs.Cells {
			for _, q := range p.Queries {
				oldIDs[q.ID] = struct{}{}
			}
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
// top-k subscription heaps hold.
type repartView struct {
	defs map[uint64]*model.Query
	subs map[uint64][]window.Entry
}

// repartBatch accumulates one worker's relocation rounds: whole-query
// installs (Cell < 0 payloads, indexed by the worker's own placement)
// and ids to delete from its index.
type repartBatch struct {
	cells   []wire.CellPayload
	adopted []*model.Query
	deletes []uint64
}

// FinishGlobalRepartition migrates the remaining old-strategy queries to
// their new-strategy workers and retires the old assignment. It returns
// the number of queries relocated. Holders are discovered with one
// copying ExtractCells sweep per worker (including each top-k
// subscription's held window entries), then the relocations are flushed
// as InstallCells rounds whose deltas fold into the top-k board.
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

	// One barriered sweep per worker: its population and held top-k
	// window entries at finish time. A worker unreachable this round
	// keeps its population where it is — its connection is failing the
	// run (or entering recovery) anyway, and a half-seen view would
	// misclassify every one of its queries as not-held.
	active := s.activeWorkerSlots()
	views := make(map[int]*repartView, len(active))
	specs := s.allCellSpecs()
	for _, w := range active {
		cs, err := s.slots[w].ExtractCells(specs, false, true)
		if err != nil {
			s.log.Warn("global repartition: worker sweep failed; leaving its queries in place",
				"worker", w, "err", err)
			continue
		}
		v := &repartView{defs: make(map[uint64]*model.Query), subs: make(map[uint64][]window.Entry)}
		for _, p := range cs.Cells {
			for _, q := range p.Queries {
				v.defs[q.ID] = q
			}
			for _, se := range p.Subs {
				v.subs[se.ID] = append(v.subs[se.ID], se.Entries...)
			}
		}
		views[w] = v
	}

	batches := make(map[int]*repartBatch, len(views))
	for w := range views {
		batches[w] = &repartBatch{}
	}
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
		// The held window entries travel with the subscription: the
		// departing holders' heap contents seed the new holders, whose own
		// rings cannot refill history they never saw.
		var carried []window.Entry
		if def.IsTopK() {
			seen := make(map[uint64]struct{})
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
				p := wire.CellPayload{Cell: -1, Queries: []*model.Query{def}}
				if len(carried) > 0 {
					p.Subs = []wire.SubEntries{{ID: id, Entries: carried}}
				}
				b.cells = append(b.cells, p)
				b.adopted = append(b.adopted, def)
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
			if _, err := s.slots[w].InstallCells(b.cells, nil); err != nil {
				s.log.Warn("global repartition: install round failed", "worker", w, "err", err)
			}
		}
	}
	for _, w := range active {
		b := batches[w]
		if b == nil {
			continue
		}
		if len(b.deletes) > 0 {
			if _, err := s.slots[w].InstallCells(nil, b.deletes); err != nil {
				s.log.Warn("global repartition: delete round failed", "worker", w, "err", err)
			}
		}
		var carried []window.Entry
		for _, p := range b.cells {
			for _, se := range p.Subs {
				carried = append(carried, se.Entries...)
			}
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
