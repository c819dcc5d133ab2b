package core

import (
	"context"
	"math/rand"
	"time"

	"ps2stream/internal/load"
	"ps2stream/internal/migrate"
	"ps2stream/internal/model"
	"ps2stream/internal/window"
	"ps2stream/internal/wire"
)

// adjustLoop is the adaptive load adjustment controller (§V-A, made
// continuous): every Interval it samples per-worker load from the live
// publish traffic (the worker engines' op counters, smoothed with an EWMA),
// runs the imbalance detector (θ threshold + hysteresis + cooldown), and
// when the detector fires migrates load from the most to the least loaded
// worker — Phase I (split/merge that reduces total workload) then Phase
// II (Minimum Cost Migration) — while the stream keeps flowing.
func (s *System) adjustLoop(ctx context.Context) {
	ticker := time.NewTicker(s.cfg.Adjust.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		s.adjustTick()
	}
}

// adjustTick runs one controller evaluation: maintenance (deferred
// extracts, global-repartition progress), load sampling, detection, and —
// on a trigger — one adjustment. Serialised with AdjustNow by adjustMu.
func (s *System) adjustTick() {
	s.adjustMu.Lock()
	defer s.adjustMu.Unlock()
	s.processPendingExtracts()
	s.checkGlobalProgress()
	s.globalMu.Lock()
	dualActive := s.dual != nil
	s.globalMu.Unlock()
	if dualActive {
		// Local adjustment pauses while two strategies co-exist —
		// the paper's "temporary compromise on the system
		// performance".
		return
	}
	if err := s.pollLoads(); err != nil {
		// A slot's load is unobservable this interval (a blip, or
		// teardown racing the poll): leave the window accumulating and
		// retry next tick. A genuinely dead hop fails the run on the
		// data path.
		return
	}
	loads, windowOps := s.peekWorkerLoads()
	if windowOps < s.cfg.Adjust.MinWindowOps {
		// Too few operations to be statistically meaningful yet. The
		// window is left accumulating (nothing consumed, nothing reset)
		// so a low-rate stream still reaches the threshold across
		// several intervals instead of being invisible forever.
		return
	}
	s.commitWorkSample()
	s.adjChecks.Inc()
	smoothed := make([]float64, len(loads))
	for i, l := range loads {
		smoothed[i] = s.loadEWMA[i].Observe(l)
	}
	// The detector sees only slots that currently serve traffic: idle
	// spare slots (and drained, decommissioned ones) always read zero
	// load, and counting them would keep the balance factor pinned above
	// θ forever on an otherwise perfectly balanced cluster.
	active := s.activeWorkerSlots()
	masked := maskActive(smoothed, active)
	imbalance := load.BalanceFactor(masked)
	dec := s.detector.Observe(imbalance, time.Now())
	s.log.Debug("adjust check",
		"decision", dec.String(),
		"imbalance", imbalance,
		"theta", s.cfg.Adjust.Sigma,
		"window_ops", windowOps,
		"loads", smoothed)
	switch dec {
	case load.Sustaining:
		s.adjSustains.Inc()
	case load.Cooling:
		s.adjCooldowns.Inc()
	case load.Trigger:
		s.adjTriggers.Inc()
		lo, hi := load.ArgMinMax(masked)
		lo, hi = active[lo], active[hi]
		s.log.Info("adjust trigger",
			"imbalance", imbalance,
			"theta", s.cfg.Adjust.Sigma,
			"from", hi,
			"to", lo,
			"manual", false)
		s.runAdjustment(hi, lo, smoothed, s.adjustRng)
		s.lastAdjustNs.Store(time.Now().UnixNano())
	}
	s.resetLoadWindows()
}

// pollLoads refreshes work with every active slot's cumulative
// processed-op counters (one stats round each), so the detector's
// per-interval differences measure what each worker processed — not the
// coordinator's hand-off rate, which would track routing alone and hide
// a node that cannot keep up. Caller holds adjustMu.
func (s *System) pollLoads() error {
	for _, w := range s.activeWorkerSlots() {
		sr, err := s.slots[w].Stats()
		if err != nil {
			s.log.Debug("adjust load poll failed", "worker", w, "err", err)
			return err
		}
		s.work[w] = workCounts{objects: sr.Objects, inserts: sr.Inserts, deletes: sr.Deletes}
	}
	return nil
}

// peekWorkerLoads differences the per-worker cumulative op counters
// against the previous committed sample and evaluates Definition 1 per
// worker, without consuming the window — commitWorkSample does that once
// the caller decides to use the observation. It returns the per-window
// loads and the total ops observed. Caller holds adjustMu.
func (s *System) peekWorkerLoads() ([]float64, int64) {
	loads := make([]float64, len(s.work))
	var total int64
	for i, cur := range s.work {
		d := workCounts{
			objects: cur.objects - s.prevWork[i].objects,
			inserts: cur.inserts - s.prevWork[i].inserts,
			deletes: cur.deletes - s.prevWork[i].deletes,
		}
		total += d.objects + d.inserts + d.deletes
		loads[i] = s.cfg.Costs.Worker(float64(d.objects), float64(d.inserts), float64(d.deletes))
	}
	return loads, total
}

// commitWorkSample marks the current counter values as sampled, starting
// the next measurement window. Caller holds adjustMu.
func (s *System) commitWorkSample() {
	copy(s.prevWork, s.work)
}

// resetLoadWindows starts a fresh Definition-1 window: the dispatcher-side
// per-worker counters (Snapshot.WorkerLoads) and the per-cell object
// windows inside each worker's index (Phase I/II candidate loads). A
// reset is ordered before the slot's next CellStats round.
func (s *System) resetLoadWindows() {
	s.resetWindow()
	for _, w := range s.activeWorkerSlots() {
		_ = s.slots[w].ResetWindow() // a failure here surfaces on the data path
	}
}

// AdjustNow forces one synchronous adjustment evaluation, bypassing the
// background detector's MinWindowOps gate, hysteresis, and cooldown: if
// the current (smoothed) balance factor violates σ, one adjustment runs
// before AdjustNow returns, and the background controller's cooldown
// restarts. It returns the number of migrations executed (0 when the
// system is balanced or the strategy does not support migration).
func (s *System) AdjustNow() int {
	if !s.canAdjust() {
		return 0
	}
	s.adjustMu.Lock()
	defer s.adjustMu.Unlock()
	s.processPendingExtracts()
	s.globalMu.Lock()
	dualActive := s.dual != nil
	s.globalMu.Unlock()
	if dualActive {
		return 0
	}
	if err := s.pollLoads(); err != nil {
		return 0 // a slot's load is unobservable; adjusting blind would misplace cells
	}
	loads, windowOps := s.peekWorkerLoads()
	if windowOps > 0 {
		s.commitWorkSample()
	}
	smoothed := make([]float64, len(loads))
	for i, l := range loads {
		if windowOps > 0 {
			smoothed[i] = s.loadEWMA[i].Observe(l)
		} else {
			smoothed[i] = s.loadEWMA[i].Value()
		}
	}
	before := s.migrationCount()
	active := s.activeWorkerSlots()
	masked := maskActive(smoothed, active)
	if imbalance := load.BalanceFactor(masked); imbalance > s.cfg.Adjust.Sigma {
		s.adjManual.Inc()
		lo, hi := load.ArgMinMax(masked)
		lo, hi = active[lo], active[hi]
		s.log.Info("adjust trigger",
			"imbalance", imbalance,
			"theta", s.cfg.Adjust.Sigma,
			"from", hi,
			"to", lo,
			"manual", true)
		s.runAdjustment(hi, lo, smoothed, s.adjustRng)
		now := time.Now()
		s.detector.Force(now)
		s.lastAdjustNs.Store(now.UnixNano())
	}
	s.resetLoadWindows()
	return s.migrationCount() - before
}

func (s *System) migrationCount() int {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	return len(s.migrations)
}

// runAdjustment executes one adjustment from worker wo to worker wl.
func (s *System) runAdjustment(wo, wl int, loads []float64, rng *rand.Rand) {
	var movedLoad float64

	// One planner snapshot per endpoint: Phase I shares, Phase II
	// candidates and the tau pricing for a worker all derive from a single
	// CellStats round, so they cannot disagree with each other (and the
	// adjustment costs one round per endpoint, not three). If an endpoint
	// cannot be observed the adjustment aborts — planning against a zero
	// view would move arbitrarily much.
	woStats, err := s.slots[wo].CellStats()
	if err != nil {
		return
	}
	wlStats, err := s.slots[wl].CellStats()
	if err != nil {
		return
	}

	// Phase I: split/merge opportunities on the heaviest cells.
	wlShares := make(map[int]migrate.CellShare)
	for _, cs := range s.collectShares(wlStats) {
		wlShares[cs.Cell] = cs
	}
	actions := migrate.PlanPhaseI(s.collectShares(woStats), wlShares, s.cellObjTotal, migrate.PhaseIConfig{
		P:     s.cfg.Adjust.PhaseIP,
		Costs: s.cfg.Costs,
	})
	for _, a := range actions {
		start := time.Now()
		var moved int
		var nbytes int64
		var ok bool
		switch a.Kind {
		case migrate.ActionSplitText:
			moved, nbytes, ok = s.migrateSplit(wo, wl, a.Cell, a.Keys)
		case migrate.ActionMergeShares:
			moved, nbytes, ok = s.migrateShare(wo, wl, a.Cell)
		}
		if !ok {
			// A wire round failed before the routing flip: nothing moved,
			// so neither the stats nor the tau budget may count it.
			continue
		}
		movedLoad += a.LoadMoved
		s.recordMigration(MigrationStat{
			Algorithm:    s.cfg.Adjust.Algorithm,
			Duration:     time.Since(start),
			Bytes:        nbytes,
			Cells:        1,
			QueriesMoved: moved,
			From:         wo,
			To:           wl,
			PhaseI:       true,
		})
	}

	// Phase II: Minimum Cost Migration if the constraint still fails.
	// Tau — how much load to move — is computed in Definition 3 units
	// (cell window loads n_o·n_q), the same currency the candidate cells
	// and Phase I's LoadMoved are priced in. The detector's Definition 1
	// loads decide *whether* to adjust; they are not commensurable with
	// cell loads and using their gap as tau moves arbitrarily little or
	// much.
	cells := s.migrationCandidates(woStats)
	if len(cells) == 0 {
		return
	}
	tau := (cellLoadSum(woStats)-cellLoadSum(wlStats))/2 - movedLoad
	if tau <= 0 {
		return
	}
	selStart := time.Now()
	sel, _ := migrate.Select(s.cfg.Adjust.Algorithm, cells, tau, rng)
	selTime := time.Since(selStart)
	if len(sel.Cells) == 0 {
		return
	}
	start := time.Now()
	var totalMoved, totalCells int
	var totalBytes int64
	for _, c := range sel.Cells {
		moved, nbytes, ok := s.migrateShare(wo, wl, c.ID)
		if !ok {
			continue
		}
		totalMoved += moved
		totalBytes += nbytes
		totalCells++
	}
	if totalCells == 0 {
		return
	}
	s.recordMigration(MigrationStat{
		Algorithm:     s.cfg.Adjust.Algorithm,
		SelectionTime: selTime,
		Duration:      time.Since(start),
		Bytes:         totalBytes,
		Cells:         totalCells,
		QueriesMoved:  totalMoved,
		From:          wo,
		To:            wl,
	})
}

func (s *System) recordMigration(m MigrationStat) {
	s.log.Info("migration",
		"algorithm", string(m.Algorithm),
		"phase_i", m.PhaseI,
		"from", m.From,
		"to", m.To,
		"cells", m.Cells,
		"queries", m.QueriesMoved,
		"bytes", m.Bytes,
		"duration", m.Duration,
		"selection", m.SelectionTime,
		"epoch", s.routeEpoch.Load())
	s.migMu.Lock()
	s.migrations = append(s.migrations, m)
	s.migMu.Unlock()
}

func (s *System) cellObjTotal(cell int) int64 {
	if s.cellObjects == nil || cell < 0 || cell >= len(s.cellObjects) {
		return -1
	}
	return s.cellObjects[cell].Load()
}

// collectShares is the Phase I view of a worker's CellStats snapshot.
// Pending cells are filtered at call time, so a snapshot taken before
// Phase I still excludes the cells Phase I just migrated.
func (s *System) collectShares(stats []wire.CellStat) []migrate.CellShare {
	shares := make([]migrate.CellShare, 0, len(stats))
	for _, cs := range stats {
		if cs.Entries == 0 || s.cellPending(cs.Cell) {
			continue
		}
		share := migrate.CellShare{
			Cell:      cs.Cell,
			Queries:   cs.Entries,
			ObjSeen:   cs.ObjSeen,
			SizeBytes: cs.SizeBytes,
			Text:      s.gridT.Load().IsTextCell(cs.Cell),
		}
		for _, ts := range cs.Terms {
			share.Keys = append(share.Keys, migrate.KeyStat{
				Key: ts.Term, Queries: ts.Queries, ObjHits: ts.ObjHits,
			})
		}
		shares = append(shares, share)
	}
	return shares
}

// cellLoadSum totals a CellStats snapshot's per-window Definition 3 cell
// loads (n_o·n_q), the unit Phase I/II migration quantities are priced in.
func cellLoadSum(stats []wire.CellStat) float64 {
	var sum float64
	for _, cs := range stats {
		if cs.Load > 0 {
			sum += cs.Load
		}
	}
	return sum
}

// migrationCandidates lists a CellStats snapshot's cells as Minimum Cost
// Migration input (Definition 4): load L_g = n_o·n_q, size S_g =
// serialised query bytes. Pending cells (including those Phase I just
// migrated) are filtered at call time.
func (s *System) migrationCandidates(stats []wire.CellStat) []migrate.Cell {
	var cells []migrate.Cell
	for _, cs := range stats {
		if cs.Entries == 0 || cs.Load <= 0 || s.cellPending(cs.Cell) {
			continue
		}
		cells = append(cells, migrate.Cell{ID: cs.Cell, Load: cs.Load, Size: cs.SizeBytes})
	}
	return cells
}

// pendingExtract is a deferred migration cleanup: the cell's routing has
// flipped to the target worker, but the source worker keeps its copies
// until every tuple enqueued to it before the flip has been processed
// (barrier on doneOps). This guarantees in-flight objects still find the
// queries; overlap duplicates are removed by the mergers.
type pendingExtract struct {
	cell   int
	wo, wl int
	keys   []string // nil: whole cell
	copied map[uint64]struct{}
	// copiedMsgs are the window entries copied with the cell; ring
	// entries that arrived at the source between copy and flip are
	// forwarded at extraction time, like leftover queries.
	copiedMsgs map[uint64]struct{}
	barrier    int64
}

// advanceRoute bumps the routing epoch, then takes routeMu's write side
// once: it returns when every dispatcher chunk that was routing before the
// call has finished enqueuing. Later chunks see the flipped table.
func (s *System) advanceRoute() {
	s.routeEpoch.Add(1)
	s.routeMu.Lock()
	s.routeMu.Unlock() // the empty section is the point
}

// announceFence forwards the current routing epoch to every active slot
// after a flip. The frame itself is informational, but its position
// matters: the deferred ExtractCells round follows it on the source's
// connection, so a remote extraction is ordered behind the same epoch
// boundary the drain barrier provides.
func (s *System) announceFence() {
	epoch := s.routeEpoch.Load()
	s.log.Debug("adjust fence advanced", "epoch", epoch)
	for _, w := range s.activeWorkerSlots() {
		_ = s.slots[w].SendFence(epoch) // informational; failures surface on the data path
	}
}

// handOff moves worker wo's share of a cell — the whole cell when keys is
// nil, only the given registration keys otherwise — to wl using the
// copy → transfer → flip-routing → deferred-extract sequence, so no
// matching object is ever routed to a worker without the queries. The
// cell's window state (ring entries and top-k-held objects located in the
// cell) travels with the queries, so sliding-window top-k subscriptions
// survive the hand-off without losing window history. ok is false when a
// round failed before the routing flip — nothing moved, nothing to
// record.
func (s *System) handOff(wo, wl, cell int, keys []string, flip func()) (queriesMoved int, nbytes int64, ok bool) {
	// 1. Copy: one non-removing ExtractCells round, ordered behind all
	// traffic handed to wo before it.
	share, err := s.slots[wo].ExtractCells([]wire.CellSpec{{Cell: cell, Keys: keys}}, false, false)
	if err != nil {
		return 0, 0, false // failure before anything changed: abort this migration
	}
	var qs []*model.Query
	var ring []window.Entry
	if len(share.Cells) > 0 {
		qs, ring = share.Cells[0].Queries, share.Cells[0].Ring
	}
	// 2. Transfer. On the paper's cluster the receiving worker is busy
	// ingesting the migrated queries instead of processing tuples, which
	// is exactly what delays tuples in Figures 12(c)/15. Once the round
	// returns, every op batch handed to wl is matched against the share.
	// A failure aborts before the routing flip — the destination holds at
	// worst an unused copy whose duplicate matches the mergers suppress.
	if len(qs) > 0 || len(ring) > 0 {
		nbytes, err = s.slots[wl].InstallCells([]wire.CellPayload{{Cell: cell, Queries: qs, Ring: ring}}, nil)
		if err != nil {
			return 0, 0, false
		}
		// The destination now answers for these queries; its op log must
		// reconstruct them if the node crashes before the next checkpoint.
		s.logAdoptions(wl, qs, nil, ring)
	}
	// 3. Flip routing, then advance the dispatcher fence: advanceRoute
	// blocks until every dispatcher chunk routed under the pre-flip table
	// has finished enqueuing, so the barrier read below covers all
	// old-epoch traffic — without the fence a laggard chunk could enqueue
	// a matching object to wo after the barrier snapshot and lose its
	// matches to an early extraction.
	flip()
	s.advanceRoute()
	s.announceFence()
	// 4. Schedule extraction once wo drains its pre-flip queue.
	s.scheduleExtract(pendingExtract{cell: cell, wo: wo, wl: wl, keys: keys, copied: idSet(qs),
		copiedMsgs: msgIDSet(ring), barrier: s.enqueued[wo].Load()})
	return len(qs), nbytes, true
}

// migrateShare moves worker wo's entire share of a cell to wl.
func (s *System) migrateShare(wo, wl, cell int) (queriesMoved int, nbytes int64, ok bool) {
	return s.handOff(wo, wl, cell, nil, func() {
		if gt := s.gridT.Load(); gt.IsTextCell(cell) {
			gt.ReassignTextShare(cell, wo, wl)
		} else {
			gt.ReassignSpaceCell(cell, wl)
		}
	})
}

// migrateSplit converts a space cell to a text cell, moving only the given
// registration keys (Phase I split). The cell's window ring is copied (not
// moved) so the receiving share can repair its top-k subscriptions from
// the same history; the source keeps the cell for its remaining keys.
func (s *System) migrateSplit(wo, wl, cell int, keys []string) (queriesMoved int, nbytes int64, ok bool) {
	return s.handOff(wo, wl, cell, keys, func() {
		s.gridT.Load().SplitSpaceCellByText(cell, keys, wl)
	})
}

func msgIDSet(es []window.Entry) map[uint64]struct{} {
	out := make(map[uint64]struct{}, len(es))
	for _, e := range es {
		out[e.MsgID] = struct{}{}
	}
	return out
}

func idSet(qs []*model.Query) map[uint64]struct{} {
	out := make(map[uint64]struct{}, len(qs))
	for _, q := range qs {
		out[q.ID] = struct{}{}
	}
	return out
}

func (s *System) scheduleExtract(pe pendingExtract) {
	s.migMu.Lock()
	s.pendingEx = append(s.pendingEx, pe)
	s.pendingCells[pe.cell] = true
	s.migMu.Unlock()
}

// processPendingExtracts completes deferred extractions whose source
// worker has drained past the flip barrier.
func (s *System) processPendingExtracts() {
	s.migMu.Lock()
	var due []pendingExtract
	var rest []pendingExtract
	for _, pe := range s.pendingEx {
		if s.doneOps[pe.wo].Load() >= pe.barrier {
			due = append(due, pe)
		} else {
			rest = append(rest, pe)
		}
	}
	s.pendingEx = rest
	s.migMu.Unlock()
	for _, pe := range due {
		s.finishExtract(pe)
		s.log.Debug("adjust extract finished", "cell", pe.cell, "from", pe.wo, "to", pe.wl)
		s.migMu.Lock()
		delete(s.pendingCells, pe.cell)
		s.migMu.Unlock()
	}
}

// finishExtract runs one deferred extraction end to end: remove the
// migrated share from the source (one removing ExtractCells round,
// ordered behind every pre-flip op batch and the fence frame), reconcile
// what changed between copy and flip, and forward the differences to the
// new owner.
func (s *System) finishExtract(pe pendingExtract) {
	share, err := s.slots[pe.wo].ExtractCells([]wire.CellSpec{{Cell: pe.cell, Keys: pe.keys}}, true, false)
	if err != nil {
		// The extraction round failed. A timed-out round is ambiguous —
		// the node may or may not have removed the share — so retrying is
		// NOT safe: a second extraction of an already-empty cell would
		// misread every copied query as "deleted between copy and flip"
		// and wipe the migrated share at the destination. Abandon the
		// extraction instead: at worst the source keeps a stale duplicate
		// copy whose matches the mergers suppress, and a control round
		// only fails on a connection that is about to fail the run on the
		// data path anyway.
		return
	}
	var extracted []*model.Query
	var ring []window.Entry
	if len(share.Cells) > 0 {
		extracted, ring = share.Cells[0].Queries, share.Cells[0].Ring
	}
	s.logDepartures(pe.wo, extracted)
	// Window hand-off: for a whole-cell move the source released its ring;
	// for a key split it keeps the cell for its remaining keys and the
	// ring is a copy. Either way, entries that arrived between the
	// snapshot and the routing flip are forwarded so wl's ring holds the
	// cell's full history.
	var ringLeft []window.Entry
	for _, e := range ring {
		if _, ok := pe.copiedMsgs[e.MsgID]; !ok {
			ringLeft = append(ringLeft, e)
		}
	}
	// Forward anything that reached wo between copy and flip: queries
	// inserted at wo (present in the extraction but not in the copy)
	// move to wl, and queries *deleted* at wo (copied, but gone from
	// the extraction) are deleted from wl's adopted copy too — a
	// delete routed under the pre-flip table reaches only wo, and
	// without this reconciliation the migrated copy would keep
	// matching forever.
	var leftover []*model.Query
	for _, q := range extracted {
		if _, ok := pe.copied[q.ID]; !ok {
			leftover = append(leftover, q)
		}
	}
	extractedIDs := idSet(extracted)
	var deleted []uint64
	for id := range pe.copied {
		if _, ok := extractedIDs[id]; !ok {
			deleted = append(deleted, id)
		}
	}
	if len(leftover) > 0 || len(ringLeft) > 0 || len(deleted) > 0 {
		var cells []wire.CellPayload
		if len(leftover) > 0 || len(ringLeft) > 0 {
			cells = []wire.CellPayload{{Cell: pe.cell, Queries: leftover, Ring: ringLeft}}
		}
		// Best-effort: a failure here means the destination's connection
		// is down, which already fails the run on the data path —
		// re-extracting could not recover the copies the source no longer
		// holds.
		_, _ = s.slots[pe.wl].InstallCells(cells, deleted)
		// Logged regardless of the install outcome: routing already
		// flipped, so the destination slot owns these differences and
		// replay must reconstruct them even if this particular delivery
		// is lost to a crash the recovery path then heals.
		s.logAdoptions(pe.wl, leftover, deleted, ringLeft)
	}
	// The source's retractions (subscriptions and ring entries that left
	// with the share) are applied AFTER the destination's adoptions, so a
	// hand-off that preserves membership nets out to zero user-visible
	// updates.
	s.board.ApplyFrom(pe.wo, share.Epoch, share.Deltas)
}

// hasPendingExtracts reports whether any deferred extraction awaits its
// drain barrier or completion.
func (s *System) hasPendingExtracts() bool {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	return len(s.pendingEx) > 0
}

// cellPending reports whether the cell awaits a deferred extraction (and
// must not be re-migrated yet).
func (s *System) cellPending(cell int) bool {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	return s.pendingCells[cell]
}
