package core

import (
	"context"
	"time"

	"ps2stream/internal/load"
	"ps2stream/internal/migrate"
	"ps2stream/internal/model"
	"ps2stream/internal/wire"
)

// adjustLoop is the adaptive load adjustment controller (§V-A, made
// continuous): every Interval it samples per-worker load from the live
// publish traffic (the worker engines' op counters, smoothed with an EWMA),
// runs the imbalance detector (θ threshold + hysteresis + cooldown), and
// when the detector fires migrates load from the most to the least loaded
// worker — Phase I (split/merge that reduces total workload) then Phase
// II (Minimum Cost Migration) — while the stream keeps flowing. It runs
// only with Adjust.Enabled.
func (s *System) adjustLoop(ctx context.Context) {
	if !s.cfg.Adjust.Enabled {
		return
	}
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

// adjustTick runs one controller evaluation: maintenance
// (global-repartition progress), then evaluate. Serialised with AdjustNow
// by adjustMu.
func (s *System) adjustTick() {
	s.adjustMu.Lock()
	defer s.adjustMu.Unlock()
	s.checkGlobalProgress()
	s.evaluate(false)
}

// evaluate samples the member slots' loads and, on a trigger, runs one
// adjustment from the most to the least loaded slot; it returns the
// migrations run. The background controller (manual false) waits for
// MinWindowOps operations and asks the detector; a manual evaluation
// triggers whenever the smoothed balance factor violates σ, and restarts
// the detector's cooldown. Local adjustment pauses while two strategies
// co-exist — the paper's "temporary compromise on the system
// performance". Caller holds adjustMu.
func (s *System) evaluate(manual bool) int {
	if s.dualAssign() != nil {
		return 0
	}
	if err := s.pollLoads(); err != nil {
		// A slot's load is unobservable this interval (a blip, or
		// teardown racing the poll): leave the window accumulating and
		// retry next time; adjusting blind would misplace cells. A
		// genuinely dead hop fails the run on the data path.
		return 0
	}
	loads, cur, windowOps := s.windowLoads()
	if !manual && windowOps < s.cfg.Adjust.MinWindowOps {
		// Too few operations to be statistically meaningful yet. The
		// window is left accumulating (nothing consumed, nothing reset)
		// so a low-rate stream still reaches the threshold across
		// several intervals instead of being invisible forever.
		return 0
	}
	observe := !manual || windowOps > 0 // a manual call may find an empty window
	if observe {
		s.prevWork.Store(&cur) // the next window starts here
	}
	smoothed := make([]float64, len(loads))
	for i, l := range loads {
		if observe {
			smoothed[i] = s.loadEWMA[i].Observe(l)
		} else {
			smoothed[i] = s.loadEWMA[i].Value()
		}
	}
	imbalance, lo, hi := s.balance(smoothed)
	trigger := imbalance > s.cfg.Adjust.Sigma
	if !manual {
		s.adjChecks.Inc()
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
		}
		trigger = dec == load.Trigger
	}
	before := s.migrationCount()
	if trigger {
		s.log.Info("adjust trigger",
			"imbalance", imbalance,
			"theta", s.cfg.Adjust.Sigma,
			"from", hi,
			"to", lo,
			"manual", manual)
		s.runAdjustment(hi, lo)
		now := time.Now()
		if manual {
			s.adjManual.Inc()
			s.detector.Force(now)
		}
		s.lastAdjustNs.Store(now.UnixNano())
	}
	s.resetLoadWindows()
	return s.migrationCount() - before
}

// pollLoads refreshes every member slot's processed-op counters
// (freshStats: one stats round on a remote slot), so the window measures
// what each worker processed — not the coordinator's hand-off rate,
// which would track routing alone and hide a node that cannot keep up.
// Caller holds adjustMu.
func (s *System) pollLoads() error {
	for _, w := range s.members() {
		if _, err := s.freshStats(w); err != nil {
			s.log.Debug("adjust load poll failed", "worker", w, "err", err)
			return err
		}
	}
	return nil
}

// resetLoadWindows starts a fresh window for the per-cell loads: the
// dispatcher's per-cell arrivals and the per-cell object windows inside
// each worker's index (Phase I/II candidate loads). A reset travels the
// slot's stream, ahead of the slot's next CellStats round.
func (s *System) resetLoadWindows() {
	for i := range s.cellObjects {
		s.cellObjects[i].Store(0)
	}
	s.fanOut(wire.ResetWindow{}, nil)
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
	return s.evaluate(true)
}

func (s *System) migrationCount() int {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	return len(s.migrations)
}

// runAdjustment executes one adjustment from worker wo to worker wl.
func (s *System) runAdjustment(wo, wl int) {
	var movedLoad float64

	// One planner snapshot per worker: Phase I shares, Phase II
	// candidates and the tau pricing for a worker all derive from a single
	// CellStats round, so they cannot disagree with each other (and the
	// adjustment costs one round per worker, not three). If a worker
	// cannot be observed the adjustment aborts — planning against a zero
	// view would move arbitrarily much.
	woReply, err := roundAs[wire.CellStatsReply](s, wo, wire.CellStatsReq{})
	if err != nil {
		return
	}
	wlReply, err := roundAs[wire.CellStatsReply](s, wl, wire.CellStatsReq{})
	if err != nil {
		return
	}
	woStats, wlStats := woReply.Cells, wlReply.Cells

	// Phase I: split/merge opportunities on the heaviest cells.
	wlShares := make(map[int]migrate.CellShare)
	for _, cs := range s.collectShares(wlStats) {
		wlShares[cs.Cell] = cs
	}
	actions := migrate.PlanPhaseI(s.collectShares(woStats), wlShares, s.cellObjTotal, migrate.PhaseIConfig{
		Costs: s.cfg.Costs,
	})
	migrated := make(map[int]bool)
	for _, a := range actions {
		var keys []string // ActionMergeShares moves the whole share
		if a.Kind == migrate.ActionSplitText {
			keys = a.Keys
		}
		m := MigrationStat{From: wo, To: wl, PhaseI: true}
		start := time.Now()
		if !s.moveInto(&m, wo, wl, a.Cell, keys) {
			// Nothing moved, so neither the stats nor the tau budget may
			// count it.
			continue
		}
		migrated[a.Cell] = true
		movedLoad += a.LoadMoved
		s.recordMoves(m, start)
	}

	// Phase II: Minimum Cost Migration if the constraint still fails.
	// Tau — how much load to move — is computed in Definition 3 units
	// (cell window loads n_o·n_q), the same currency the candidate cells
	// and Phase I's LoadMoved are priced in. The detector's Definition 1
	// loads decide *whether* to adjust; they are not commensurable with
	// cell loads and using their gap as tau moves arbitrarily little or
	// much.
	cells := migrationCandidates(woStats, migrated)
	if len(cells) == 0 {
		return
	}
	tau := (cellLoadSum(woStats)-cellLoadSum(wlStats))/2 - movedLoad
	if tau <= 0 {
		return
	}
	selStart := time.Now()
	sel, _ := migrate.SelectGR(cells, tau)
	selTime := time.Since(selStart)
	if len(sel.Cells) == 0 {
		return
	}
	m := MigrationStat{SelectionTime: selTime, From: wo, To: wl}
	start := time.Now()
	for _, c := range sel.Cells {
		s.moveInto(&m, wo, wl, c.ID, nil)
	}
	s.recordMoves(m, start)
}

// moveInto moves worker wo's share of a cell to wl — only the given
// registration keys when keys is not nil (a Phase I split) — and adds it
// to m's totals; it reports whether anything moved.
func (s *System) moveInto(m *MigrationStat, wo, wl, cell int, keys []string) bool {
	q, b, ok := 0, int64(0), false
	if keys == nil {
		q, b, ok = s.migrateShare(wo, wl, cell)
	} else {
		q, b, ok = s.migrateSplit(wo, wl, cell, keys)
	}
	if ok {
		m.Cells++
		m.QueriesMoved += q
		m.Bytes += b
	}
	return ok
}

// recordMoves records m, the moves made since start, unless it moved
// nothing.
func (s *System) recordMoves(m MigrationStat, start time.Time) {
	if m.Cells > 0 {
		m.Duration = time.Since(start)
		s.recordMigration(m)
	}
}

func (s *System) recordMigration(m MigrationStat) {
	s.log.Info("migration",
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
func (s *System) collectShares(stats []wire.CellStat) []migrate.CellShare {
	shares := make([]migrate.CellShare, 0, len(stats))
	for _, cs := range stats {
		if cs.Entries == 0 {
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
// serialised query bytes. Cells in skip (those Phase I just migrated,
// still listed in a snapshot taken before it) are left out.
func migrationCandidates(stats []wire.CellStat, skip map[int]bool) []migrate.Cell {
	var cells []migrate.Cell
	for _, cs := range stats {
		if cs.Entries == 0 || cs.Load <= 0 || skip[cs.Cell] {
			continue
		}
		cells = append(cells, migrate.Cell{ID: cs.Cell, Load: cs.Load, Size: cs.SizeBytes})
	}
	return cells
}

// announceFence forwards the current routing epoch to every member slot
// after a flip. The request is informational: it tags the engine's
// diagnostics with the epoch its later traffic was routed under.
func (s *System) announceFence() {
	epoch := s.routeEpoch.Load()
	s.log.Debug("adjust route epoch advanced", "epoch", epoch)
	s.fanOut(wire.Fence{Epoch: epoch}, nil)
}

// handOff moves worker wo's share of a cell — the whole cell when keys is
// nil, only the given registration keys otherwise — to wl, as one cut
// (cut → extract → install → release). The cut holds both slots and flips
// routing: every operation routed before it reaches wo ahead of the
// extraction, and every later one routes under the new table and waits
// behind the holds, so wl matches it against the installed share. Each
// top-k subscription's window entries located in the cell travel with it.
// ok is false when nothing moved: a slot was not up at the cut, which then
// leaves routing as it was, or a round failed after it.
func (s *System) handOff(wo, wl, cell int, keys []string, flip func()) (queriesMoved int, nbytes int64, ok bool) {
	holds := s.cut([]int{wo, wl}, func([]*hold) {
		if ok = s.slotUp(wo) && s.slotUp(wl); ok {
			flip()
			s.routeEpoch.Add(1)
		}
	})
	if !ok {
		release(holds)
		return 0, 0, false
	}
	// The fence rounds go out once the holds are released: a round sent
	// while the run closes waits for the run to end, which waits for the
	// held slots.
	defer s.announceFence()
	defer release(holds)
	src, dst := holds[0], holds[1]
	extract := wire.ExtractCells{Cells: []wire.CellSpec{{Cell: cell, Keys: keys}}, Remove: true, Subs: true}
	// When the source's session ends before it answers, recovery rebuilds
	// the slot from its op log, where the share has not departed, so
	// extracting again is safe.
	var share wire.CellShare
	err := s.untilUp(wo, func() (err error) {
		share, err = replyAs[wire.CellShare](s, s.through(src, newRound(wo, extract, true)))
		return err
	})
	if err != nil {
		// A failed or timed-out extraction leaves the share with a source
		// whose connection is failing the run.
		s.log.Warn("adjust extraction failed", "cell", cell, "from", wo, "to", wl, "err", err)
		return 0, 0, false
	}
	// Both slots are held, so each logged frame and the source's deltas
	// below land at the cut's position in their streams.
	s.logFrame(wo, extract)
	var qs []*model.Query
	var subs []wire.SubEntries
	if len(share.Cells) > 0 {
		qs, subs = share.Cells[0].Queries, share.Cells[0].Subs
	}
	if len(qs) > 0 {
		// On the paper's cluster the receiving worker is busy ingesting
		// the migrated queries instead of processing tuples, which is
		// exactly what delays tuples in Figures 12(c)/15.
		install := wire.InstallCells{Cells: []wire.CellPayload{{Cell: cell, Queries: qs, Subs: subs}}}
		// Recovery rebuilds the destination from its op log, where the
		// adoption is not logged yet, so installing again is safe.
		err = s.untilUp(wl, func() (err error) {
			nbytes, err = s.installCells(dst, install)
			return err
		})
		if err != nil {
			// The share is lost with a destination that is failing the
			// run; it is logged there regardless, for a replay to rebuild.
			s.log.Warn("adjust install failed", "cell", cell, "from", wo, "to", wl, "err", err)
		}
		s.logFrame(wl, install)
	}
	// The source's retractions are applied after the destination's
	// adoptions, so a hand-off that keeps top-k membership shows
	// subscribers no change.
	s.board.ApplyFrom(wo, share.Epoch, share.Deltas)
	s.log.Debug("adjust hand-off finished", "cell", cell, "from", wo, "to", wl)
	return len(qs), nbytes, err == nil
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
// registration keys (Phase I split); the source keeps the cell for its
// remaining keys.
func (s *System) migrateSplit(wo, wl, cell int, keys []string) (queriesMoved int, nbytes int64, ok bool) {
	return s.handOff(wo, wl, cell, keys, func() {
		s.gridT.Load().SplitSpaceCellByText(cell, keys, wl)
	})
}
