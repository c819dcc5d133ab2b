package core

// Observability: every System owns a metrics.Registry that an admin
// server (internal/obs) exposes on /metrics and /statsz. Almost every
// series is func-backed — a closure over a counter the hot path already
// maintained — so wiring the registry costs the publish path nothing.
// The only new hot-path instruments are the three per-stage histograms
// (one Observe per *batch*, amortised over up to BatchSize tuples).
//
// Series naming: everything is prefixed ps2_, durations are histograms
// in seconds with _seconds names, monotone counts end in _total, and
// per-worker series carry a worker="<task>" label. The per-kind op
// counters and the query gauge are each slot's own stats (lastStats): an
// in-process engine is read live, so a scrape never waits behind a
// local backlog, and a psnode's reply to the latest stats round is
// remembered (refreshed by the adjustment controller's rounds and by
// RefreshWorkerStats at scrape time), so one scrape of the coordinator
// reports what every worker actually processed — not what the
// coordinator handed to the wire.

import (
	"context"
	"log/slog"
	"strconv"
	"time"

	"ps2stream/internal/metrics"
	"ps2stream/internal/wire"
)

// Stage names of the per-stage latency histograms
// (ps2_stage_seconds{stage=...}).
const (
	StageDispatch = "dispatch"
	StageWorker   = "worker"
	StageMerge    = "merge"
)

// stageLatencyBounds resolve batch-scale processing times: stages run
// microseconds per batch, far below the paper's end-to-end latency
// bounds.
var stageLatencyBounds = []time.Duration{
	10 * time.Microsecond,
	50 * time.Microsecond,
	100 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	5 * time.Millisecond,
	25 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
}

// discardHandler is slog's no-op: Enabled is false for every level, so
// an unset Config.Logger costs one predicate call per trace point.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// Registry returns the system's metric registry, ready to hand to an
// obs.Server (or scrape directly).
func (s *System) Registry() *metrics.Registry { return s.registry }

// RouteEpoch returns the current routing epoch (advances once per
// migrated cell share).
func (s *System) RouteEpoch() uint64 { return s.routeEpoch.Load() }

// opKinds are the per-kind op-counter labels and the wire.StatsReply
// field each one reads.
var opKinds = []struct {
	kind  string
	count func(wire.StatsReply) int64
}{
	{"object", func(sr wire.StatsReply) int64 { return sr.Objects }},
	{"insert", func(sr wire.StatsReply) int64 { return sr.Inserts }},
	{"delete", func(sr wire.StatsReply) int64 { return sr.Deletes }},
}

// initObservability builds the registry over the system's existing
// counters. Called from New after every counter slice is allocated.
func (s *System) initObservability() {
	r := metrics.NewRegistry()
	s.registry = r

	r.CounterFunc("ps2_ops_processed_total", "input operations routed by the dispatcher",
		s.processed.Value)
	r.CounterFunc("ps2_ops_discarded_total", "objects discarded by routing (no H2 terms)",
		s.discarded.Value)
	r.CounterFunc("ps2_matches_delivered_total", "matches delivered, solo or through a merger's dedup window",
		s.matches.Value)
	r.CounterFunc("ps2_matches_duplicates_total", "duplicate matches suppressed by the mergers' dedup windows",
		s.duplicates.Value)
	r.CounterFunc("ps2_matches_solo_total", "matches delivered without a dedup window (object routed to one in-process worker only)",
		s.soloMatches.Value)
	r.CounterFunc("ps2_matches_emitted_total", "match envelopes emitted by local workers",
		s.matchesEmitted.Value)
	r.GaugeFunc("ps2_throughput_tps", "routed tuples per second over the current meter interval",
		s.tput.Rate)
	r.GaugeFunc("ps2_batch_size", "configured transfer batch size in tuples",
		func() float64 { return float64(s.cfg.BatchSize) })

	// End-to-end latency histograms rotate on ResetLatencyStats, so they
	// are read through the atomic pointer at scrape time.
	r.HistogramFunc("ps2_tuple_latency_seconds", "publish-to-processed latency",
		s.latency.Load)
	r.HistogramFunc("ps2_match_latency_seconds", "publish-to-delivery latency of matches",
		s.matchLat.Load)

	// Per-stage processing-time histograms (one observation per batch).
	s.stageDisp = r.Histogram("ps2_stage_seconds", "per-batch stage processing time",
		stageLatencyBounds, metrics.L("stage", StageDispatch))
	s.stageWork = r.Histogram("ps2_stage_seconds", "per-batch stage processing time",
		stageLatencyBounds, metrics.L("stage", StageWorker))
	s.stageMerge = r.Histogram("ps2_stage_seconds", "per-batch stage processing time",
		stageLatencyBounds, metrics.L("stage", StageMerge))

	// The ingest: what a publisher feels before any stage sees the
	// operation. Depth and capacity are read at scrape time; the blocked
	// counter moves only on the path that is about to wait.
	r.GaugeFunc("ps2_ingest_depth_ops", "operations waiting in the ingest for the dispatcher (instantaneous)",
		func() float64 { return float64(s.ingest.depth()) })
	r.GaugeFunc("ps2_ingest_cap_ops", "waiting operations the ingest accepts before Submit blocks",
		func() float64 { return float64(s.ingest.limit) })
	r.CounterFunc("ps2_ingest_blocked_total", "times a Submit parked on a full ingest",
		s.ingestBlocked.Value)

	// Per-worker series. The op counts and the query gauge read the
	// slot's own stats; everything else reads coordinator-side state.
	// Spare slots are included so a runtime-joined worker's series exist
	// from the first scrape.
	for i := range s.totalSlots() {
		wl := metrics.L("worker", strconv.Itoa(i))
		for _, k := range opKinds {
			k := k
			r.CounterFunc("ps2_worker_ops_total",
				"operations processed per worker and kind (node-reported for remote tasks)",
				func() int64 { return k.count(s.lastStats(i)) }, wl, metrics.L("kind", k.kind))
		}
		r.GaugeFunc("ps2_worker_window_load", "Definition-1 load of the ops the worker processed over the controller's window (node-reported for remote tasks)",
			func() float64 {
				start := s.prevWork.Load()
				l, _ := s.windowLoad(start, i, s.lastStats(i))
				return l
			}, wl)
		r.GaugeFunc("ps2_worker_inflight_ops", "operations enqueued to the worker and not yet processed",
			func() float64 { return float64(max(s.enqueued[i].Load()-s.doneOps[i].Load(), 0)) }, wl)
		r.GaugeFunc("ps2_worker_queries", "live queries indexed on the worker (node-reported for remote tasks)",
			func() float64 { return float64(s.lastStats(i).Queries) }, wl)
		if s.loadEWMA != nil {
			e := s.loadEWMA[i]
			r.GaugeFunc("ps2_worker_load_ewma", "adjustment controller's smoothed per-worker load",
				e.Value, wl)
		}
	}

	r.GaugeFunc("ps2_balance_factor", "L_max/L_min over the controller's smoothed loads (window loads when the controller is off)",
		func() float64 {
			vals := s.ewmaLoads()
			if vals == nil {
				vals, _, _ = s.windowLoads()
			}
			f, _, _ := s.balance(vals)
			return f
		})
	r.GaugeFunc("ps2_route_epoch", "routing epoch (advances once per migrated cell share)",
		func() float64 { return float64(s.routeEpoch.Load()) })

	// Adjustment controller activity.
	r.CounterFunc("ps2_adjust_checks_total", "detector evaluations", s.adjChecks.Value)
	r.CounterFunc("ps2_adjust_triggers_total", "detector-initiated adjustments", s.adjTriggers.Value)
	r.CounterFunc("ps2_adjust_manual_total", "AdjustNow-initiated adjustments", s.adjManual.Value)
	r.CounterFunc("ps2_adjust_sustain_skips_total", "violations suppressed by hysteresis", s.adjSustains.Value)
	r.CounterFunc("ps2_adjust_cooldown_skips_total", "violations suppressed by cooldown", s.adjCooldowns.Value)

	// Migration aggregates, derived from the migration log.
	migSum := func(f func(MigrationStat) int64) func() int64 {
		return func() int64 {
			s.migMu.Lock()
			defer s.migMu.Unlock()
			var total int64
			for _, m := range s.migrations {
				total += f(m)
			}
			return total
		}
	}
	r.CounterFunc("ps2_migrations_total", "executed migrations",
		migSum(func(MigrationStat) int64 { return 1 }))
	r.CounterFunc("ps2_migrated_cells_total", "grid cells moved by migrations",
		migSum(func(m MigrationStat) int64 { return int64(m.Cells) }))
	r.CounterFunc("ps2_migrated_queries_total", "queries moved by migrations",
		migSum(func(m MigrationStat) int64 { return int64(m.QueriesMoved) }))
	r.CounterFunc("ps2_migrated_bytes_total", "serialised bytes moved by migrations",
		migSum(func(m MigrationStat) int64 { return m.Bytes }))

	// Membership gauges: slot liveness as the coordinator sees it, read
	// off the slot's lifecycle state. Only hop-backed (remote/spare)
	// slots register them; a pure in-process deployment has no hops and
	// no membership to observe.
	for task, h := range s.hops {
		if h == nil {
			continue
		}
		wl := metrics.L("worker", strconv.Itoa(task))
		r.GaugeFunc("ps2_worker_active", "1 while the slot is a member: claimed, and neither closing nor gone",
			func() float64 {
				if st, _ := h.status(); st.member() {
					return 1
				}
				return 0
			}, wl)
		r.GaugeFunc("ps2_worker_down", "1 while the slot's node is crashed or replaying, and from then on once the slot is lost",
			func() float64 {
				if st, cause := h.status(); st == stateDown || st == stateReplaying || cause != nil {
					return 1
				}
				return 0
			}, wl)
		if h.log != nil {
			r.GaugeFunc("ps2_oplog_tail", "op-log entries pending the next checkpoint",
				func() float64 { return float64(h.log.TailLen()) }, wl)
			r.GaugeFunc("ps2_oplog_checkpoint_age_seconds", "seconds since the op log last stored the slot's population",
				func() float64 { return h.log.CheckpointAge().Seconds() }, wl)
		}
	}

	s.registerQueueMetrics()
	if s.hops != nil {
		wire.RegisterMetrics(r)
	}
}

// registerQueueMetrics adds the per-bolt series: the workers and the
// mergers; the dispatcher reports through ps2_ingest_*. The processed and
// emitted counts are operations and matches, core's own counters. Only
// the workers have input queues: the queue gauges sum their channels, in
// batches.
func (s *System) registerQueueMetrics() {
	workerOps := func() (n int64) {
		for i := range s.doneOps {
			n += s.doneOps[i].Load()
		}
		return n
	}
	for _, b := range []struct {
		name               string
		processed, emitted func() int64
	}{
		{"worker", workerOps, s.matchesEmitted.Value},
		{"merger", s.mergerIn.Value, func() int64 { return 0 }},
	} {
		bl := metrics.L("bolt", b.name)
		s.registry.CounterFunc("ps2_bolt_processed_total",
			"operations (worker) or matches (merger) the bolt's tasks have finished", b.processed, bl)
		s.registry.CounterFunc("ps2_bolt_emitted_total",
			"matches (worker) the bolt's tasks have emitted; a merger emits nothing", b.emitted, bl)
	}
	wl := metrics.L("bolt", "worker")
	capacity := float64(len(s.towork) * cap(s.towork[0]))
	s.registry.GaugeFunc("ps2_queue_depth_batches", "queued input batches per bolt (instantaneous)",
		queued(s.towork), wl)
	s.registry.GaugeFunc("ps2_queue_cap_batches", "input queue capacity per bolt in batches",
		func() float64 { return capacity }, wl)
}

// queued is a gauge of the batches waiting in qs.
func queued(qs []chan msg) func() float64 {
	return func() float64 {
		n := 0
		for _, q := range qs {
			n += len(q)
		}
		return float64(n)
	}
}

// RefreshWorkerStats refreshes every member slot's stats (freshStats: one
// stats round on a remote slot) unless the previous refresh is younger
// than maxAge.
// The obs server calls it before each scrape, and ps2stream's Stats
// before it reads, so both show current node-side counts even when the
// adjustment controller (whose polls run the same rounds) is off. A failed round leaves the
// slot's previous reading in place: a scrape must never fail the run.
func (s *System) RefreshWorkerStats(maxAge time.Duration) {
	s.statsMu.Lock()
	fresh := time.Since(s.statsAt) < maxAge
	if !fresh {
		s.statsAt = time.Now() // claim the refresh before the rounds
	}
	s.statsMu.Unlock()
	if fresh {
		return
	}
	for _, w := range s.members() {
		_, _ = s.freshStats(w)
	}
}

// freshStats reads slot w's stats now: an in-process engine's live, so
// neither a scrape nor the load detector waits behind a local backlog,
// and a remote slot's with one stats round, which lastStats remembers.
func (s *System) freshStats(w int) (wire.StatsReply, error) {
	if s.hop(w) == nil {
		return s.bolts[w].eng.Stats(), nil
	}
	return roundAs[wire.StatsReply](s, w, wire.StatsReq{})
}

// lastStats is slot w's stats at no cost: an in-process engine's,
// read live, or what a remote slot's latest stats round reported.
func (s *System) lastStats(w int) wire.StatsReply {
	if h := s.hop(w); h != nil {
		if sr := h.lastStats.Load(); sr != nil {
			return *sr
		}
		return wire.StatsReply{}
	}
	return s.bolts[w].eng.Stats()
}

// StageSnapshots summarises the per-stage processing-time histograms
// (one observation per batch), keyed by stage name. The benchmark
// harness embeds them in report JSON so baselines record where time
// goes.
func (s *System) StageSnapshots() map[string]metrics.Snapshot {
	return map[string]metrics.Snapshot{
		StageDispatch: s.stageDisp.Snapshot(),
		StageWorker:   s.stageWork.Snapshot(),
		StageMerge:    s.stageMerge.Snapshot(),
	}
}
