package node

import (
	"ps2stream/internal/metrics"
	"ps2stream/internal/wire"
)

// Registry builds the worker node's metric registry: its cumulative op
// and match counters, live query count, the coordinator-announced routing
// epoch, and the process's wire-level frame/byte counters. Every series
// is func-backed, so the registry adds no cost to the serve loop — values
// are read from the node's and its engine's existing counters at scrape
// time.
func (w *Worker) Registry() *metrics.Registry {
	r := metrics.NewRegistry()
	r.CounterFunc("ps2_ops_processed_total",
		"Operations processed by this worker node.", w.done.Load)
	r.CounterFunc("ps2_matches_emitted_total",
		"Matches emitted by this worker node (before merger dedup).", w.emitted.Load)
	for _, k := range []struct {
		kind string
		src  func() int64
	}{
		{"object", func() int64 { return w.stats().Objects }},
		{"insert", func() int64 { return w.stats().Inserts }},
		{"delete", func() int64 { return w.stats().Deletes }},
	} {
		r.CounterFunc("ps2_worker_ops_total",
			"Operations processed, by kind.", k.src, metrics.L("kind", k.kind))
	}
	r.GaugeFunc("ps2_worker_queries",
		"Live queries held by this worker node.",
		func() float64 { return float64(w.QueryCount()) })
	r.GaugeFunc("ps2_route_epoch",
		"Last routing epoch announced by the coordinator.",
		func() float64 { return float64(w.Epoch()) })
	wire.RegisterMetrics(r)
	return r
}

// Registry builds the merger node's metric registry: delivered/duplicate
// match counters plus the process's wire-level frame/byte counters, all
// func-backed (zero serve-loop cost).
func (m *Merger) Registry() *metrics.Registry {
	r := metrics.NewRegistry()
	r.CounterFunc("ps2_matches_delivered_total",
		"Matches delivered by this merger node after deduplication.", m.delivered.Load)
	r.CounterFunc("ps2_matches_duplicates_total",
		"Duplicate matches suppressed by this merger node.", m.duplicates.Load)
	wire.RegisterMetrics(r)
	return r
}
