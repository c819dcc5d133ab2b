package node

import (
	"ps2stream/internal/metrics"
	"ps2stream/internal/wire"
)

// Registry builds the worker node's metric registry: its cumulative op
// and match counters, live query count, and the process's wire-level
// frame/byte counters. Every series is func-backed, so the registry adds
// no cost to the serve loop — values are read from the engine's existing
// counters at scrape time.
func (w *Worker) Registry() *metrics.Registry {
	r := metrics.NewRegistry()
	r.CounterFunc("ps2_ops_processed_total",
		"Operations processed by this worker node.", func() int64 { done, _ := w.Counts(); return done })
	r.CounterFunc("ps2_matches_emitted_total",
		"Matches emitted by this worker node (before merger dedup).", func() int64 { _, n := w.Counts(); return n })
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
	wire.RegisterMetrics(r)
	return r
}
