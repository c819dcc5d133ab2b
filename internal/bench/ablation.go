package bench

import (
	"context"
	"fmt"
	"time"

	"ps2stream/internal/core"
	"ps2stream/internal/workload"
)

// AblLatencyVsRate measures each strategy's saturation curve: first its
// capacity (full-speed throughput), then the mean tuple latency while
// pacing the input at fractions of that capacity — the curve behind
// Figure 8's "moderate input speed" setting. Latency stays flat while the
// bottleneck worker keeps up, then grows sharply once the input rate
// crosses capacity and queues build.
func AblLatencyVsRate(sc Scale) []Table {
	sc = sc.orDefault()
	spec := workload.TweetsUS()
	fractions := []float64{0.25, 0.5, 0.75, 0.95, 1.2}
	t := Table{
		Title:  "Ablation (latency vs input rate): TWEETS-US Q3, fractions of each strategy's capacity",
		Header: append([]string{"strategy", "capacity(tuples/s)"}, fractionHeaders(fractions)...),
	}
	for _, b := range headToHead {
		cap, err := measureThroughput(spec, workload.Q3, b, sc, sc.Workers, sc.Mu2())
		if err != nil {
			t.Rows = append(t.Rows, []string{b, "ERR: " + err.Error()})
			continue
		}
		row := []string{b, f0(cap)}
		for _, fr := range fractions {
			lat, err := pacedLatency(spec, workload.Q3, b, sc, cap*fr, 400*time.Millisecond)
			if err != nil {
				row = append(row, "ERR")
				continue
			}
			row = append(row, ms(lat))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}
}

// pacedLatency drives the stream at the given rate for the given duration
// and reports the mean tuple latency. Pacing is in 1 ms batches — a
// per-tuple ticker cannot express rates beyond ~10k tuples/s, and the
// saturation sweep needs rates around full capacity.
func pacedLatency(spec workload.DatasetSpec, kind workload.QueryKind,
	builderName string, sc Scale, rate float64, dur time.Duration) (time.Duration, error) {
	sys, st, err := buildSystem(spec, kind, builderName, sc, sc.Workers, sc.Mu2(), core.AdjustConfig{})
	if err != nil {
		return 0, err
	}
	if err := sys.Start(context.Background()); err != nil {
		return 0, err
	}
	warm := st.Prewarm(sc.Mu2())
	sys.SubmitAll(warm)
	waitProcessed(sys, int64(len(warm)))
	batch := int(rate / 1000)
	if batch < 1 {
		batch = 1
	}
	ticker := time.NewTicker(time.Millisecond)
	// Pace through a warm-up period first, then discard its latencies:
	// the first tuples after the µ-query prewarm pay cold caches and
	// one-off allocations, which would otherwise dominate the mean at low
	// rates (few measured tuples) and invert the curve.
	warmDeadline := time.Now().Add(dur / 2)
	for time.Now().Before(warmDeadline) {
		<-ticker.C
		for i := 0; i < batch; i++ {
			sys.Submit(st.Next())
		}
	}
	sys.ResetLatencyStats()
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
		<-ticker.C
		for i := 0; i < batch; i++ {
			sys.Submit(st.Next())
		}
	}
	ticker.Stop()
	if err := sys.Close(); err != nil {
		return 0, err
	}
	return sys.Snapshot().Latency.Mean, nil
}

func fractionHeaders(fs []float64) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = fmt.Sprintf("%.0f%%", f*100)
	}
	return out
}
