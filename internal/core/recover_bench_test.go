package core

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"time"

	"ps2stream/internal/hybrid"
	"ps2stream/internal/model"
	"ps2stream/internal/wire"
	"ps2stream/internal/workload"
)

// BenchmarkRecoverWorker measures crash recovery of one loopback remote
// slot that holds 100 000 subscriptions, with Recovery on. Setup
// subscribes 25 000 queries and checkpoints, subscribes the other
// 75 000 and checkpoints again, then publishes 2 000 objects that stay
// in the log's tail. Each iteration kills the node, restarts it on the
// same address and waits until the slot serves traffic again. Reported:
//
//   - recovery_s: kill to slot up (every replay frame sent), per
//     iteration, and recovered_drain_s: until a Drain behind the replay
//     returns (the node has processed it);
//   - checkpoint_25k_ms, checkpoint_100k_ms: one checkpoint at each size;
//   - log_heap_mb: the coordinator heap the slot's op log holds at the end.
//
// Setup takes seconds, so run it with a fixed count:
//
//	go test -run '^$' -bench BenchmarkRecoverWorker -benchtime 3x ./internal/core
func BenchmarkRecoverWorker(b *testing.B) {
	spec := workload.TweetsUS()
	spec.VocabSize = 2000
	sample := workload.Sample(spec, workload.Q1, 2000, 400, 61)
	st := workload.NewStream(spec, workload.Q1, workload.StreamConfig{Mu: 300, Seed: 61})
	victim := startElasticNode(b, "")
	cfg := Config{
		Workers: 1, Mergers: 1,
		Builder: hybrid.Builder{},
		OnMatch: func(model.Match) {},
		Recovery: RecoveryConfig{
			Enabled:            true,
			CheckpointInterval: time.Hour, // the benchmark places the checkpoints
			HeartbeatInterval:  50 * time.Millisecond,
			RedialTimeout:      time.Minute,
		},
	}
	if err := cfg.ConnectRemoteWorkers([]string{victim.addr}, sample, wire.Backoff{Attempts: 5}); err != nil {
		b.Fatal(err)
	}
	sys, err := New(cfg, sample)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	h := sys.hop(0)
	checkpoint := func(n int) float64 {
		sys.SubmitAll(st.Prewarm(n))
		if err := sys.Drain(); err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		if !sys.checkpointHop(h) {
			b.Fatal("checkpoint failed")
		}
		return float64(time.Since(start).Microseconds()) / 1000
	}
	ckpt25k := checkpoint(25_000)
	ckpt100k := checkpoint(75_000)
	for range 2_000 {
		sys.Submit(model.Op{Kind: model.OpObject, Obj: st.ObjectGen().Object()})
	}
	if err := sys.Drain(); err != nil {
		b.Fatal(err)
	}
	waitFor := func(up bool) {
		for deadline := time.Now().Add(time.Minute); sys.slotUp(h.task) != up; time.Sleep(200 * time.Microsecond) {
			if time.Now().After(deadline) {
				b.Fatalf("slot never became up=%v", up)
			}
		}
	}
	b.ResetTimer()
	var up, drained time.Duration
	for range b.N {
		start := time.Now()
		victim.kill()
		victim = startElasticNode(b, victim.addr)
		waitFor(false)
		waitFor(true)
		up += time.Since(start)
		if err := sys.Drain(); err != nil {
			b.Fatal(err)
		}
		drained += time.Since(start)
	}
	b.StopTimer()
	b.ReportMetric(up.Seconds()/float64(b.N), "recovery_s")
	b.ReportMetric(drained.Seconds()/float64(b.N), "recovered_drain_s")
	b.ReportMetric(ckpt25k, "checkpoint_25k_ms")
	b.ReportMetric(ckpt100k, "checkpoint_100k_ms")
	if n := victim.worker.QueryCount(); n != 100_000 {
		b.Fatalf("the recovered node holds %d queries, want 100000", n)
	}
	if err := sys.Close(); err != nil {
		b.Fatal(err)
	}
	st = nil
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	with := heap()
	h.log = nil
	b.ReportMetric(float64(with-heap())/(1<<20), "log_heap_mb")
}

// BenchmarkCheckpointUnderLoad measures what op-log checkpoints cost a
// loaded slot: one loopback remote slot holds 100 000 subscriptions with
// Recovery on at psnode -recover's 250 ms checkpoint interval, and each
// iteration publishes 40 000 objects in closed-loop segments of 2 000
// (SubmitAll, then Drain). Reported: ops_s, the objects per second over
// every segment, and seg_p50_ms/seg_p90_ms/seg_max_ms, a segment's wall
// time, which grows by any checkpoint round served inside it.
//
//	go test -run '^$' -bench BenchmarkCheckpointUnderLoad -benchtime 3x ./internal/core
func BenchmarkCheckpointUnderLoad(b *testing.B) {
	spec := workload.TweetsUS()
	spec.VocabSize = 2000
	sample := workload.Sample(spec, workload.Q1, 2000, 400, 61)
	st := workload.NewStream(spec, workload.Q1, workload.StreamConfig{Mu: 300, Seed: 61})
	n := startElasticNode(b, "")
	cfg := Config{
		Workers: 1, Mergers: 1,
		Builder: hybrid.Builder{},
		OnMatch: func(model.Match) {},
		Recovery: RecoveryConfig{
			Enabled:            true,
			CheckpointInterval: 250 * time.Millisecond,
			HeartbeatInterval:  50 * time.Millisecond,
			RedialTimeout:      time.Minute,
		},
	}
	if err := cfg.ConnectRemoteWorkers([]string{n.addr}, sample, wire.Backoff{Attempts: 5}); err != nil {
		b.Fatal(err)
	}
	sys, err := New(cfg, sample)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	sys.SubmitAll(st.Prewarm(100_000))
	if err := sys.Drain(); err != nil {
		b.Fatal(err)
	}
	const segment, objects = 2_000, 40_000
	ops := make([]model.Op, segment)
	var segs []time.Duration
	var total time.Duration
	b.ResetTimer()
	for range b.N {
		for range objects / segment {
			for i := range ops {
				ops[i] = model.Op{Kind: model.OpObject, Obj: st.ObjectGen().Object()}
			}
			start := time.Now()
			sys.SubmitAll(ops)
			if err := sys.Drain(); err != nil {
				b.Fatal(err)
			}
			d := time.Since(start)
			segs = append(segs, d)
			total += d
		}
	}
	b.StopTimer()
	slices.Sort(segs)
	ms := func(q float64) float64 {
		return float64(segs[int(q*float64(len(segs)-1))].Microseconds()) / 1000
	}
	b.ReportMetric(float64(b.N*objects)/total.Seconds(), "ops_s")
	b.ReportMetric(ms(0.5), "seg_p50_ms")
	b.ReportMetric(ms(0.9), "seg_p90_ms")
	b.ReportMetric(ms(1), "seg_max_ms")
	if err := sys.Close(); err != nil {
		b.Fatal(err)
	}
}
