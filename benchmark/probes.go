package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"ps2stream/internal/dedup"
	"ps2stream/internal/gi2"
	"ps2stream/internal/hybrid"
	"ps2stream/internal/index/grid"
	"ps2stream/internal/load"
	"ps2stream/internal/model"
	"ps2stream/internal/node"
	"ps2stream/internal/partition"
	"ps2stream/internal/stream"
	"ps2stream/internal/textutil"
	"ps2stream/internal/wire"
	"ps2stream/internal/workload"
)

// Layer probes: the workload's own inputs replayed straight into each
// layer's public functions on one goroutine, each call batch wrapped in
// a span. They give a layer's cost in isolation, where the pipeline part
// gives its share under contention.

// probeObjects caps how many pooled objects a probe replays, so that the
// traced run fits the same wall-clock budget as the timed one.
const probeObjects = 60000

// sink keeps the compiler from discarding a probed call's result.
var sink int

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timed runs fn inside a span and returns how long it took.
func timed(tr *tracer, name string, parent int, fn func()) time.Duration {
	sp := tr.start(name, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	tr.end(sp)
	return d
}

func perOp(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func mergerOf(q, o uint64) uint64 { return (q*0x9E3779B97F4A7C15 ^ o) % topoMergers }

func runProbes(in *inputs, tr *tracer, parent int, set func(string, float64)) error {
	objs := in.poolObjs
	if len(objs) > probeObjects {
		objs = objs[:probeObjects]
	}
	msgs := in.pool[:len(objs)]
	bounds := workload.TweetsUS().Bounds

	// textutil: what Publish pays before anything is routed.
	d := timed(tr, "textutil.Tokenize", parent, func() {
		for i := range msgs {
			sink += len(textutil.Tokenize(msgs[i].Text))
		}
	})
	set("textutil.tokenize_ns_op", perOp(d, len(msgs)))

	// hybrid: fit the partitioner as Open does, then route every standing
	// subscription and the object pool through the gridt it returns.
	sample := partition.NewSample(in.seedObjs, in.seedQrys, bounds, load.Costs{})
	var gt *hybrid.GridT
	var buildErr error
	d = timed(tr, "hybrid.Builder.Build", parent, func() {
		a, err := hybrid.Builder{}.Build(sample, topoWorkers)
		if err != nil {
			buildErr = err
			return
		}
		gt = a.(*hybrid.GridT)
	})
	if buildErr != nil {
		return fmt.Errorf("probing hybrid: %w", buildErr)
	}
	set("hybrid.build_ms", float64(d.Nanoseconds())/1e6)

	queries := in.standingQ
	queryTargets := make([][]int, len(queries))
	routeCalls := len(queries)
	routeTime := timed(tr, "hybrid.GridT.RouteQuery/insert", parent, func() {
		for i, q := range queries {
			queryTargets[i] = gt.RouteQuery(q, true)
		}
	})
	// Delete routing, on every tenth subscription, each re-registered at
	// once so the table ends as it began. A churning workload pays this
	// pair on every other operation.
	routeTime += timed(tr, "hybrid.GridT.RouteQuery/delete+insert", parent, func() {
		for i := 0; i < len(queries); i += 10 {
			sink += len(gt.RouteQuery(queries[i], false))
			sink += len(gt.RouteQuery(queries[i], true))
			routeCalls += 2
		}
	})
	set("hybrid.route_query_ns_op", perOp(routeTime, routeCalls))
	var queryFan int
	for _, t := range queryTargets {
		queryFan += len(t)
	}
	set("hybrid.query_fanout", ratio(float64(queryFan), float64(len(queries))))
	set("hybrid.footprint_mb", float64(gt.Footprint())/(1<<20))

	objTargets := make([][]int, len(objs))
	d = timed(tr, "hybrid.GridT.RouteObject", parent, func() {
		for i, o := range objs {
			objTargets[i] = gt.RouteObject(o)
		}
	})
	set("hybrid.route_object_ns_op", perOp(d, len(objs)))
	var routed, objFan int
	for _, t := range objTargets {
		if len(t) > 0 {
			routed++
			objFan += len(t)
		}
	}
	set("hybrid.object_fanout", ratio(float64(objFan), float64(routed)))
	set("hybrid.discard_share", ratio(float64(len(objs)-routed), float64(len(objs))))

	// gi2: four stand-alone indexes filled exactly as the worker engine
	// fills them — every target worker inserts the whole subscription.
	var ix [topoWorkers]*gi2.Index
	for w := range ix {
		ix[w] = gi2.New(bounds, grid.DefaultGranularity, sample.Stats)
	}
	d = timed(tr, "gi2.Index.Insert", parent, func() {
		for i, q := range queries {
			for _, w := range queryTargets[i] {
				ix[w].Insert(q)
			}
		}
	})
	set("gi2.insert_ns_op", perOp(d, queryFan))
	var footprint int64
	var entries, held int
	for _, x := range ix {
		footprint += x.Footprint()
		entries += x.EntryCount()
		held += x.QueryCount()
	}
	set("gi2.footprint_mb", float64(footprint)/(1<<20))
	set("gi2.entries_per_query", ratio(float64(entries), float64(held)))

	// First pass over the objects: collect the match stream (one key per
	// worker-side match, duplicates included) for the dedup and wire
	// probes. It also lets Match build its per-cell hit maps, so the
	// timed pass below sees the steady state.
	var keys [][2]uint64
	var distinct int
	firstMatchOnW0 := -1 // an object that matches on worker 0, for node.batch_rtt
	timed(tr, "gi2.Index.Match/collect", parent, func() {
		var scratch []uint64
		for i, o := range objs {
			scratch = scratch[:0]
			for _, w := range objTargets[i] {
				before := len(scratch)
				ix[w].Match(o, func(q *model.Query) { scratch = append(scratch, q.ID) })
				if w == 0 && len(scratch) > before && firstMatchOnW0 < 0 {
					firstMatchOnW0 = i
				}
			}
			for _, id := range scratch {
				keys = append(keys, [2]uint64{id, uint64(i) + 1})
			}
			slices.Sort(scratch)
			for j, id := range scratch {
				if j == 0 || id != scratch[j-1] {
					distinct++
				}
			}
		}
	})
	set("gi2.matches_per_object", ratio(float64(distinct), float64(len(objs))))

	var matchCalls, matched int
	allocs := mallocs()
	d = timed(tr, "gi2.Index.Match", parent, func() {
		count := func(*model.Query) { matched++ }
		for i, o := range objs {
			for _, w := range objTargets[i] {
				ix[w].Match(o, count)
				matchCalls++
			}
		}
	})
	allocs = mallocs() - allocs
	sink += matched
	set("gi2.match_ns_op", perOp(d, matchCalls))
	set("gi2.match_allocs_op", ratio(float64(allocs), float64(matchCalls)))

	var deletes int
	d = timed(tr, "gi2.Index.Delete", parent, func() {
		for i := 0; i < len(queries); i += 10 {
			for _, w := range queryTargets[i] {
				ix[w].Delete(queries[i].ID)
				deletes++
			}
		}
	})
	set("gi2.delete_ns_op", perOp(d, deletes))
	d = timed(tr, "gi2.Index.Purge", parent, func() {
		for _, x := range ix {
			x.Purge()
		}
	})
	set("gi2.purge_ms", float64(d.Nanoseconds())/1e6)

	// dedup: the collected match stream through two merger windows of the
	// engine's size, split by the engine's merger hash.
	var wins [topoMergers]*dedup.Window
	for m := range wins {
		wins[m] = dedup.NewWindow(1 << 15)
	}
	var dups int
	d = timed(tr, "dedup.Window.Observe", parent, func() {
		for _, k := range keys {
			if !wins[mergerOf(k[0], k[1])].Observe(k) {
				dups++
			}
		}
	})
	set("dedup.observe_ns_op", perOp(d, len(keys)))
	set("dedup.dup_share", ratio(float64(dups), float64(len(keys))))

	probeStream(tr, parent, set)
	probeWire(in, objs, keys, tr, parent, set)
	return probeNode(in, objs, objTargets, queryTargets, firstMatchOnW0, sample, tr, parent, set)
}

// probeStream measures the stream engine alone: a spout and two
// pass-through bolts, so two hops per tuple.
func probeStream(tr *tracer, parent int, set func(string, float64)) {
	const hops = 2
	passThrough := func(batch, n int) time.Duration {
		t := stream.NewTopology(64)
		t.SetBatchSize(batch)
		sent := 0
		t.AddSpout("src", func(int) stream.Spout {
			return stream.SpoutFunc(func(c stream.Collector) bool {
				c.Emit("a", stream.Tuple{Value: sent})
				sent++
				return sent < n
			})
		}, 1, "a")
		t.AddBolt("mid", func(int) stream.Bolt {
			return stream.BoltFunc(func(tu stream.Tuple, c stream.Collector) { c.Emit("b", tu) })
		}, 1, "b").Shuffle("a")
		got := 0
		t.AddBolt("end", func(int) stream.Bolt {
			return stream.BoltFunc(func(stream.Tuple, stream.Collector) { got++ })
		}, 1).Shuffle("b")
		d := timed(tr, fmt.Sprintf("stream.Topology.Run/b%d", batch), parent, func() {
			// The topology is valid and nothing cancels it; Run's error
			// would only repeat a panic of the closures above.
			_ = t.Run(context.Background())
		})
		sink += got
		return d
	}
	const n64, n1 = 1 << 20, 1 << 17
	set("stream.hop_ns_tuple.b64", perOp(passThrough(64, n64), n64*hops))
	set("stream.hop_ns_tuple.b1", perOp(passThrough(1, n1), n1*hops))

	// One tuple at a time through the idle topology: what flush-on-idle
	// adds to latency when there is nothing to batch with.
	const rounds = 200
	in := make(chan struct{})
	out := make(chan struct{})
	t := stream.NewTopology(64)
	t.SetBatchSize(64)
	t.AddSpout("src", func(int) stream.Spout {
		return stream.SpoutFunc(func(c stream.Collector) bool {
			if _, ok := <-in; !ok {
				return false
			}
			c.Emit("a", stream.Tuple{})
			c.Flush()
			return true
		})
	}, 1, "a")
	t.AddBolt("mid", func(int) stream.Bolt {
		return stream.BoltFunc(func(tu stream.Tuple, c stream.Collector) { c.Emit("b", tu) })
	}, 1, "b").Shuffle("a")
	t.AddBolt("end", func(int) stream.Bolt {
		return stream.BoltFunc(func(stream.Tuple, stream.Collector) { out <- struct{}{} })
	}, 1).Shuffle("b")
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = t.Run(context.Background()) // as above
	}()
	lat := make([]float64, 0, rounds)
	timed(tr, "stream.Topology/idle_tuple", parent, func() {
		for i := 0; i < rounds; i++ {
			start := time.Now()
			in <- struct{}{}
			<-out
			lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3/hops)
		}
	})
	close(in)
	<-done
	set("stream.idle_flush_us", median(lat))
}

// wireBatches cuts the probe's objects into transfer batches of the
// engine's size.
func wireBatches(objs []*model.Object, t0 time.Time) [][]wire.OpEnv {
	var out [][]wire.OpEnv
	for i := 0; i+topoBatchSize <= len(objs); i += topoBatchSize {
		b := make([]wire.OpEnv, topoBatchSize)
		for j := range b {
			b[j] = wire.OpEnv{Op: model.Op{Kind: model.OpObject, Obj: objs[i+j]}, T0: t0}
		}
		out = append(out, b)
	}
	return out
}

// probeWire measures the binary codec alone on 64-entry batches of the
// workload's own operations and matches.
func probeWire(in *inputs, objs []*model.Object, keys [][2]uint64, tr *tracer, parent int, set func(string, float64)) {
	t0 := time.Now()
	if len(objs) > 16384 {
		objs = objs[:16384]
	}
	batches := wireBatches(objs, t0)
	encoded := make([][]byte, len(batches))
	nOps := len(batches) * topoBatchSize
	var buf []byte
	for _, b := range batches { // grow the reused buffer before counting allocations
		buf = wire.AppendOpBatch(buf[:0], 0, b)
	}
	allocs := mallocs()
	d := timed(tr, "wire.AppendOpBatch", parent, func() {
		for i, b := range batches {
			buf = wire.AppendOpBatch(buf[:0], uint64(i), b)
		}
	})
	allocs = mallocs() - allocs
	set("wire.encode_ops_ns_op", perOp(d, nOps))
	set("wire.hot_allocs_per_batch", ratio(float64(allocs), float64(len(batches))))
	for i, b := range batches {
		encoded[i] = wire.AppendOpBatch(nil, uint64(i), b)
	}
	var scratch []wire.OpEnv
	d = timed(tr, "wire.DecodeBinOpBatch", parent, func() {
		for _, p := range encoded {
			ops, _, err := wire.DecodeBinOpBatch(p, scratch[:0])
			if err != nil {
				panic(err) // bytes this function encoded itself
			}
			scratch = ops
		}
	})
	set("wire.decode_ops_ns_op", perOp(d, nOps))

	if len(keys) > 1<<18 {
		keys = keys[:1<<18]
	}
	var mbatches [][]wire.MatchEnv
	for i := 0; i+topoBatchSize <= len(keys); i += topoBatchSize {
		b := make([]wire.MatchEnv, topoBatchSize)
		for j := range b {
			k := keys[i+j]
			b[j] = wire.MatchEnv{M: model.Match{QueryID: k[0], Subscriber: k[0] % 1000, ObjectID: k[1]}, T0: t0}
		}
		mbatches = append(mbatches, b)
	}
	nMatches := len(mbatches) * topoBatchSize
	mencoded := make([][]byte, len(mbatches))
	d = timed(tr, "wire.AppendMatchBatch", parent, func() {
		for _, b := range mbatches {
			buf = wire.AppendMatchBatch(buf[:0], b)
		}
	})
	set("wire.encode_matches_ns_op", perOp(d, nMatches))
	for i, b := range mbatches {
		mencoded[i] = wire.AppendMatchBatch(nil, b)
	}
	var mscratch []wire.MatchEnv
	d = timed(tr, "wire.DecodeBinMatchBatch", parent, func() {
		for _, p := range mencoded {
			ms, err := wire.DecodeBinMatchBatch(p, mscratch[:0])
			if err != nil {
				panic(err) // bytes this function encoded itself
			}
			mscratch = ms
		}
	})
	set("wire.decode_matches_ns_op", perOp(d, nMatches))
}

// probeNode drives worker 0's share of the workload through one
// node.Worker behind loopback TCP, with the wire client the coordinator
// uses: the second worker engine and the transport, without the rest of
// the pipeline.
func probeNode(in *inputs, objs []*model.Object, objTargets, queryTargets [][]int, matchOnW0 int,
	sample *partition.Sample, tr *tracer, parent int, set func(string, float64)) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("probing node: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = node.NewWorker(node.WorkerOptions{}).Serve(ctx, ln) // returns the context's error
	}()
	defer func() {
		cancel()
		<-served
	}()
	client, err := wire.DialWorker(ln.Addr().String(), wire.Hello{
		Role: wire.RoleCoordinator, Task: 0, Workers: topoWorkers,
		Bounds: sample.Bounds, Granularity: grid.DefaultGranularity, BatchSize: topoBatchSize,
		Terms: sample.Stats.Vector(), Streams: topoDispatchers,
	}, wire.Backoff{})
	if err != nil {
		return fmt.Errorf("probing node: %w", err)
	}
	defer client.Close()

	// The receiver the coordinator's match spout would be.
	var received atomic.Int64
	got := make(chan struct{}, 1)
	recvDone := make(chan error, 1)
	go func() {
		for {
			mb, err := client.RecvMatches()
			if err != nil {
				recvDone <- err
				return
			}
			received.Add(int64(len(mb.Matches)))
			select {
			case got <- struct{}{}:
			default:
			}
		}
	}()
	// settle drains the session and waits until the receiver has taken
	// every match the worker emitted, so the next round starts quiet.
	settle := func() error {
		ack, err := client.Drain()
		for err == nil && received.Load() < ack.Emitted {
			runtime.Gosched()
		}
		return err
	}

	t0 := time.Now()
	send := func(ops []wire.OpEnv) error {
		for i := 0; i < len(ops); i += topoBatchSize {
			if err := client.SendOps(wire.OpBatch{Ops: ops[i:min(i+topoBatchSize, len(ops))]}); err != nil {
				return err
			}
		}
		return settle()
	}
	var inserts, objOps []wire.OpEnv
	for i, q := range in.standingQ {
		if slices.Contains(queryTargets[i], 0) {
			inserts = append(inserts, wire.OpEnv{Op: model.Op{Kind: model.OpInsert, Query: q}, T0: t0})
		}
	}
	for i, o := range objs {
		if slices.Contains(objTargets[i], 0) {
			objOps = append(objOps, wire.OpEnv{Op: model.Op{Kind: model.OpObject, Obj: o}, T0: t0})
		}
	}
	var sendErr error
	timed(tr, "node.Worker/inserts", parent, func() { sendErr = send(inserts) })
	if sendErr != nil {
		return fmt.Errorf("probing node: %w", sendErr)
	}
	d := timed(tr, "node.Worker/objects", parent, func() { sendErr = send(objOps) })
	if sendErr != nil {
		return fmt.Errorf("probing node: %w", sendErr)
	}
	set("node.worker_ns_op", perOp(d, len(objOps)))

	const rounds = 50
	var drains, rtts []float64
	timed(tr, "node.Worker/drain_rtt", parent, func() {
		for i := 0; i < rounds && sendErr == nil; i++ {
			start := time.Now()
			_, sendErr = client.Drain()
			drains = append(drains, float64(time.Since(start).Nanoseconds())/1e3)
		}
	})
	if sendErr != nil {
		return fmt.Errorf("probing node: %w", sendErr)
	}
	set("node.drain_rtt_us", median(drains))

	// One 64-operation batch whose first object is known to match on
	// this worker: time from SendOps to the first match batch back.
	if matchOnW0 >= 0 {
		batch := make([]wire.OpEnv, topoBatchSize)
		for j := range batch {
			batch[j] = wire.OpEnv{Op: model.Op{Kind: model.OpObject, Obj: objs[matchOnW0]}, T0: t0}
		}
		timed(tr, "node.Worker/batch_rtt", parent, func() {
			for i := 0; i < rounds && sendErr == nil; i++ {
				select {
				case <-got:
				default:
				}
				start := time.Now()
				if sendErr = client.SendOps(wire.OpBatch{Ops: batch}); sendErr != nil {
					return
				}
				select {
				case <-got:
				case err := <-recvDone:
					sendErr = fmt.Errorf("match stream ended early: %w", err)
					return
				}
				rtts = append(rtts, float64(time.Since(start).Nanoseconds())/1e3)
				sendErr = settle()
			}
		})
		if sendErr != nil {
			return fmt.Errorf("probing node: %w", sendErr)
		}
	}
	set("node.batch_rtt_us_p50", median(rtts))

	if err := client.CloseSend(); err != nil {
		return fmt.Errorf("probing node: %w", err)
	}
	if err := <-recvDone; !errors.Is(err, io.EOF) {
		return fmt.Errorf("probing node: match stream ended with %w", err)
	}
	return nil
}
