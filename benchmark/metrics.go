package main

// metricDef names one metric. BENCHMARK.json carries the same names,
// units and directions (and the end-to-end bounds); a test keeps the two
// in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Exact marks counts and ratios that must repeat exactly at a fixed
	// seed on the objects-only workloads, so a later issue may rest a
	// claim on one.
	Exact   bool
	Meaning string
}

// endToEnd are the metrics a subscriber or an operator would feel, the
// same names on every workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Meaning: "median wall time of phase 1: fit the partitioner, open, register the standing subscriptions, flush, GC"},
	{Name: "state_heap_mb", Unit: "MB", Better: "lower", Meaning: "median HeapInuse growth over set-up, after GC: what the standing subscriptions cost to hold"},
	{Name: "capacity_ops_s", Unit: "ops/s", Better: "higher", Meaning: "closed-loop rate: the operations of all segments over the time of all segments, publish through flush"},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Meaning: "median due-time to OnMatch latency: the median over the open loop's eight windows of each window's median"},
	{Name: "lat_p90_us", Unit: "us", Better: "lower", Meaning: "the same for each window's 90th percentile"},
	{Name: "cpu_s_per_mop", Unit: "s/Mop", Better: "lower", Meaning: "process CPU (user+sys) per million operations over the open loop, at its fixed rate"},
}

// perLayer are the metrics of single layers, measured by the traced run.
var perLayer = []metricDef{
	{Name: "ps2stream.publish_ns_op", Unit: "ns", Better: "lower", Meaning: "mean time inside Publish/Subscribe/Unsubscribe, closed loop"},
	{Name: "ps2stream.publish_block_p99_us", Unit: "us", Better: "lower", Meaning: "p99 time inside one publishing call in the open loop: the backpressure the caller feels"},
	{Name: "ps2stream.lat_p99_us", Unit: "us", Better: "lower", Meaning: "p99 due-time to OnMatch latency, open loop"},
	{Name: "ps2stream.lat_p999_us", Unit: "us", Better: "lower", Meaning: "p99.9 of the same"},
	{Name: "ps2stream.on_time_share", Unit: "ratio", Better: "higher", Meaning: "open-loop deliveries within 50 ms of their due time; a missing delivery counts as late"},
	{Name: "ps2stream.subscribe_us_op", Unit: "us", Better: "lower", Meaning: "set-up wall time from the first Subscribe to the end of Flush, per standing subscription"},

	{Name: "textutil.tokenize_ns_op", Unit: "ns", Better: "lower", Meaning: "textutil.Tokenize per pooled message text"},

	{Name: "hybrid.build_ms", Unit: "ms", Better: "lower", Meaning: "hybrid.Builder.Build on the seed sample"},
	{Name: "hybrid.route_object_ns_op", Unit: "ns", Better: "lower", Meaning: "GridT.RouteObject per pooled object"},
	{Name: "hybrid.route_query_ns_op", Unit: "ns", Better: "lower", Meaning: "GridT.RouteQuery per call, inserts and deletes"},
	{Name: "hybrid.object_fanout", Unit: "count", Better: "lower", Exact: true, Meaning: "workers per routed (not discarded) object"},
	{Name: "hybrid.discard_share", Unit: "ratio", Better: "higher", Exact: true, Meaning: "objects RouteObject sends to no worker"},
	{Name: "hybrid.query_fanout", Unit: "count", Better: "lower", Exact: true, Meaning: "workers per standing subscription"},
	{Name: "hybrid.footprint_mb", Unit: "MB", Better: "lower", Exact: true, Meaning: "GridT.Footprint with the standing subscriptions routed"},

	{Name: "core.dispatch_busy_share", Unit: "ratio", Better: "lower", Meaning: "dispatch stage seconds / (wall x dispatcher tasks), closed loop"},
	{Name: "core.worker_busy_share", Unit: "ratio", Better: "lower", Meaning: "worker stage seconds / (wall x worker tasks), closed loop; 0 when the workers are remote"},
	{Name: "core.merge_busy_share", Unit: "ratio", Better: "lower", Meaning: "merge stage seconds / (wall x merger tasks), closed loop"},
	{Name: "core.dispatch_batch_us_p50", Unit: "us", Better: "lower", Meaning: "median dispatch batch time, open loop, interpolated from the stage histogram"},
	{Name: "core.worker_batch_us_p50", Unit: "us", Better: "lower", Meaning: "median worker batch time, open loop"},
	{Name: "core.merge_batch_us_p50", Unit: "us", Better: "lower", Meaning: "median merge batch time, open loop"},
	{Name: "core.worker_queue_depth_max", Unit: "count", Better: "lower", Meaning: "largest worker input queue depth in batches, read when each closed segment stops sending"},
	{Name: "core.mean_batch_fill", Unit: "ratio", Better: "higher", Meaning: "tuples per worker batch / BatchSize, open loop"},
	{Name: "core.total_workload_ratio", Unit: "ratio", Better: "lower", Exact: true, Meaning: "worker operations / operations submitted: the paper's total workload"},
	{Name: "core.worker_ops_skew", Unit: "ratio", Better: "lower", Exact: true, Meaning: "max / mean of per-worker operation counts"},
	{Name: "core.balance_factor", Unit: "ratio", Better: "lower", Exact: true, Meaning: "ps2_balance_factor: max / min Definition-1 worker load"},
	{Name: "core.dup_match_share", Unit: "ratio", Better: "lower", Exact: true, Meaning: "matches the mergers dropped as duplicates / matches they received"},
	{Name: "core.dispatcher_bytes_per_op", Unit: "B", Better: "lower", Exact: true, Meaning: "Stats().DispatcherBytes per standing subscription registered"},

	{Name: "stream.hop_ns_tuple.b64", Unit: "ns", Better: "lower", Meaning: "per tuple and hop through a 3-stage pass-through Topology, batch size 64"},
	{Name: "stream.hop_ns_tuple.b1", Unit: "ns", Better: "lower", Meaning: "the same with batch size 1"},
	{Name: "stream.idle_flush_us", Unit: "us", Better: "lower", Meaning: "median time of one tuple through the idle 3-stage Topology, per hop"},

	{Name: "gi2.match_ns_op", Unit: "ns", Better: "lower", Meaning: "gi2.Index.Match per (object, worker) call"},
	{Name: "gi2.match_allocs_op", Unit: "count", Better: "lower", Meaning: "heap allocations per Match call"},
	{Name: "gi2.matches_per_object", Unit: "count", Better: "lower", Exact: true, Meaning: "distinct matching standing subscriptions per pooled object"},
	{Name: "gi2.insert_ns_op", Unit: "ns", Better: "lower", Meaning: "gi2.Index.Insert per (subscription, worker) call"},
	{Name: "gi2.delete_ns_op", Unit: "ns", Better: "lower", Meaning: "gi2.Index.Delete per call (lazy: a tombstone)"},
	{Name: "gi2.purge_ms", Unit: "ms", Better: "lower", Meaning: "gi2.Index.Purge over four indexes after deleting every tenth subscription"},
	{Name: "gi2.footprint_mb", Unit: "MB", Better: "lower", Exact: true, Meaning: "sum of gi2.Index.Footprint over the four workers"},
	{Name: "gi2.entries_per_query", Unit: "count", Better: "lower", Exact: true, Meaning: "(cell, term, query) entries per distinct query held"},

	{Name: "dedup.observe_ns_op", Unit: "ns", Better: "lower", Meaning: "dedup.Window.Observe per match of the replayed match stream"},
	{Name: "dedup.dup_share", Unit: "ratio", Better: "lower", Exact: true, Meaning: "replayed matches Observe reports as duplicates"},

	{Name: "wire.encode_ops_ns_op", Unit: "ns", Better: "lower", Meaning: "wire.AppendOpBatch per operation, 64-operation batches"},
	{Name: "wire.decode_ops_ns_op", Unit: "ns", Better: "lower", Meaning: "wire.DecodeBinOpBatch per operation"},
	{Name: "wire.encode_matches_ns_op", Unit: "ns", Better: "lower", Meaning: "wire.AppendMatchBatch per match, 64-match batches"},
	{Name: "wire.decode_matches_ns_op", Unit: "ns", Better: "lower", Meaning: "wire.DecodeBinMatchBatch per match"},
	{Name: "wire.bytes_per_op", Unit: "B", Better: "lower", Meaning: "op_batch bytes sent / operations handed to workers, whole run; 0 in-process"},
	{Name: "wire.bytes_per_match", Unit: "B", Better: "lower", Meaning: "match_batch bytes received / matches the mergers received; 0 in-process"},
	{Name: "wire.io_busy_share", Unit: "ratio", Better: "lower", Meaning: "ps2_wire_io_seconds{dir=tx} gained over the closed loop / wall; 0 in-process"},
	{Name: "wire.hot_allocs_per_batch", Unit: "count", Better: "lower", Meaning: "heap allocations per encode of one 64-operation batch into a reused buffer"},

	{Name: "node.worker_ns_op", Unit: "ns", Better: "lower", Meaning: "per operation through one node.Worker over loopback, SendOps to Drain"},
	{Name: "node.batch_rtt_us_p50", Unit: "us", Better: "lower", Meaning: "median time from SendOps of one 64-operation batch to its first RecvMatches"},
	{Name: "node.drain_rtt_us", Unit: "us", Better: "lower", Meaning: "median Drain round trip on an idle session"},

	{Name: "workload.gen_late_p99_us", Unit: "us", Better: "lower", Meaning: "p99 of how late the open-loop generator sent an operation"},
	{Name: "workload.gen_late_max_us", Unit: "us", Better: "lower", Meaning: "the latest it ever was"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}
