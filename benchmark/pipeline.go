package main

import (
	"math"
	"time"
)

// pipeline is the pipeline part of the traced run: the same phases as
// the timed run with the admin endpoint on, and /statsz read once at
// each phase boundary — never during a phase — so that what it reads
// are the stage histograms, gauges and counters the program already
// exports. A nil pipeline (the timed run) does nothing.
type pipeline struct {
	rn   *runner
	tr   *tracer
	root int

	marks      map[string]*scrape
	queueDepth float64 // largest worker queue depth seen when a closed segment stopped sending
}

// mark scrapes /statsz and keeps the reading under name.
func (p *pipeline) mark(name string) error {
	if p == nil {
		return nil
	}
	sp := p.tr.start("scrape_"+name, p.root)
	defer p.tr.end(sp)
	s, err := scrapeStatsz(p.rn.cl.sys.AdminAddr())
	if err != nil {
		return err
	}
	if p.marks == nil {
		p.marks = map[string]*scrape{}
	}
	p.marks[name] = s
	return nil
}

// segmentSent is called when a closed-loop segment has sent its last
// operation and not yet flushed: the one moment the queues are as full
// as the closed loop makes them.
func (p *pipeline) segmentSent() {
	if p == nil {
		return
	}
	s, err := scrapeStatsz(p.rn.cl.sys.AdminAddr())
	if err != nil {
		return // the phase-boundary scrapes report the failure
	}
	p.queueDepth = math.Max(p.queueDepth, s.sum("ps2_queue_depth_batches", "bolt", "worker"))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics derives the core.* and the pipeline-side wire.* metrics from
// the phase-boundary scrapes.
func (p *pipeline) metrics(set func(string, float64), closedWall time.Duration, submitted float64, dispatcherBytes int64) {
	warm, closed, open := p.marks["after_warmup"], p.marks["after_closed"], p.marks["after_open"]
	wall := closedWall.Seconds()

	// A stage that is busy while the one before it queues is the
	// bottleneck: busy share = stage seconds / (wall × tasks).
	set("core.dispatch_busy_share", ratio(stageBetween(warm, closed, "dispatch").seconds, wall*topoDispatchers))
	set("core.worker_busy_share", ratio(stageBetween(warm, closed, "worker").seconds, wall*topoWorkers))
	set("core.merge_busy_share", ratio(stageBetween(warm, closed, "merge").seconds, wall*topoMergers))
	workOpen := stageBetween(closed, open, "worker")
	set("core.dispatch_batch_us_p50", stageBetween(closed, open, "dispatch").p50us)
	set("core.worker_batch_us_p50", workOpen.p50us)
	set("core.merge_batch_us_p50", stageBetween(closed, open, "merge").p50us)
	set("core.worker_queue_depth_max", p.queueDepth)
	tuples := open.sum("ps2_bolt_processed_total", "bolt", "worker") - closed.sum("ps2_bolt_processed_total", "bolt", "worker")
	set("core.mean_batch_fill", ratio(tuples, workOpen.batches*topoBatchSize))

	perWorker := map[string]float64{}
	open.each("ps2_worker_ops_total", func(l map[string]string, v float64) { perWorker[l["worker"]] += v })
	var workerOps, maxOps float64
	for _, v := range perWorker {
		workerOps += v
		maxOps = math.Max(maxOps, v)
	}
	set("core.total_workload_ratio", ratio(workerOps, submitted))
	set("core.worker_ops_skew", ratio(maxOps, workerOps/float64(len(perWorker))))
	set("core.balance_factor", open.sum("ps2_balance_factor"))
	delivered := open.sum("ps2_matches_delivered_total")
	dups := open.sum("ps2_matches_duplicates_total")
	set("core.dup_match_share", ratio(dups, delivered+dups))
	set("core.dispatcher_bytes_per_op", ratio(float64(dispatcherBytes), float64(len(p.rn.in.standing))))

	// The wire series exist only when a worker hop is remote; elsewhere
	// these read 0.
	set("wire.bytes_per_op", ratio(open.sum("ps2_wire_bytes_total", "dir", "tx", "kind", "op_batch"), workerOps))
	set("wire.bytes_per_match", ratio(open.sum("ps2_wire_bytes_total", "dir", "rx", "kind", "match_batch"), delivered+dups))
	set("wire.io_busy_share", ratio(closed.sum("ps2_wire_io_seconds", "dir", "tx")-warm.sum("ps2_wire_io_seconds", "dir", "tx"), wall))
}
