package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// metricValue is one measured value with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is everything one run of one workload reports.
type workloadResult struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Inproc     bool    `json:"inproc,omitempty"`
	Quick      bool    `json:"quick,omitempty"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`

	Phases     phases  `json:"phases"`
	OpenRate   float64 `json:"open_rate_ops_s"`
	OpenOps    uint64  `json:"open_ops"`
	SegmentOps uint64  `json:"closed_segment_ops"`
	InputSHA   string  `json:"input_sha"`

	MatchesTotal  int64       `json:"matches_total"`
	MatchChecksum string      `json:"match_checksum"`
	ChurnMatches  int64       `json:"churn_matches"`
	Check         checkResult `json:"check"`
	Attempted     int64       `json:"attempted"`
	Failed        int64       `json:"failed"`
	FailedShare   float64     `json:"failed_share"`
	SentInS       float64     `json:"open_sent_in_s"`

	// Samples are the sample counts behind the percentiles.
	Samples  map[string]int64       `json:"samples"`
	EndToEnd map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	// Detail holds figures printed for the reader but not part of either
	// metric set (per-segment rates, generator lateness on the timed run).
	Detail    map[string]float64 `json:"detail"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// wholeObjects rounds an operation count to a multiple of stride, so that
// every phase starts on an object.
func wholeObjects(n float64, stride uint64) uint64 {
	v := uint64(math.Round(n))
	v -= v % stride
	if v < stride {
		v = stride
	}
	return v
}

// runWorkload generates a workload's inputs from the seed, drives them
// through the public API and checks what was delivered.
func runWorkload(spec workloadSpec, seed int64, opts runOptions, hooks *testHooks) (*workloadResult, error) {
	ph := planPhases(opts.seconds, opts.trace)
	res := &workloadResult{
		Workload: spec.Name, Seed: seed, Seconds: opts.seconds, Trace: opts.trace, Inproc: opts.inproc,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Phases: ph, OpenRate: spec.OpenRate,
		Samples: map[string]int64{}, Detail: map[string]float64{},
	}
	var tr *tracer
	if opts.trace {
		tr = newTracer(spec.Name)
	}
	root := tr.start("run", 0)

	genSpan := tr.start("generate", root)
	in := generate(spec, seed)
	res.InputSHA = in.sha
	stride := in.stride()
	sample := sampleIndexes(len(in.pool), checkSample, seed)
	expected := expectedSets(in.standingQ, in.poolObjs, sample)
	tr.end(genSpan)
	if !opts.trace {
		// The timed run needs the model forms no longer (the probes do);
		// dropping them keeps the harness's heap out of the program's GC.
		in.standingQ, in.seedObjs, in.seedQrys = nil, nil, nil
		if in.queryOps == nil {
			in.poolObjs = nil
		}
	}

	warmOps := wholeObjects(spec.OpenRate*ph.WarmS, stride)
	segOps := wholeObjects(spec.ClosedRate*ph.SegmentS, stride)
	openOps := wholeObjects(spec.OpenRate*ph.OpenS, stride)
	res.SegmentOps, res.OpenOps = segOps, openOps
	totalObjs := (warmOps + uint64(ph.Segments)*segOps + openOps) / stride

	// Size the sample log for every published copy of every sampled
	// object, doubled for deliveries to churning subscriptions.
	var perPass int
	for _, e := range expected {
		perPass += len(e)
	}
	passes := int(totalObjs/uint64(len(in.pool))) + 1
	rec := newRecorder(in, sample, 2*perPass*passes+4096)
	if hooks != nil {
		rec.tamper = hooks.tamper
	}
	rn := &runner{in: in, opts: opts, rec: rec}

	// Phase 1, set-up, several times over: set-up time is a metric a
	// later change may trade against, so it gets a median like the rest.
	var setupS, heapMB []float64
	for s := 0; s < ph.Setups; s++ {
		if rn.cl != nil {
			if err := rn.cl.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", s, err)
			}
			rn.cl = nil
		}
		before := heapInuseMB()
		sp := tr.start("setup", root)
		admin := ""
		if opts.trace {
			admin = "127.0.0.1:0"
		}
		cl, took, err := rn.openCluster(admin)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		rn.cl = cl
		setupS = append(setupS, took)
		heapMB = append(heapMB, heapInuseMB()-before)
	}
	var pipe *pipeline
	if opts.trace {
		pipe = &pipeline{rn: rn, tr: tr, root: root}
		if err := pipe.mark("after_setup"); err != nil {
			return nil, err
		}
	}

	// Phase 2, warm-up: the paced stream, discarded.
	sp := tr.start("warmup", root)
	rn.openLoop(warmOps, spec.OpenRate, false, nil)
	tr.end(sp)
	if err := pipe.mark("after_warmup"); err != nil {
		return nil, err
	}

	// Phase 3, closed loop: here the caller waits on the pipeline's own
	// backpressure, so the rate it reaches is the capacity. That rate is
	// all the segments' operations over all their time, not the median
	// segment rate: a segment that contains a garbage collection runs a
	// third slower than one that does not, so the segment rates fall in
	// two groups and their median sits in whichever is larger, blind to
	// the cost of collecting. The segments stay because each Flush bounds
	// the backlog, and their rates are printed.
	var closedWall, inPublish time.Duration
	for s := 0; s < ph.Segments; s++ {
		sp := tr.start(fmt.Sprintf("closed_segment_%d", s), root)
		took, pub := rn.closedSegment(segOps, pipe)
		tr.end(sp)
		closedWall += took
		inPublish += pub
		res.Detail[fmt.Sprintf("closed_segment_%02d_ops_s", s)] = float64(segOps) / took.Seconds()
	}
	totalClosed := float64(uint64(ph.Segments) * segOps)
	capacity := totalClosed / closedWall.Seconds()
	if err := pipe.mark("after_closed"); err != nil {
		return nil, err
	}

	// Phase 4, open loop at the frozen rate.
	sp = tr.start("open_loop", root)
	cpu0 := cpuSeconds()
	var stall func(uint64)
	if hooks != nil {
		stall = hooks.stall
	}
	sentIn := rn.openLoop(openOps, spec.OpenRate, true, stall)
	cpu1 := cpuSeconds()
	tr.end(sp)
	if err := pipe.mark("after_open"); err != nil {
		return nil, err
	}
	res.SentInS = sentIn.Seconds()

	stats := rn.cl.sys.Stats()
	dispatcherBytes := stats.DispatcherBytes
	res.Detail["discarded_share"] = float64(stats.Discarded) / float64(rn.nextOp/stride)
	if err := rn.cl.close(); err != nil {
		return nil, fmt.Errorf("closing the system: %w", err)
	}

	// The check: every published copy of every sampled object.
	res.Check = checkDeliveries(rec, sample, expected, rn.nextOp/stride)
	res.MatchesTotal = rec.matches.Load()
	res.MatchChecksum = fmt.Sprintf("%016x", rec.checksum.Load())
	res.ChurnMatches = rec.churnMatches.Load()
	res.Attempted = rn.attempts
	res.Failed = rn.apiErrs + res.Check.wrong() + rec.churnFalse.Load()
	res.FailedShare = float64(res.Failed) / float64(res.Attempted)

	// Percentiles per window of the open loop, then the median over the
	// windows; the whole-loop histogram gives the tail.
	var all hist
	var p50s, p90s []float64
	for w := range rec.lat {
		all.merge(&rec.lat[w])
		if rec.lat[w].count() > 0 {
			p50s = append(p50s, rec.lat[w].quantile(0.50)/1e3)
			p90s = append(p90s, rec.lat[w].quantile(0.90)/1e3)
		}
	}
	delivered := all.count()
	onTime := float64(rec.onTime.Load()) / float64(delivered+res.Check.Missing)
	res.Samples["lat"] = delivered
	res.Samples["lat_windows"] = int64(len(p50s))
	res.Samples["lat_beyond_p99"] = all.beyond(0.99)
	res.Samples["lat_beyond_p999"] = all.beyond(0.999)
	res.Samples["gen_late"] = rn.genLate.count()
	res.Detail["gen_late_p99_us"] = rn.genLate.quantile(0.99) / 1e3
	res.Detail["gen_late_max_us"] = float64(rn.genLate.max.Load()) / 1e3
	res.Detail["lat_p99_us"] = all.quantile(0.99) / 1e3
	res.Detail["lat_max_us"] = float64(all.max.Load()) / 1e3
	res.Detail["on_time_share"] = onTime

	if !opts.trace {
		res.EndToEnd = map[string]metricValue{
			"setup_s":        {median(setupS), "s"},
			"state_heap_mb":  {median(heapMB), "MB"},
			"capacity_ops_s": {capacity, "ops/s"},
			"lat_p50_us":     {median(p50s), "us"},
			"lat_p90_us":     {median(p90s), "us"},
			"cpu_s_per_mop":  {(cpu1 - cpu0) / (float64(openOps) / 1e6), "s/Mop"},
		}
		for name, v := range res.EndToEnd {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
				return nil, fmt.Errorf("metric %s = %v is not a positive number (%d deliveries in the open loop)", name, v.Value, delivered)
			}
		}
		return res, nil
	}

	res.PerLayer = map[string]metricValue{}
	// A figure with nothing behind it (no match on worker 0 to time, no
	// remote hop) reads 0, as the metric's meaning says.
	set := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.PerLayer[name] = metricValue{v, unitOf(perLayer, name)}
	}
	set("ps2stream.publish_ns_op", float64(inPublish.Nanoseconds())/totalClosed)
	set("ps2stream.publish_block_p99_us", rn.pubBlock.quantile(0.99)/1e3)
	set("ps2stream.lat_p99_us", all.quantile(0.99)/1e3)
	set("ps2stream.lat_p999_us", all.quantile(0.999)/1e3)
	set("ps2stream.on_time_share", onTime)
	set("ps2stream.subscribe_us_op", rn.subscribeS*1e6/float64(len(in.standing)))
	set("workload.gen_late_p99_us", rn.genLate.quantile(0.99)/1e3)
	set("workload.gen_late_max_us", float64(rn.genLate.max.Load())/1e3)
	res.Detail["capacity_ops_s_traced"] = capacity
	pipe.metrics(set, closedWall, float64(rn.attempts), dispatcherBytes)

	probeSpan := tr.start("layer_probes", root)
	if err := runProbes(in, tr, probeSpan, set); err != nil {
		return nil, err
	}
	tr.end(probeSpan)
	tr.end(root)
	for _, d := range perLayer {
		if _, ok := res.PerLayer[d.Name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.Name)
		}
	}
	if opts.traceDir != "" {
		path, err := tr.write(opts.traceDir)
		if err != nil {
			return nil, fmt.Errorf("writing the trace: %w", err)
		}
		res.TraceFile = path
	}
	return res, nil
}

// testHooks let the harness's own tests break a run on purpose.
type testHooks struct {
	// tamper sees every delivery and returns what to record instead.
	tamper func(d delivery) []delivery
	// stall is called in the measured open loop before each wake-up's
	// sends, with the index of the next operation.
	stall func(k uint64)
}
