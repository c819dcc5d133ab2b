package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ps2stream"
	"ps2stream/internal/node"
)

// latWindows is the number of equal windows the open loop is cut into.
const latWindows = 8

// limitMs is the latency limit of on_time_share: a delivery counts as on
// time when OnMatch is called within this long of the moment its message
// was due to be published.
const limitMs = 50

// phases is how a run's measured seconds are divided. The closed loop
// comes first because it needs no pacing and warms every path the open
// loop then measures.
type phases struct {
	WarmS    float64 `json:"warm_s"`
	Segments int     `json:"closed_segments"`
	SegmentS float64 `json:"closed_segment_s"`
	OpenS    float64 `json:"open_s"`
	Setups   int     `json:"setups"`
}

// planPhases splits `seconds` of measuring into warm-up (8%), sixteen
// closed-loop segments (2% each) and the open loop (60%). The traced run
// halves all of these to leave time for the layer probes, and sets up
// once.
func planPhases(seconds float64, trace bool) phases {
	if trace {
		return phases{WarmS: 0.04 * seconds, Segments: 8, SegmentS: 0.02 * seconds, OpenS: 0.3 * seconds, Setups: 1}
	}
	return phases{WarmS: 0.08 * seconds, Segments: 16, SegmentS: 0.02 * seconds, OpenS: 0.6 * seconds, Setups: 3}
}

// delivery is one OnMatch call on a sampled object.
type delivery struct{ sub, msg uint64 }

// recorder is the OnMatch side of a run. Everything the callback touches
// is an atomic or a slot of a pre-sized log claimed by an atomic add, so
// the two merger tasks never wait for each other in here.
type recorder struct {
	in   *inputs
	base time.Time

	matches  atomic.Int64
	checksum atomic.Uint64
	// Churning subscriptions (ids from churnIDBase): deliveries are
	// checked for a true predicate only, because whether a subscription
	// already saw an object published beside it depends on which
	// dispatcher ran first.
	churnMatches atomic.Int64
	churnFalse   atomic.Int64

	// Open-loop window: objects openFirst..openFirst+openCount-1 (global
	// object indexes) are due at openStartNs + k·stride·periodNs.
	openFirst   atomic.Uint64
	openCount   atomic.Uint64
	openStartNs atomic.Int64
	periodNs    float64
	// lat holds one histogram per window of the open loop (windows by due
	// time). The end-to-end percentiles are medians over the windows, so
	// that a stall of the machine spoils a window or two, not the run.
	lat    [latWindows]hist
	onTime atomic.Int64

	// sampleSlot[poolIndex] is 1 + the object's slot in the check sample,
	// or 0. log collects every delivery on a sampled object.
	sampleSlot []int32
	log        []delivery
	logN       atomic.Int64

	// tamper, when set by the harness's own tests, sees every delivery
	// first and returns what to record in its place.
	tamper func(d delivery) []delivery
}

func newRecorder(in *inputs, sample []int, logCap int) *recorder {
	r := &recorder{in: in, base: time.Now(), sampleSlot: make([]int32, len(in.pool)), log: make([]delivery, logCap)}
	for slot, idx := range sample {
		r.sampleSlot[idx] = int32(slot + 1)
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func pairHash(sub, msg uint64) uint64 {
	x := sub*0x9E3779B97F4A7C15 ^ (msg + 0xD1B54A32D192ED03)
	x ^= x >> 32
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 32
	return x
}

func (r *recorder) onMatch(m ps2stream.Match) {
	if r.tamper != nil {
		for _, d := range r.tamper(delivery{m.SubscriptionID, m.MessageID}) {
			r.record(d.sub, d.msg)
		}
		return
	}
	r.record(m.SubscriptionID, m.MessageID)
}

func (r *recorder) record(sub, msg uint64) {
	r.matches.Add(1)
	r.checksum.Add(pairHash(sub, msg))
	g := msg - 1 // global object index
	pi := g % uint64(len(r.in.pool))
	if sub >= churnIDBase {
		r.churnMatches.Add(1)
		slot := (sub - churnIDBase) % uint64(len(r.in.churnQ))
		if !r.in.churnQ[slot].Matches(r.in.poolObjs[pi]) {
			r.churnFalse.Add(1)
		}
	}
	if k, n := g-r.openFirst.Load(), r.openCount.Load(); k < n {
		due := r.openStartNs.Load() + int64(float64(k*r.in.stride())*r.periodNs)
		d := r.now() - due
		r.lat[k*latWindows/n].record(d)
		if d <= limitMs*int64(time.Millisecond) {
			r.onTime.Add(1)
		}
	}
	if r.sampleSlot[pi] != 0 {
		if i := r.logN.Add(1) - 1; i < int64(len(r.log)) {
			r.log[i] = delivery{sub, msg}
		}
	}
}

// cluster is a system under test with the loopback worker nodes it may
// be dialled to.
type cluster struct {
	sys    *ps2stream.System
	cancel context.CancelFunc
	nodes  sync.WaitGroup
}

func (c *cluster) close() error {
	err := c.sys.Close()
	if c.cancel != nil {
		c.cancel()
		c.nodes.Wait()
	}
	return err
}

// runOptions are the switches of one workload run.
type runOptions struct {
	seconds float64
	trace   bool
	// inproc runs a Remote workload with in-process workers: the
	// calibration-only control that shows what the wire costs.
	inproc bool
	// traceDir is where the traced run writes trace-<workload>.json;
	// empty writes nothing.
	traceDir string
}

// runner drives one workload through the public API.
type runner struct {
	in   *inputs
	opts runOptions
	rec  *recorder
	cl   *cluster

	nextOp   uint64 // next operation index of the stream
	apiErrs  int64
	attempts int64
	// subscribeS is the last set-up's time from the first Subscribe to
	// the end of Flush.
	subscribeS float64

	genLate  hist // open loop: how late each operation was sent
	pubBlock hist // open loop, traced run only: time inside each call
}

// openCluster is phase 1, set-up: fit the partitioner to the seed
// sample, start the topology, register every standing subscription and
// wait until all of them are applied.
func (rn *runner) openCluster(adminAddr string) (*cluster, float64, error) {
	in := rn.in
	start := time.Now()
	cl := &cluster{}
	opts := ps2stream.Options{
		Region:            in.region,
		Workers:           topoWorkers,
		Dispatchers:       topoDispatchers,
		Mergers:           topoMergers,
		BatchSize:         topoBatchSize,
		Strategy:          ps2stream.StrategyHybrid,
		WorkerIndex:       ps2stream.WorkerIndexGI2,
		SeedMessages:      in.seedMsgs,
		SeedSubscriptions: in.seedSubs,
		OnMatch:           rn.rec.onMatch,
		AdminAddr:         adminAddr,
	}
	if in.spec.Remote && !rn.opts.inproc {
		ctx, cancel := context.WithCancel(context.Background())
		cl.cancel = cancel
		for i := 0; i < topoWorkers; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				cancel()
				cl.nodes.Wait()
				return nil, 0, fmt.Errorf("listening for worker node %d: %w", i, err)
			}
			opts.RemoteWorkers = append(opts.RemoteWorkers, ln.Addr().String())
			cl.nodes.Add(1)
			go func() {
				defer cl.nodes.Done()
				// Serve returns the context's error once cancelled.
				_ = node.NewWorker(node.WorkerOptions{}).Serve(ctx, ln)
			}()
		}
	}
	sys, err := ps2stream.Open(opts)
	if err != nil {
		if cl.cancel != nil {
			cl.cancel()
			cl.nodes.Wait()
		}
		return nil, 0, fmt.Errorf("opening the system: %w", err)
	}
	cl.sys = sys
	subStart := time.Now()
	for i := range in.standing {
		rn.attempts++
		if err := sys.Subscribe(in.standing[i]); err != nil {
			rn.apiErrs++
		}
	}
	sys.Flush()
	rn.subscribeS = time.Since(subStart).Seconds()
	runtime.GC()
	return cl, time.Since(start).Seconds(), nil
}

// heapInuseMB reads HeapInuse after two collections: the second one
// empties the sync.Pool victim caches the first one filled, which
// otherwise come and go with the timing of earlier collections.
func heapInuseMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Sec) + float64(ru.Utime.Usec)/1e6 + float64(ru.Stime.Sec) + float64(ru.Stime.Usec)/1e6
}

// doOp sends operation i of the stream: a pooled object under a fresh
// message id, or on a churning workload the query operation after it.
func (rn *runner) doOp(i uint64) {
	in := rn.in
	rn.attempts++
	stride := in.stride()
	g := i / stride
	pi := g % uint64(len(in.pool))
	if i%stride == 0 {
		m := in.pool[pi]
		// Fresh id per pass: a re-published id would sit in the mergers'
		// dedup window and its matches would be dropped as duplicates.
		m.ID = g + 1
		rn.cl.sys.Publish(m)
		return
	}
	q := in.queryOps[pi]
	sub := in.churn[q.slot]
	sub.ID = churnIDBase + (g/uint64(len(in.pool)))*uint64(len(in.churn)) + uint64(q.slot)
	var err error
	if q.insert {
		err = rn.cl.sys.Subscribe(sub)
	} else {
		err = rn.cl.sys.Unsubscribe(sub)
	}
	if err != nil {
		rn.apiErrs++
	}
}

// closedSegment publishes n operations as fast as this one goroutine can
// and waits for the pipeline to drain. It returns how long that took and
// the time spent inside the publishing calls alone.
func (rn *runner) closedSegment(n uint64, pipe *pipeline) (took, inPublish time.Duration) {
	start := time.Now()
	end := rn.nextOp + n
	for i := rn.nextOp; i < end; i++ {
		rn.doOp(i)
	}
	rn.nextOp = end
	inPublish = time.Since(start)
	pipe.segmentSent()
	rn.cl.sys.Flush()
	return time.Since(start), inPublish
}

// openLoop publishes n operations on a fixed schedule: operation k is
// due at start + k/rate whatever the system does. It sends everything
// that is due, then sleeps. With measure set, deliveries are timed from
// each message's due time. stall, used by the harness's tests, is called
// before each wake-up's sends with the index of the next operation.
func (rn *runner) openLoop(n uint64, rate float64, measure bool, stall func(k uint64)) (sentIn time.Duration) {
	rec := rn.rec
	period := 1e9 / rate
	first := rn.nextOp
	stride := rn.in.stride()
	startNs := rec.now()
	if measure {
		rec.periodNs = period
		rec.openStartNs.Store(startNs)
		rec.openFirst.Store((first + stride - 1) / stride)
		rec.openCount.Store((first+n+stride-1)/stride - (first+stride-1)/stride)
	}
	for k := uint64(0); k < n; {
		elapsed := float64(rec.now() - startNs)
		due := uint64(elapsed/period) + 1
		if due > n {
			due = n
		}
		if k >= due {
			wait := time.Duration(float64(k)*period - elapsed)
			if wait < 200*time.Microsecond {
				wait = 200 * time.Microsecond
			}
			time.Sleep(wait)
			continue
		}
		if stall != nil {
			stall(k)
		}
		for ; k < due; k++ {
			t0 := rec.now()
			if measure {
				rn.genLate.record(t0 - startNs - int64(float64(k)*period))
			}
			rn.doOp(first + k)
			if measure && rn.opts.trace {
				rn.pubBlock.record(rec.now() - t0)
			}
		}
	}
	rn.nextOp = first + n
	sentIn = time.Duration(rec.now() - startNs)
	rn.cl.sys.Flush()
	if measure {
		rec.openCount.Store(0)
	}
	return sentIn
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
