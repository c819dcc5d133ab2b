// Package metrics provides the lightweight instrumentation used across
// PS2Stream: atomic counters, throughput meters, and latency histograms
// with the bucket boundaries reported in the paper's evaluation
// (<100ms, 100ms–1s, >1s in Figures 12(c) and 15).
package metrics

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset zeroes the counter and returns the previous value.
func (c *Counter) Reset() int64 { return c.v.Swap(0) }

// Gauge is an atomically settable value.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n and returns the new value.
func (g *Gauge) Add(n int64) int64 { return g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// EWMA is an exponentially weighted moving average gauge: each Observe
// folds a new sample into the running average with weight alpha
// (avg ← alpha·sample + (1−alpha)·avg; the first sample seeds the
// average). Observe and Value are both lock-free and safe to call from
// any number of goroutines: concurrent Observes serialise through a CAS
// loop, so every sample is folded in exactly once (historically the
// adjustment controller was the only sampler, but adjustTick and
// pollRemoteLoads both feed loads now).
type EWMA struct {
	alpha float64
	bits  atomic.Uint64 // math.Float64bits of the current average
	n     atomic.Int64
}

// NewEWMA returns an EWMA with the given smoothing factor in (0, 1]:
// higher alpha weights recent samples more. Out-of-range alphas are
// clamped.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	return &EWMA{alpha: alpha}
}

// Observe folds one sample in and returns the updated average.
//
// The first sample must seed the average rather than fold against the
// zero value, so n doubles as the seed latch: 0 = unseeded, -1 = a
// seeder is mid-publication, >0 = samples folded so far. n is only
// advanced past a bits update, so any goroutine that reads n > 0 also
// sees a fully published average to fold against.
func (e *EWMA) Observe(v float64) float64 {
	for {
		switch n := e.n.Load(); {
		case n == 0:
			if e.n.CompareAndSwap(0, -1) {
				e.bits.Store(math.Float64bits(v))
				e.n.Store(1)
				return v
			}
		case n < 0:
			// A concurrent seeder claimed the slot but has not
			// published yet; yield until it does.
			runtime.Gosched()
		default:
			old := e.bits.Load()
			next := e.alpha*v + (1-e.alpha)*math.Float64frombits(old)
			if e.bits.CompareAndSwap(old, math.Float64bits(next)) {
				e.n.Add(1)
				return next
			}
		}
	}
}

// Value returns the current average (0 before any sample).
func (e *EWMA) Value() float64 { return math.Float64frombits(e.bits.Load()) }

// Count returns the number of samples observed.
func (e *EWMA) Count() int64 {
	if n := e.n.Load(); n > 0 {
		return n
	}
	return 0
}

// Throughput measures processed tuples per second over the interval since
// construction or the last Reset.
type Throughput struct {
	count Counter
	mu    sync.Mutex
	start time.Time
}

// NewThroughput returns a meter starting now.
func NewThroughput() *Throughput {
	return &Throughput{start: time.Now()}
}

// Inc records one processed tuple.
func (t *Throughput) Inc() { t.count.Inc() }

// Add records n processed tuples.
func (t *Throughput) Add(n int64) { t.count.Add(n) }

// Count returns the tuples recorded in the current interval.
func (t *Throughput) Count() int64 { return t.count.Value() }

// Rate returns tuples/second for the current interval.
func (t *Throughput) Rate() float64 {
	t.mu.Lock()
	el := time.Since(t.start)
	t.mu.Unlock()
	if el <= 0 {
		return 0
	}
	return float64(t.count.Value()) / el.Seconds()
}

// Reset restarts the measurement interval and returns the previous rate.
func (t *Throughput) Reset() float64 {
	t.mu.Lock()
	el := time.Since(t.start)
	t.start = time.Now()
	t.mu.Unlock()
	n := t.count.Reset()
	if el <= 0 {
		return 0
	}
	return float64(n) / el.Seconds()
}

// Histogram records duration observations into fixed buckets and retains a
// sampled reservoir for quantile estimates. The hot path (Observe) uses
// only atomics except for an occasional reservoir insertion, so it can be
// shared by every worker goroutine without serialising them.
type Histogram struct {
	bounds  []time.Duration // upper bounds, ascending; implicit +Inf last
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64
	seen    atomic.Int64

	mu     sync.Mutex
	sample []time.Duration
}

const (
	reservoirSize   = 4096
	reservoirEveryN = 16 // after the reservoir fills, sample 1 in N
)

// DefaultLatencyBounds are the paper's reporting boundaries plus finer
// low-end resolution.
var DefaultLatencyBounds = []time.Duration{
	time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	300 * time.Millisecond,
	time.Second,
	5 * time.Second,
}

// NewHistogram returns a histogram with the given ascending upper bounds;
// nil uses DefaultLatencyBounds.
func NewHistogram(bounds []time.Duration) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBounds
	}
	b := append([]time.Duration(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{
		bounds:  b,
		buckets: make([]atomic.Int64, len(b)+1),
		sample:  make([]time.Duration, 0, reservoirSize),
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveN(d, 1) }

// ObserveN records n observations of the same duration, leaving the
// histogram as n calls of Observe(d) would, reservoir included, for the
// price of one: a batch of matches of one operation shares its latency.
func (h *Histogram) ObserveN(d time.Duration, n int) {
	if n <= 0 {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.buckets[i].Add(int64(n))
	h.count.Add(int64(n))
	h.sum.Add(int64(n) * int64(d))
	for {
		m := h.max.Load()
		if int64(d) <= m || h.max.CompareAndSwap(m, int64(d)) {
			break
		}
	}
	// The observations take the sequence numbers first..last. The first
	// reservoirSize of all fill the reservoir; after that every
	// reservoirEveryN-th replaces a pseudo-random slot.
	last := h.seen.Add(int64(n))
	first := last - int64(n) + 1
	fill := min(last, reservoirSize) - first + 1
	sampled := (max(first, reservoirSize+1) + reservoirEveryN - 1) / reservoirEveryN * reservoirEveryN
	if fill <= 0 && sampled > last {
		return
	}
	h.mu.Lock()
	for ; fill > 0 && len(h.sample) < reservoirSize; fill-- {
		h.sample = append(h.sample, d)
	}
	for ; sampled <= last; sampled += reservoirEveryN {
		if idx := reservoirSlot(sampled); idx < len(h.sample) {
			h.sample[idx] = d
		}
	}
	h.mu.Unlock()
}

// reservoirSlot is the slot the n-th observation replaces (xorshift keeps
// this dependency-free and deterministic given the observation sequence).
func reservoirSlot(n int64) int {
	x := uint64(n)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return int(x % reservoirSize)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the average observation, 0 when empty.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the reservoir.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	s := append([]time.Duration(nil), h.sample...)
	h.mu.Unlock()
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// Buckets returns copies of the bounds and bucket counts (last bucket is
// the overflow beyond the final bound).
func (h *Histogram) Buckets() ([]time.Duration, []int64) {
	counts := make([]int64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return append([]time.Duration(nil), h.bounds...), counts
}

// String summarises the histogram.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}

// Snapshot is a point-in-time latency summary used by experiment reports.
type Snapshot struct {
	Count int64
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Snapshot captures the current state.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.5),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}
