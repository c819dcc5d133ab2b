package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("Value = %d, want 5", got)
	}
	if got := c.Reset(); got != 5 {
		t.Errorf("Reset = %d, want 5", got)
	}
	if got := c.Value(); got != 0 {
		t.Errorf("after Reset Value = %d, want 0", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("concurrent Value = %d, want 8000", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(7)
	if g.Value() != 7 {
		t.Error("Set/Value mismatch")
	}
	if g.Add(-3) != 4 {
		t.Error("Add return mismatch")
	}
}

func TestThroughput(t *testing.T) {
	tp := NewThroughput()
	tp.Add(100)
	time.Sleep(10 * time.Millisecond)
	r := tp.Rate()
	if r <= 0 || r > 100/0.010*2 {
		t.Errorf("Rate = %v, implausible", r)
	}
	prev := tp.Reset()
	if prev <= 0 {
		t.Errorf("Reset returned %v, want >0", prev)
	}
	if tp.Count() != 0 {
		t.Error("Reset did not zero count")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(nil)
	obs := []time.Duration{
		500 * time.Microsecond,
		2 * time.Millisecond,
		50 * time.Millisecond,
		200 * time.Millisecond,
		2 * time.Second,
	}
	for _, d := range obs {
		h.Observe(d)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if h.Max() != 2*time.Second {
		t.Errorf("Max = %v, want 2s", h.Max())
	}
	wantMean := (500*time.Microsecond + 2*time.Millisecond + 50*time.Millisecond + 200*time.Millisecond + 2*time.Second) / 5
	if h.Mean() != wantMean {
		t.Errorf("Mean = %v, want %v", h.Mean(), wantMean)
	}
}

func TestHistogramFractionBelow(t *testing.T) {
	h := NewHistogram(nil)
	// 8 below 100ms, 1 in [100ms,1s], 1 above 1s.
	for i := 0; i < 8; i++ {
		h.Observe(10 * time.Millisecond)
	}
	h.Observe(500 * time.Millisecond)
	h.Observe(3 * time.Second)
	if got := h.FractionBelow(100 * time.Millisecond); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("FractionBelow(100ms) = %v, want 0.8", got)
	}
	if got := h.FractionBelow(time.Second); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("FractionBelow(1s) = %v, want 0.9", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(nil)
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	p50 := h.Quantile(0.5)
	if p50 < 45*time.Millisecond || p50 > 55*time.Millisecond {
		t.Errorf("P50 = %v, want ~50ms", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 95*time.Millisecond {
		t.Errorf("P99 = %v, want >=95ms", p99)
	}
	if h.Quantile(0) == 0 {
		t.Error("Quantile(0) should return smallest observation, not 0")
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(nil)
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.FractionBelow(time.Second) != 0 {
		t.Error("empty histogram should report zeros")
	}
	snap := h.Snapshot()
	if snap.Count != 0 {
		t.Error("empty snapshot count != 0")
	}
}

func TestHistogramSnapshot(t *testing.T) {
	h := NewHistogram(nil)
	for i := 0; i < 10; i++ {
		h.Observe(time.Duration(i+1) * 10 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 10 {
		t.Errorf("Count = %d", s.Count)
	}
	if s.Below100 <= 0.5 || s.Below100 > 1.0 {
		t.Errorf("Below100 = %v", s.Below100)
	}
	if s.Below1s != 1.0 {
		t.Errorf("Below1s = %v, want 1", s.Below1s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(nil)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				h.Observe(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("concurrent Count = %d, want 8000", h.Count())
	}
}

func TestHistogramReservoirOverflow(t *testing.T) {
	h := NewHistogram(nil)
	for i := 0; i < reservoirSize*3; i++ {
		h.Observe(time.Millisecond)
	}
	if h.Quantile(0.5) != time.Millisecond {
		t.Errorf("Quantile after overflow = %v, want 1ms", h.Quantile(0.5))
	}
	bounds, buckets := h.Buckets()
	if len(buckets) != len(bounds)+1 {
		t.Errorf("Buckets length mismatch: %d bounds, %d buckets", len(bounds), len(buckets))
	}
	var total int64
	for _, b := range buckets {
		total += b
	}
	if total != int64(reservoirSize*3) {
		t.Errorf("bucket total = %d, want %d", total, reservoirSize*3)
	}
}

func TestThroughputIncAndRate(t *testing.T) {
	tp := NewThroughput()
	for i := 0; i < 10; i++ {
		tp.Inc()
	}
	tp.Add(5)
	if tp.Count() != 15 {
		t.Errorf("Count = %d, want 15", tp.Count())
	}
	time.Sleep(2 * time.Millisecond)
	if r := tp.Rate(); r <= 0 {
		t.Errorf("Rate = %v, want > 0", r)
	}
	prev := tp.Reset()
	if prev <= 0 {
		t.Errorf("Reset returned %v, want previous rate > 0", prev)
	}
	if tp.Count() != 0 {
		t.Errorf("Count after Reset = %d", tp.Count())
	}
}

func TestFractionBelowBucketAndReservoirPaths(t *testing.T) {
	// Default bounds include 100ms: the exact bucket path.
	h := NewHistogram(nil)
	for i := 0; i < 80; i++ {
		h.Observe(10 * time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		h.Observe(2 * time.Second)
	}
	if got := h.FractionBelow(100 * time.Millisecond); got < 0.79 || got > 0.81 {
		t.Errorf("FractionBelow(100ms) = %v, want ~0.8", got)
	}
	// A bound not in the bucket list: the reservoir path.
	if got := h.FractionBelow(137 * time.Millisecond); got < 0.79 || got > 0.81 {
		t.Errorf("FractionBelow(137ms) = %v, want ~0.8", got)
	}
	// Empty histogram: both paths return 0.
	empty := NewHistogram(nil)
	if got := empty.FractionBelow(time.Second); got != 0 {
		t.Errorf("empty FractionBelow = %v", got)
	}
	if s := h.String(); !strings.Contains(s, "n=100") {
		t.Errorf("String = %q", s)
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Value() != 0 || e.Count() != 0 {
		t.Fatalf("fresh EWMA: value %v count %d", e.Value(), e.Count())
	}
	if got := e.Observe(10); got != 10 {
		t.Fatalf("first sample seeds the average: got %v", got)
	}
	if got := e.Observe(20); got != 15 {
		t.Fatalf("0.5-EWMA of 10 then 20 = %v, want 15", got)
	}
	if got := e.Observe(15); got != 15 {
		t.Fatalf("steady sample keeps the average: got %v", got)
	}
	if e.Count() != 3 {
		t.Fatalf("Count = %d, want 3", e.Count())
	}
	// Invalid alphas clamp rather than explode.
	for _, a := range []float64{0, -1, 1.5} {
		c := NewEWMA(a)
		c.Observe(4)
		c.Observe(8)
		if v := c.Value(); v <= 4 || v >= 8 {
			t.Fatalf("clamped alpha %v: average %v not between samples", a, v)
		}
	}
}

// TestObserveNMatchesRepeatedObserve: one ObserveN(d, n) leaves the
// histogram exactly as n calls of Observe(d) do — buckets, count, sum,
// max and the reservoir — for runs that fill the reservoir, cross its
// edge and land on and between its sampled positions.
func TestObserveNMatchesRepeatedObserve(t *testing.T) {
	runs := []struct {
		d time.Duration
		n int
	}{
		{3 * time.Millisecond, 1}, {time.Microsecond, 7}, {2 * time.Second, 0},
		{40 * time.Millisecond, reservoirSize - 10}, {7 * time.Millisecond, 25},
		{time.Millisecond, 15}, {900 * time.Millisecond, 16}, {time.Second, 1},
		{5 * time.Millisecond, 3 * reservoirSize}, {20 * time.Second, 33},
	}
	one, many := NewHistogram(nil), NewHistogram(nil)
	for i, r := range runs {
		for range r.n {
			one.Observe(r.d)
		}
		many.ObserveN(r.d, r.n)
		_, b1 := one.Buckets()
		_, bn := many.Buckets()
		for j := range b1 {
			if b1[j] != bn[j] {
				t.Fatalf("after run %d: bucket %d = %d, want %d", i, j, bn[j], b1[j])
			}
		}
		if one.Count() != many.Count() || one.sum.Load() != many.sum.Load() || one.Max() != many.Max() {
			t.Fatalf("after run %d: count/sum/max = %d/%d/%v, want %d/%d/%v", i,
				many.Count(), many.sum.Load(), many.Max(), one.Count(), one.sum.Load(), one.Max())
		}
		if len(one.sample) != len(many.sample) {
			t.Fatalf("after run %d: reservoir holds %d, want %d", i, len(many.sample), len(one.sample))
		}
		for j := range one.sample {
			if one.sample[j] != many.sample[j] {
				t.Fatalf("after run %d: reservoir slot %d = %v, want %v", i, j, many.sample[j], one.sample[j])
			}
		}
	}
}
