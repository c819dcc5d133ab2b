package main

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// hist is a wait-free log-bucket histogram of non-negative int64 values
// (nanoseconds here). Recording is one atomic add, so OnMatch can call
// it from both merger tasks without ever blocking one behind the other —
// a mutex in the callback stalls the mergers and distorts the tail the
// histogram is there to measure.
//
// Values below 2^histSubBits are counted exactly; above that each octave
// is split into 2^histSubBits equal buckets, so a reported quantile is
// less than 1/2^histSubBits (0.8%) away from the sample of that rank.
type hist struct {
	counts [histBuckets]atomic.Int64
	max    atomic.Int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Octaves 7..62 above the exact range, histSub buckets each.
	histBuckets = (64 - histSubBits) * histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - histSubBits
	return (shift+1)*histSub + int(uint64(v)>>uint(shift)) - histSub
}

// histBounds returns the lowest value of bucket i and the bucket's width.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	shift := uint(i/histSub - 1)
	return float64(uint64(histSub+i%histSub) << shift), float64(uint64(1) << shift)
}

func (h *hist) record(v int64) {
	h.counts[histIndex(v)].Add(1)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// count sums the buckets, so that recording pays for one counter only.
func (h *hist) count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// quantile returns the value at rank ceil(q·n), placed inside its bucket
// by the rank's position among the bucket's samples, or NaN for an empty
// histogram. Call it only after recording has stopped.
func (h *hist) quantile(q float64) float64 {
	n := h.count()
	if n == 0 {
		return math.NaN()
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if cum+c >= rank {
			lo, width := histBounds(i)
			if width == 1 {
				return lo
			}
			v := lo + width*(float64(rank-cum)-0.5)/float64(c)
			return math.Min(v, float64(h.max.Load()))
		}
		cum += c
	}
	return float64(h.max.Load())
}

// beyond returns how many samples lie above the q-quantile: a percentile
// is only worth reading with at least ten samples beyond it.
func (h *hist) beyond(q float64) int64 {
	n := h.count()
	return n - int64(math.Ceil(q*float64(n)))
}

// merge adds o's samples to h. Call it only after recording has stopped.
func (h *hist) merge(o *hist) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	if m := o.max.Load(); m > h.max.Load() {
		h.max.Store(m)
	}
}
