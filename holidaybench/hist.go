package main

import (
	"math/bits"
	"time"
)

// Hist is a log-linear latency histogram with nanosecond resolution below
// 128 ns and 64 sub-buckets per power of two above, so every bucket is at
// most 1/64 ≈ 1.6% wide relative to its lower edge — finer than the tightest
// bound the benchmark gates on. Recording is two integer instructions and an
// array increment; each worker owns its histograms and they merge after the
// measured phase.
type Hist struct {
	counts [histBuckets]int64
	n      int64
	sum    int64
	min    int64
	max    int64
}

const (
	histExact   = 128 // values below this get one bucket per nanosecond
	histSub     = 64  // sub-buckets per power of two above histExact
	histSubBits = 6
	// histBuckets covers up to 2^40 ns (~18 minutes); larger values land in
	// the last bucket and are still reported exactly through max.
	histBuckets = histExact + (40-7)*histSub
)

// bucketOf maps nanoseconds to a bucket index.
func bucketOf(ns int64) int {
	if ns < histExact {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1 // ns in [2^e, 2^(e+1)), e ≥ 7
	sub := int(ns>>(e-histSubBits)) & (histSub - 1)
	b := histExact + (e-7)*histSub + sub
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// bucketBounds returns the half-open nanosecond range [lo, hi) of bucket b.
func bucketBounds(b int) (lo, hi int64) {
	if b < histExact {
		return int64(b), int64(b) + 1
	}
	e := (b-histExact)/histSub + 7
	sub := int64((b - histExact) % histSub)
	width := int64(1) << (e - histSubBits)
	lo = int64(1)<<e + sub*width
	return lo, lo + width
}

// Record adds one sample.
func (h *Hist) Record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(ns)]++
	h.sum += ns
	if h.n == 0 || ns < h.min {
		h.min = ns
	}
	if ns > h.max {
		h.max = ns
	}
	h.n++
}

// Merge folds o into h.
func (h *Hist) Merge(o *Hist) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.sum += o.sum
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
}

// Count returns the number of samples.
func (h *Hist) Count() int64 { return h.n }

// Mean returns the average sample, 0 when empty.
func (h *Hist) Mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return time.Duration(h.sum / h.n)
}

// Quantile returns the q-quantile: the midpoint of the bucket holding the
// sample of rank ⌈q·n⌉, clamped to the observed min and max. 0 when empty.
func (h *Hist) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	rank = max(rank, 1)
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen < rank {
			continue
		}
		lo, hi := bucketBounds(b)
		v := lo + (hi-lo-1)/2
		return time.Duration(min(max(v, h.min), h.max))
	}
	return time.Duration(h.max)
}
