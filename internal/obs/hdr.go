package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// HDR is a log-linear high-dynamic-range histogram over non-negative
// int64 values (by convention nanoseconds). The value axis is split into
// octaves of hdrSubCount linearly-spaced buckets each, so the relative
// quantile-estimation error is bounded by 2^-hdrSubBits (~0.8%) at any
// magnitude, where a fixed-bucket histogram's error explodes between its
// hand-picked bounds. Memory is fixed (~57 KB), Record is a
// bucket-index computation plus three uncontended atomic adds (no locks,
// no allocations — cheap enough for the per-resolution hot path), and
// histograms merge losslessly bucket-by-bucket, so per-worker instances
// can be combined at scrape time.
type HDR struct {
	counts [hdrBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
}

const (
	// hdrSubBits sets the precision: each octave has 2^hdrSubBits
	// linear buckets, bounding relative error at 2^-hdrSubBits ≈ 0.8%.
	hdrSubBits  = 7
	hdrSubCount = 1 << hdrSubBits
	// hdrBuckets covers the full non-negative int64 range: a linear
	// region [0, hdrSubCount) plus (63-hdrSubBits) octaves.
	hdrBuckets = (64 - hdrSubBits) * hdrSubCount
)

// NewHDR creates an empty histogram.
func NewHDR() *HDR { return new(HDR) }

// hdrIndex maps a non-negative value to its bucket. Values below
// hdrSubCount are exact (one bucket per value); above, the value's top
// hdrSubBits+1 bits select a bucket whose width is 2^exp.
func hdrIndex(v int64) int {
	u := uint64(v)
	if u < hdrSubCount {
		return int(u)
	}
	exp := bits.Len64(u) - hdrSubBits - 1
	return exp*hdrSubCount + int(u>>uint(exp))
}

// hdrLower returns the smallest value mapping to bucket idx.
func hdrLower(idx int) int64 {
	block := idx / hdrSubCount
	if block == 0 {
		return int64(idx)
	}
	exp := block - 1
	mantissa := int64(idx - exp*hdrSubCount) // in [hdrSubCount, 2*hdrSubCount)
	return mantissa << uint(exp)
}

// hdrMid returns the midpoint of bucket idx — the quantile estimate for
// ranks landing inside it, halving the worst-case relative error again.
func hdrMid(idx int) int64 {
	block := idx / hdrSubCount
	if block == 0 {
		return int64(idx)
	}
	width := int64(1) << uint(block-1)
	return hdrLower(idx) + width/2
}

// Record adds one observation. Negative values clamp to zero.
func (h *HDR) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[hdrIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// RecordDuration records d in nanoseconds.
func (h *HDR) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Count returns the number of observations. Nil-safe.
func (h *HDR) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations. Nil-safe.
func (h *HDR) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Merge folds o's observations into h (both keep serving concurrent
// Records; the merge is per-bucket atomic, not a consistent snapshot).
func (h *HDR) Merge(o *HDR) {
	if o == nil {
		return
	}
	for i := range o.counts {
		if n := o.counts[i].Load(); n != 0 {
			h.counts[i].Add(n)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
}

// Quantile estimates the q-quantile (q in [0,1]) of the recorded values:
// the bucket midpoint where the ceil(q*count)-th smallest observation
// lands, so the estimate is within 2^-(hdrSubBits+1) relative error of
// the true order statistic. Returns 0 when empty. Nil-safe.
func (h *HDR) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(total) + 0.9999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			return hdrMid(i)
		}
	}
	return hdrMid(len(h.counts) - 1)
}

// Quantiles estimates several quantiles in one bucket walk. qs must be
// ascending for a single pass; out-of-order entries still resolve
// correctly but cost extra walks. Nil-safe (returns zeros).
func (h *HDR) Quantiles(qs []float64) []int64 {
	out := make([]int64, len(qs))
	if h == nil {
		return out
	}
	prev := -1.0
	ascending := true
	for _, q := range qs {
		if q < prev {
			ascending = false
			break
		}
		prev = q
	}
	if !ascending {
		for i, q := range qs {
			out[i] = h.Quantile(q)
		}
		return out
	}
	total := h.count.Load()
	if total <= 0 {
		return out
	}
	var cum int64
	idx := 0
	for i, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		rank := int64(q*float64(total) + 0.9999999999)
		if rank < 1 {
			rank = 1
		}
		if rank > total {
			rank = total
		}
		for idx < len(h.counts) && cum < rank {
			cum += h.counts[idx].Load()
			idx++
		}
		if idx > 0 {
			out[i] = hdrMid(idx - 1)
		}
	}
	return out
}

// Max returns the midpoint of the highest occupied bucket (0 when
// empty). Nil-safe.
func (h *HDR) Max() int64 {
	if h == nil {
		return 0
	}
	for i := len(h.counts) - 1; i >= 0; i-- {
		if h.counts[i].Load() != 0 {
			return hdrMid(i)
		}
	}
	return 0
}

// Mean returns the exact arithmetic mean of recorded values (the sum is
// tracked exactly, not reconstructed from buckets). Nil-safe.
func (h *HDR) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// TailQuantiles are the latency quantiles every exposition surface
// (metrics, statusz, rootlesstop, experiments) reports for HDR series.
var TailQuantiles = []float64{0.5, 0.99, 0.999, 0.9999}

// TailSeconds returns the TailQuantiles of a nanosecond-valued HDR in
// seconds, in order (p50, p99, p999, p9999). Nil-safe.
func (h *HDR) TailSeconds() [4]float64 {
	var out [4]float64
	for i, v := range h.Quantiles(TailQuantiles) {
		out[i] = float64(v) / 1e9
	}
	return out
}
