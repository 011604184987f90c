package telemetry

import (
	"math"
	"math/bits"
	"sort"
	"strconv"
	"sync/atomic"
)

// HistogramBuckets is the fixed bucket count of every Histogram:
// bucket 0 holds the value zero, bucket i (1..64) holds values in
// [2^(i-1), 2^i). The layout covers the full uint64 range with no
// configuration, which keeps Observe branch-free and lets two
// histograms from different runs be merged or diffed bucket-by-bucket.
const HistogramBuckets = 65

// Histogram is an exponential-bucket (base-2) histogram of uint64
// samples — cycle latencies, queue depths, distances. Like Counter and
// Gauge it is atomic and nil-safe: a nil *Histogram ignores Observe and
// reports zero everywhere, so instrumented components keep a
// possibly-nil pointer and call unconditionally.
type Histogram struct {
	buckets [HistogramBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// histBucket returns the bucket index for v: bits.Len64 maps 0→0, 1→1,
// [2,3]→2, [4,7]→3, … so bucket i's inclusive upper bound is 2^i - 1.
func histBucket(v uint64) int { return bits.Len64(v) }

// HistogramBucketBound returns bucket i's inclusive upper bound
// (0 for bucket 0, 2^i-1 for 1..63, MaxUint64 for bucket 64).
func HistogramBucketBound(i int) uint64 {
	switch {
	case i <= 0:
		return 0
	case i >= 64:
		return math.MaxUint64
	default:
		return 1<<uint(i) - 1
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[histBucket(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observed samples (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed samples, wrapping on overflow (0 on nil).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Bucket returns the sample count of bucket i (0 on nil or out of range).
func (h *Histogram) Bucket(i int) uint64 {
	if h == nil || i < 0 || i >= HistogramBuckets {
		return 0
	}
	return h.buckets[i].Load()
}

// HistogramBucketJSON is one non-empty bucket in a histogram export.
// The upper bound is decimal-in-a-string ("+Inf" for the top bucket) so
// the 2^64-1 boundary survives JSON consumers that parse numbers as
// float64.
type HistogramBucketJSON struct {
	UpperBound string `json:"le"`
	Count      uint64 `json:"count"`
}

// HistogramJSON is the export view of a Histogram: total count/sum and
// the non-empty buckets in ascending bound order (per-bucket counts,
// not cumulative — the Prometheus exposition cumulates at render time).
type HistogramJSON struct {
	Count   uint64                `json:"count"`
	Sum     uint64                `json:"sum"`
	Buckets []HistogramBucketJSON `json:"buckets,omitempty"`
}

// JSON snapshots the histogram into its export view (zero value on nil).
func (h *Histogram) JSON() HistogramJSON {
	if h == nil {
		return HistogramJSON{}
	}
	out := HistogramJSON{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := 0; i < HistogramBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		le := "+Inf"
		if i < 64 {
			le = strconv.FormatUint(HistogramBucketBound(i), 10)
		}
		out.Buckets = append(out.Buckets, HistogramBucketJSON{UpperBound: le, Count: n})
	}
	return out
}

// NamedHistogram pairs a histogram with its registry name.
type NamedHistogram struct {
	Name string
	H    *Histogram
}

// Histogram returns (registering on first use) the named histogram, or
// nil when the registry is nil.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Histograms returns every registered histogram sorted by name, so
// exposition and JSON exports are byte-stable. Nil-safe.
func (r *Registry) Histograms() []NamedHistogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]NamedHistogram, 0, len(r.hists))
	for n, h := range r.hists {
		out = append(out, NamedHistogram{Name: n, H: h})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
