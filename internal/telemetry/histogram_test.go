package telemetry

import (
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the base-2 bucket layout at its
// edges: zero, one, every power-of-two boundary pair (2^i-1 vs 2^i),
// and max-uint64.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1<<32 - 1, 32},
		{1 << 32, 33},
		{1<<63 - 1, 63},
		{1 << 63, 64},
		{math.MaxUint64, 64},
	}
	for _, c := range cases {
		if got := histBucket(c.v); got != c.bucket {
			t.Errorf("histBucket(%d) = %d, want %d", c.v, got, c.bucket)
		}
		// The bucket's bound must be the smallest that admits v.
		if b := HistogramBucketBound(c.bucket); b < c.v {
			t.Errorf("bucket %d bound %d below member %d", c.bucket, b, c.v)
		}
		if c.bucket > 0 {
			if b := HistogramBucketBound(c.bucket - 1); b >= c.v {
				t.Errorf("bucket %d bound %d already admits %d", c.bucket-1, b, c.v)
			}
		}
	}
	if HistogramBucketBound(0) != 0 {
		t.Error("bucket 0 bound must be 0")
	}
	if HistogramBucketBound(64) != math.MaxUint64 {
		t.Error("bucket 64 bound must be MaxUint64")
	}
}

func TestHistogramObserveAndJSON(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 0, 1, 3, 4, math.MaxUint64} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	// Sum wraps mod 2^64: 0+0+1+3+4+MaxUint64 = 7 (mod 2^64).
	if h.Sum() != 7 {
		t.Fatalf("sum = %d, want 7 (wrapped)", h.Sum())
	}
	if h.Bucket(0) != 2 || h.Bucket(1) != 1 || h.Bucket(2) != 1 || h.Bucket(3) != 1 || h.Bucket(64) != 1 {
		t.Fatalf("bucket counts wrong: %d %d %d %d %d",
			h.Bucket(0), h.Bucket(1), h.Bucket(2), h.Bucket(3), h.Bucket(64))
	}
	got := h.JSON()
	want := HistogramJSON{
		Count: 6,
		Sum:   7,
		Buckets: []HistogramBucketJSON{
			{UpperBound: "0", Count: 2},
			{UpperBound: "1", Count: 1},
			{UpperBound: "3", Count: 1},
			{UpperBound: "7", Count: 1},
			{UpperBound: "+Inf", Count: 1},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("JSON = %+v, want %+v", got, want)
	}
	// The export view must round-trip through encoding/json unchanged.
	raw, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	var back HistogramJSON
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, want) {
		t.Fatalf("round trip = %+v, want %+v", back, want)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(7)
		_ = h.Count()
		_ = h.Sum()
		_ = h.Bucket(3)
	})
	if allocs != 0 {
		t.Fatalf("nil histogram allocated %.1f objects per run, want 0", allocs)
	}
	if got := h.JSON(); got.Count != 0 || got.Buckets != nil {
		t.Fatalf("nil JSON = %+v, want zero value", got)
	}
	var reg *Registry
	if reg.Histogram("x") != nil {
		t.Error("nil registry returned a histogram")
	}
	if reg.Histograms() != nil {
		t.Error("nil registry returned histogram list")
	}
}

func TestRegistryHistogramsSorted(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("zeta").Observe(1)
	reg.Histogram("alpha").Observe(2)
	reg.Histogram("mid").Observe(3)
	if same := reg.Histogram("alpha"); same != reg.Histogram("alpha") {
		t.Error("Histogram not idempotent per name")
	}
	hs := reg.Histograms()
	names := make([]string, len(hs))
	for i, nh := range hs {
		names[i] = nh.Name
	}
	if !reflect.DeepEqual(names, []string{"alpha", "mid", "zeta"}) {
		t.Fatalf("histogram order %v, want sorted", names)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < 1000; i++ {
				h.Observe(i)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if h.Sum() != 8*999*1000/2 {
		t.Fatalf("sum = %d, want %d", h.Sum(), 8*999*1000/2)
	}
}

// TestSnapshotOrderIsRegistrationIndependent is the byte-stability
// contract: two registries with the same instruments registered in
// different orders must produce identical snapshots and identical
// sample-row schemas.
func TestSnapshotOrderIsRegistrationIndependent(t *testing.T) {
	build := func(order []string) *Registry {
		reg := NewRegistry()
		for _, n := range order {
			switch n[0] {
			case 'p':
				n := n
				reg.Probe(n, func(uint64) float64 { return float64(len(n)) })
			case 'c':
				reg.Counter(n).v.Add(uint64(len(n)))
			case 'g':
				reg.Gauge(n).Add(float64(len(n)))
			}
		}
		return reg
	}
	names := []string{"p.bb", "p.a", "c.x", "c.aa", "g.z", "g.b"}
	rev := make([]string, len(names))
	for i, n := range names {
		rev[len(names)-1-i] = n
	}
	a, b := build(names), build(rev)
	sa, sb := a.Snapshot(10), b.Snapshot(10)
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("snapshots differ by registration order:\n%v\n%v", sa, sb)
	}
	ca, _ := a.columns()
	cb, _ := b.columns()
	if !reflect.DeepEqual(ca, cb) {
		t.Fatalf("column schemas differ by registration order:\n%v\n%v", ca, cb)
	}
	for i := 1; i < len(sa); i++ {
		if sa[i].Kind == sa[i-1].Kind && sa[i].Name < sa[i-1].Name {
			t.Fatalf("snapshot not sorted within kind: %q after %q", sa[i].Name, sa[i-1].Name)
		}
	}
}

// Same-named probes must keep registration order so the later shadows
// the earlier in sample rows even after the sort.
func TestSameNameProbesKeepRegistrationOrder(t *testing.T) {
	reg := NewRegistry()
	reg.Probe("dup", func(uint64) float64 { return 1 })
	reg.Probe("dup", func(uint64) float64 { return 2 })
	s := reg.Snapshot(0)
	if len(s) != 2 || s[0].Value != 1 || s[1].Value != 2 {
		t.Fatalf("shadow order broken: %v", s)
	}
}
