package sim

import (
	"reflect"
	"testing"

	"rnrsim/internal/cache"
	"rnrsim/internal/obs"
)

// TestStatsSumsCoverEveryCounter holds the hand-written stats sums to
// their structs: every exported uint64 counter must be carried, so a
// newly added counter cannot silently drop out of the per-core totals.
func TestStatsSumsCoverEveryCounter(t *testing.T) {
	checkSum(t, (*cache.Stats).Add)
	checkSum(t, (*obs.Stats).Add)
	checkSum(t, addRnRStats)
}

// checkSum fills each exported uint64 field of dst and src with a value
// distinct per field, runs add, and requires every field of dst to hold
// the sum of the two.
func checkSum[T any](t *testing.T, add func(dst *T, src T)) {
	t.Helper()
	var dst, src T
	dv, sv := reflect.ValueOf(&dst).Elem(), reflect.ValueOf(&src).Elem()
	var counters []int
	for i := 0; i < dv.NumField(); i++ {
		if f := dv.Type().Field(i); f.IsExported() && f.Type.Kind() == reflect.Uint64 {
			counters = append(counters, i)
			dv.Field(i).SetUint(uint64(1000 * (i + 1)))
			sv.Field(i).SetUint(uint64(i + 1))
		}
	}
	if len(counters) == 0 {
		t.Fatalf("%T has no uint64 counters", dst)
	}
	add(&dst, src)
	for _, i := range counters {
		if got, want := dv.Field(i).Uint(), uint64(1001*(i+1)); got != want {
			t.Errorf("%T.%s = %d after the sum, want %d: counter not carried",
				dst, dv.Type().Field(i).Name, got, want)
		}
	}
}
