package cluster

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// backoff computes capped exponential retry delays with full jitter:
// attempt n draws uniformly from (0, min(cap, base*2^n)]. Full jitter
// (rather than ±ε around the exponential point) is what decorrelates a
// burst of dispatches that all lost the same worker in the same
// instant — they retry spread over the whole window instead of
// hammering the survivor together.
//
// The generator is seeded so chaos tests replay identical schedules.
type backoff struct {
	base, cap time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

func newBackoff(base, cap time.Duration, seed int64) *backoff {
	return &backoff{base: base, cap: cap, rng: rand.New(rand.NewSource(seed))}
}

// delay returns the wait before retry attempt (0-based: the delay
// after the first failure is delay(0)).
func (b *backoff) delay(attempt int) time.Duration {
	d := b.base
	for i := 0; i < attempt && d < b.cap; i++ {
		d *= 2
	}
	if d > b.cap {
		d = b.cap
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return time.Duration(1 + b.rng.Int63n(int64(d)))
}

// sleep blocks for the attempt's delay or until ctx is done, returning
// ctx.Err() in the latter case.
func (b *backoff) sleep(ctx context.Context, attempt int) error {
	t := time.NewTimer(b.delay(attempt))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
