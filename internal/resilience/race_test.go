package resilience

// Race coverage for the primitives the serving layers wrap in mutexes.
// Breaker and SplitMix64 are single-threaded by contract; the gateway
// and admission packages both drive them from concurrent requests
// through a mutex. These tests exercise exactly that wrapping pattern
// under `go test -race` (the race-parallel Makefile target), so a
// regression that widens a critical section or sneaks in an unguarded
// read fails here rather than in production.

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBreakerHalfOpenProbeRace hammers a mutex-wrapped breaker with the
// serving pattern: Allow under the lock, outcome reported under a later
// lock acquisition — so half-open probes from different goroutines
// genuinely interleave with other Allow calls, the way concurrent
// gateway requests interleave their upstream round trips. Invariants:
// every call is either admitted or denied (the books balance), the
// observed state is always a legal member of the three-state machine, and
// the final snapshot is internally consistent.
func TestBreakerHalfOpenProbeRace(t *testing.T) {
	var mu sync.Mutex
	b := NewBreaker(1, 4)
	mu.Lock()
	b.Failure() // threshold 1: trip straight to open
	mu.Unlock()

	const workers = 16
	const iters = 500
	var admitted, denied, tripped atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				mu.Lock()
				ok := b.Allow()
				st := b.State()
				mu.Unlock()
				if st != BreakerClosed && st != BreakerOpen && st != BreakerHalfOpen {
					t.Errorf("illegal breaker state %d", st)
					return
				}
				if !ok {
					denied.Add(1)
					continue
				}
				admitted.Add(1)
				// Report the probe's outcome in a separate critical
				// section, deterministically mixed: roughly a third of
				// probes succeed, the rest re-trip the breaker.
				mu.Lock()
				if (w+i)%3 == 0 {
					b.Success()
				} else if b.Failure() {
					tripped.Add(1)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	if got := admitted.Load() + denied.Load(); got != workers*iters {
		t.Fatalf("books do not balance: %d outcomes for %d calls", got, workers*iters)
	}
	if admitted.Load() == 0 || denied.Load() == 0 {
		t.Fatalf("storm did not exercise both paths: admitted=%d denied=%d", admitted.Load(), denied.Load())
	}
	if tripped.Load() == 0 {
		t.Fatal("no half-open probe failure ever re-tripped the breaker")
	}
	mu.Lock()
	snap := b.Snapshot()
	mu.Unlock()
	if snap.Remaining < 0 || snap.Remaining > 4 {
		t.Fatalf("final cooldown budget %d outside [0,4]", snap.Remaining)
	}
	if snap.State == BreakerOpen && snap.Failures != 0 {
		t.Fatalf("open breaker carrying %d consecutive-failure count", snap.Failures)
	}
}

// TestBreakerSnapshotRestoreRace interleaves Snapshot/Restore (the crawl
// checkpoint path) with serving traffic, all under the wrapping mutex:
// restored state must always be one the breaker actually produced.
func TestBreakerSnapshotRestoreRace(t *testing.T) {
	var mu sync.Mutex
	b := NewBreaker(2, 3)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			if b.Allow() {
				if i%2 == 0 {
					b.Failure()
				} else {
					b.Success()
				}
			}
			mu.Unlock()
		}
	}()
	for i := 0; i < 2000; i++ {
		mu.Lock()
		snap := b.Snapshot()
		b.Restore(snap)
		after := b.Snapshot()
		mu.Unlock()
		if snap != after {
			t.Fatalf("restore not idempotent: %+v vs %+v", snap, after)
		}
	}
	close(stop)
	wg.Wait()
}

// TestPenaltyStrikeOverflowSaturation pins the overflow edge of the
// escalation: arbitrarily large strike counts — including math.MaxInt,
// where the naive base<<strike would have long overflowed — saturate at
// the cap instead of wrapping negative, and the jittered result always
// lands in [max/2, max). Run from concurrent goroutines to document that
// Penalty is a pure function with no shared state to race on.
func TestPenaltyStrikeOverflowSaturation(t *testing.T) {
	const base = 10 * time.Second
	const max = time.Hour
	strikes := []int{1, 2, 16, 61, 62, 63, 64, 1 << 20, 1 << 40, math.MaxInt}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for _, strike := range strikes {
				d := Penalty(seed, strike, base, max)
				if d <= 0 {
					t.Errorf("seed %d strike %d: non-positive penalty %v (overflow wrapped)", seed, strike, d)
					return
				}
				if d >= max {
					t.Errorf("seed %d strike %d: penalty %v at or above the cap %v", seed, strike, d, max)
					return
				}
				if strike >= 16 && d < max/2 {
					// Saturated strikes must draw jitter from the cap,
					// not from a wrapped-around doubling.
					t.Errorf("seed %d strike %d: saturated penalty %v below max/2", seed, strike, d)
					return
				}
				// Purity: the same inputs give the same duration on every
				// goroutine, every time.
				if again := Penalty(seed, strike, base, max); again != d {
					t.Errorf("seed %d strike %d: %v then %v — not a pure function", seed, strike, d, again)
					return
				}
			}
		}(uint64(w) + 1)
	}
	wg.Wait()

	// The extreme corner: base == max == the largest representable
	// duration. No doubling is possible; the result must still be a
	// well-formed jittered value, not a panic or a negative wrap.
	huge := time.Duration(math.MaxInt64)
	d := Penalty(42, math.MaxInt, huge, huge)
	if d < huge/2 || d >= huge {
		t.Fatalf("max-duration penalty %v outside [max/2, max)", d)
	}
}
