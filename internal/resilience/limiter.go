package resilience

import "time"

// This file holds the clock-free primitives behind internal/admission's
// per-caller rate limiting: a fixed-window request counter and the
// escalating penalty-box schedule. Both are pure functions of their
// arguments — the caller supplies the current time as nanoseconds and the
// jitter is derived from a seed, never drawn from a shared generator — so
// the abuse-chaos suite can replay exact shed/block/recover sequences and
// psigenelint's walltime/randsource analyzers hold here as everywhere
// else in the kernel set.

// Window is a fixed-window request counter: the time axis is divided into
// consecutive windows of the caller-chosen width, and the counter resets
// whenever the supplied time crosses into a new window. Fixed (rather
// than sliding) windows keep the state two words per tier — essential
// when a bounded LRU tracks millions of callers — and make the reset
// instant a pure function of the clock, which is what lets deterministic
// tests pin the exact request on which a limiter starts rejecting.
//
// The zero value is ready to use. A Window is not safe for concurrent
// use; internal/admission shards callers and guards each shard.
type Window struct {
	idx   int64 // current window ordinal (now / width)
	count int64 // requests recorded inside the current window
}

// Allow records one request at time now (nanoseconds on any monotonic
// scale, e.g. UnixNano of an injected clock) and reports whether the
// request stays within limit requests per width nanoseconds. limit <= 0
// disables the tier (always allowed, nothing recorded); width <= 0 is
// treated as one nanosecond.
func (w *Window) Allow(now int64, limit int64, width int64) bool {
	if limit <= 0 {
		return true
	}
	if width <= 0 {
		width = 1
	}
	idx := floorDiv(now, width)
	if idx != w.idx {
		w.idx = idx
		w.count = 0
	}
	w.count++
	return w.count <= limit
}

// Count returns the requests recorded in the window containing now.
func (w *Window) Count(now, width int64) int64 {
	if width <= 0 {
		width = 1
	}
	if floorDiv(now, width) != w.idx {
		return 0
	}
	return w.count
}

// WindowReset returns the nanoseconds from now until the window of the
// given width rolls over — the precise Retry-After for a fixed-window
// rejection.
func WindowReset(now, width int64) int64 {
	if width <= 0 {
		width = 1
	}
	return (floorDiv(now, width)+1)*width - now
}

// floorDiv is integer division rounding toward negative infinity, so
// window ordinals stay consistent for clocks that start before the epoch
// (chaos tests run on small synthetic timestamps).
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

// Penalty returns the strike-th penalty-box duration for the caller
// identified by seed: base·2^(strike-1) capped at max, jittered into
// [d/2, d). The escalation punishes repeat offenders progressively; the
// jitter keeps a crowd of simultaneously-boxed abusers from thundering
// back in the same instant; and deriving the jitter bits from
// (seed, strike) with the splitmix finalizer — instead of drawing from a
// shared generator — keeps every duration a pure function of its inputs,
// so same-seed chaos runs block for bit-identical spans. strike < 1 is
// treated as 1; the shift saturates to max on overflow.
func Penalty(seed uint64, strike int, base, max time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	if max < base {
		max = base
	}
	if strike < 1 {
		strike = 1
	}
	d := base
	for i := 1; i < strike && d < max; i++ {
		// Double with an overflow guard: past max/2 the next doubling can
		// only land at or beyond the cap.
		if d > max/2 {
			d = max
			break
		}
		d <<= 1
	}
	if d > max {
		d = max
	}
	f := UnitFloat(Avalanche(seed + uint64(strike)*0x9e3779b97f4a7c15))
	return d/2 + time.Duration(f*float64(d/2))
}
