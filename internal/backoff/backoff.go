// Package backoff is the one shared implementation of the retry timing
// used across the wire layer: the wire clients' redial loop, the
// endpoint pool's per-endpoint health cooldowns,
// and the server's overload retry parking all draw their delays from
// here, so the jitter/cap/growth behaviour is defined (and property
// tested) exactly once.
package backoff

import (
	"math/rand"
	"time"
)

// Backoff produces exponentially growing, jittered delays: attempt n
// draws uniformly from [d/2, 3d/2) for d = min(base<<n, max), so a fleet
// of peers severed by the same fault does not retry in lockstep. The
// zero value is not usable; construct with New.
type Backoff struct {
	base, max time.Duration
	attempt   int
}

// DefaultBase and DefaultMax are the schedule used when New is given
// non-positive bounds.
const (
	DefaultBase = 50 * time.Millisecond
	DefaultMax  = 2 * time.Second
)

// New returns a backoff schedule growing from base to max. Non-positive
// base falls back to DefaultBase; a max below base is raised to base.
func New(base, max time.Duration) *Backoff {
	if base <= 0 {
		base = DefaultBase
	}
	if max < base {
		max = base
	}
	return &Backoff{base: base, max: max}
}

// Next returns the delay before the next attempt and advances the
// schedule.
func (b *Backoff) Next() time.Duration {
	d := b.base
	for i := 0; i < b.attempt && d < b.max; i++ {
		d *= 2
	}
	if d > b.max {
		d = b.max
	}
	b.attempt++
	// Uniform jitter in [d/2, 3d/2). rand's global source is
	// concurrency-safe.
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// Reset restarts the schedule after a success.
func (b *Backoff) Reset() { b.attempt = 0 }

// Attempt returns how many delays have been handed out since the last
// Reset.
func (b *Backoff) Attempt() int { return b.attempt }

// Sleep waits for d or until cancel is closed, whichever comes first,
// and reports whether the full delay elapsed (false means cancelled).
// This is the interruptible replacement for a bare time.Sleep inside a
// retry loop: a client Close must not block behind the tail of a
// multi-second backoff. A nil cancel degrades to a plain timed wait.
func Sleep(d time.Duration, cancel <-chan struct{}) bool {
	if d <= 0 {
		select {
		case <-cancel:
			return false
		default:
			return true
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-cancel:
		return false
	}
}

// ResetTimer safely rearms a timer whose channel may hold a stale tick.
func ResetTimer(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}
