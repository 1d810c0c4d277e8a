package supervise

import (
	"time"

	"ghm/internal/clock"
)

// backoff produces jittered exponential restart delays: attempt n waits
// base<<(n-1) capped at max, then jittered uniformly into [d/2, d] so a
// fleet of supervisors sharing a fault does not restart in lockstep. The
// jitter is a clock.SplitMix stream: eight bytes of state where a
// math/rand source costs 5 KB, and a mesh runs a supervisor per directed
// hop.
type backoff struct {
	base, max time.Duration
	rng       clock.SplitMix // seeded with the supervisor's seed
}

func (b *backoff) next(attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	shift := attempt - 1
	if shift > 16 {
		shift = 16
	}
	d := b.base << shift
	if d > b.max || d <= 0 { // <= 0 guards shift overflow
		d = b.max
	}
	// The modulo's bias, at most (d/2+1)/2⁶⁴, is below 2⁻²⁷ for any
	// delay under two minutes.
	return d/2 + time.Duration(b.rng.Next()%uint64(d/2+1))
}
