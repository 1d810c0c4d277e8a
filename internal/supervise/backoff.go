package supervise

import "time"

// backoff produces jittered exponential restart delays: attempt n waits
// base<<(n-1) capped at max, then jittered uniformly into [d/2, d] so a
// fleet of supervisors sharing a fault does not restart in lockstep. The
// jitter is a SplitMix64 stream: eight bytes of state where a math/rand
// source costs 5 KB, and a mesh runs a supervisor per directed hop.
type backoff struct {
	base, max time.Duration
	rng       uint64 // the stream's state; its seed is the supervisor's
}

// draw advances the jitter stream by one.
func (b *backoff) draw() uint64 {
	b.rng += 0x9e3779b97f4a7c15
	z := b.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
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
	return d/2 + time.Duration(b.draw()%uint64(d/2+1))
}
