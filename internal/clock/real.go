package clock

import (
	"sync/atomic"
	"time"
)

// Real is the wall clock: a thin veneer over the time package with the
// exact semantics the runtime had before clocks were injected. The zero
// value is ready to use; System returns the process-wide instance.
type Real struct{}

var system = Real{}

// System returns the process-wide wall clock. Components default to it
// when no Clock is injected, preserving pre-refactor behavior bit for
// bit.
func System() Clock { return system }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// seedSalt decorrelates seeds drawn within the same wall-clock
// nanosecond (cheap CPUs and coarse clocks make that common when several
// links are built in one loop).
var seedSalt atomic.Int64

// Seed implements Clock: the legacy clock-derived default seed. A
// counter-salted mix keeps two components built in the same nanosecond
// from sharing a fault schedule.
func (Real) Seed() int64 {
	return time.Now().UnixNano() ^ int64(uint64(seedSalt.Add(1))*splitMixGamma)
}

type realTimer struct{ t *time.Timer }

func (r realTimer) C() <-chan time.Time   { return r.t.C }
func (r realTimer) Reset(d time.Duration) { r.t.Reset(d) }
func (r realTimer) Stop() bool            { return r.t.Stop() }

type realTicker struct{ t *time.Ticker }

func (r realTicker) C() <-chan time.Time { return r.t.C }
func (r realTicker) Stop()               { r.t.Stop() }

// NewTimer implements Clock.
func (Real) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

// NewTicker implements Clock.
func (Real) NewTicker(d time.Duration) Ticker { return realTicker{time.NewTicker(d)} }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, fn func()) Timer {
	return realTimer{time.AfterFunc(d, fn)}
}
