// Package clock abstracts time for the whole runtime. Every layer that
// used to reach for time.Now, time.NewTimer or time.NewTicker takes a
// Clock instead: real deployments inject Real (the wall clock, identical
// behavior to the time package), while tests and experiments E7 and E10
// inject Virtual — a discrete-event clock that advances only when the
// system is quiescent, making seeded runs deterministic and letting a
// 60-second soak finish in milliseconds of wall time.
//
// The timer wheel (ghm/internal/engine.Wheel) remains the pacing
// mechanism for protocol retries; the clock is the layer *under* the
// wheel — the source its ticks and catch-up arithmetic derive from —
// and the source of every other timestamp in the runtime: impairment
// release schedules, watchdog progress stamps, latency histograms, and
// default RNG seeds (Seed), so that a default-seeded run is still
// replayable under a virtual clock.
package clock

import "time"

// Timer is one armed timer. C fires at most once per arming; Reset
// re-arms it (whether or not it has fired) and Stop cancels a pending
// firing. Unlike time.Timer, Reset on an expired-but-undrained timer is
// allowed: the channel has capacity one and a stale value is the
// caller's to drain, exactly as with the runtime's timers.
type Timer interface {
	C() <-chan time.Time
	Reset(d time.Duration)
	Stop() bool
}

// Ticker fires repeatedly every period until stopped. Like time.Ticker,
// it coalesces: a slow receiver (or a virtual clock jumping several
// periods at once) sees one firing, not a backlog.
type Ticker interface {
	C() <-chan time.Time
	Stop()
}

// Clock is the runtime's time source.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// NewTimer arms a timer firing once after d.
	NewTimer(d time.Duration) Timer
	// NewTicker arms a ticker firing every d.
	NewTicker(d time.Duration) Ticker
	// AfterFunc schedules fn after d. On Real it runs on its own
	// goroutine (time.AfterFunc); on Virtual it runs inline on the
	// advancing goroutine, in deterministic deadline order.
	AfterFunc(d time.Duration, fn func()) Timer
	// Seed draws a seed for a component that was not given one
	// explicitly. Real derives it from the wall clock (the legacy
	// time.Now().UnixNano() default); Virtual derives a deterministic
	// stream from its own seed, so default-seeded components remain
	// replayable. Every drawn seed should land in the run's repro JSON.
	Seed() int64
}

// Wait blocks for d on clk, returning false if cancel fires first. It is
// the clock-driven replacement for the time.Sleep polling loops in the
// soak harnesses: under a virtual clock the wait consumes virtual time
// only.
func Wait(clk Clock, d time.Duration, cancel <-chan struct{}) bool {
	if d <= 0 {
		select {
		case <-cancel:
			return false
		default:
			return true
		}
	}
	t := clk.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C():
		return true
	case <-cancel:
		return false
	}
}
