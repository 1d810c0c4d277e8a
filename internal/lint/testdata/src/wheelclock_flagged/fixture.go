// Fixture: the wheelclock analyzer must flag runtime-timer constructors
// and blockers inside wheel territory (the harness runs this under
// ghm/internal/netlink) while leaving time.Time methods and wheel usage
// alone.
package fixture

import (
	"time"

	"ghm/internal/engine"
)

func badPacing(d time.Duration) {
	time.Sleep(d)         // want "time.Sleep"
	<-time.After(d)       // want "time.After"
	t := time.NewTimer(d) // want "time.NewTimer"
	defer t.Stop()
	tk := time.NewTicker(d) // want "time.NewTicker"
	defer tk.Stop()
}

// Methods on time values are not pacing: the analyzer must not confuse
// time.Time.After with the package function time.After.
func timeMath(deadline time.Time, now time.Time) bool {
	return deadline.After(now) && now.Add(time.Second).Before(deadline)
}

// Arming the shared wheel is the sanctioned idiom.
func goodPacing(d time.Duration, fire func()) *engine.Timer {
	return engine.DefaultWheel().AfterFunc(d, fire)
}

// Wall-clock reads split the component's notion of time from the clock
// that paces it; timestamps must come from the injected clock.
func badStamps(start time.Time) time.Duration {
	now := time.Now() // want "time.Now"
	_ = now
	return time.Since(start) // want "time.Since"
}

// A timer armed with time.Until runs on wall time however virtual the
// deadline was.
func badDeadline(deadline time.Time) time.Duration {
	return time.Until(deadline) // want "time.Until"
}
