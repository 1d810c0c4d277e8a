package engine

import (
	"sync"
	"time"

	"ghm/internal/clock"
)

// Wheel defaults: a 100µs tick keeps retry pacing faithful down to the
// sub-millisecond intervals the tests and benchmarks use, while 256
// slots give a 25.6ms horizon per revolution; longer delays ride the
// per-timer rounds counter.
const (
	defaultWheelTick  = 100 * time.Microsecond
	defaultWheelSlots = 256
)

// Wheel is a hashed timer wheel: one goroutine and one ticker service
// any number of timers, replacing the per-station retry goroutines the
// stations used to spawn. Precision is one tick — a timer fires in
// [d, d+tick) — which is exactly what retry pacing needs and far cheaper
// than a runtime timer per station at high station counts.
//
// Callbacks run sequentially on the wheel goroutine — timers due on one
// tick in the order they were armed — and must not block; a blocking
// callback stalls every other timer on the wheel.
//
// The wheel rides an injected clock.Clock. On the wall clock it ticks a
// real ticker exactly as before. On a *clock.Virtual it does not tick at
// all: each timer delegates to the virtual clock's event heap (rounded
// to the wheel grid), so a 60-second virtual soak costs thousands of
// events rather than 600k empty ticks, and callbacks run inline on the
// advancing goroutine in deterministic order — the same "sequential, do
// not block" contract as the wheel goroutine.
type Wheel struct {
	tick time.Duration
	clk  clock.Clock
	virt bool // timers delegate to the virtual clock's heap

	mu     sync.Mutex
	slots  []timerList
	cursor int

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewWheel starts a wheel on the wall clock. Zero tick or slots pick the
// defaults.
func NewWheel(tick time.Duration, slots int) *Wheel {
	return NewWheelOn(clock.System(), tick, slots)
}

// NewWheelOn starts a wheel on clk. A *clock.Virtual wheel spawns no
// goroutine (see Wheel); any other clock gets the classic ticker loop
// driven by that clock's ticker and Now, until Stop.
func NewWheelOn(clk clock.Clock, tick time.Duration, slots int) *Wheel {
	w := newWheel(clk, tick, slots)
	if !w.virt {
		go w.run()
	}
	return w
}

// newWheel builds a wheel and leaves starting its goroutine to the caller
// (see runDefault).
func newWheel(clk clock.Clock, tick time.Duration, slots int) *Wheel {
	if clk == nil {
		clk = clock.System()
	}
	if tick <= 0 {
		tick = defaultWheelTick
	}
	if slots <= 0 {
		slots = defaultWheelSlots
	}
	if _, ok := clk.(*clock.Virtual); ok {
		return &Wheel{tick: tick, clk: clk, virt: true}
	}
	w := &Wheel{
		tick:  tick,
		clk:   clk,
		slots: make([]timerList, slots),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	return w
}

// timerList is one wheel slot: the timers armed into it, doubly linked
// through the timers themselves in arming order, so that arming, re-arming
// and stopping are pointer splices and a slot costs nothing until — and
// nothing when — a timer first lands in it. Guarded by Wheel.mu.
type timerList struct{ head, tail *Timer }

func (l *timerList) pushBack(t *Timer) {
	t.prev, t.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = t
	} else {
		l.head = t
	}
	l.tail = t
}

func (l *timerList) remove(t *Timer) {
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		l.head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		l.tail = t.prev
	}
	t.prev, t.next = nil, nil
}

// Clock returns the clock the wheel rides. Components holding a wheel
// (directly or via an engine endpoint) derive every timestamp from it,
// so injecting a clock at the wheel is enough to virtualize a whole
// station.
func (w *Wheel) Clock() clock.Clock { return w.clk }

var (
	defaultWheelOnce sync.Once
	defaultWheel     *Wheel
)

// DefaultWheel returns the process-wide shared wheel, started on first
// use and never stopped — the analogue of the runtime's own timer
// goroutine. Engines without an explicit Config.Wheel use it.
func DefaultWheel() *Wheel {
	defaultWheelOnce.Do(func() {
		defaultWheel = newWheel(clock.System(), 0, 0)
		go defaultWheel.runDefault()
	})
	return defaultWheel
}

// Timer is one scheduled callback. It fires once; re-arm it from the
// callback with Reset for periodic work (no allocation per period).
type Timer struct {
	w  *Wheel
	fn func()

	// Virtual-wheel mode: the clock-heap timer this one delegates to.
	ct clock.Timer

	// Guarded by w.mu (ticker mode only). A timer that is not stopped is
	// on the list of w.slots[slot], through prev and next.
	rounds     int
	slot       int
	stopped    bool
	prev, next *Timer
}

// AfterFunc schedules fn to run once after roughly d (rounded up to a
// whole tick).
func (w *Wheel) AfterFunc(d time.Duration, fn func()) *Timer {
	t := &Timer{w: w, fn: fn, stopped: true}
	t.Reset(d)
	return t
}

// Reset re-arms t to fire after roughly d, whether or not it has already
// fired or been stopped. Safe to call from the timer's own callback. It
// allocates nothing, whichever slot of the wheel d lands in.
func (t *Timer) Reset(d time.Duration) {
	w := t.w
	ticks := int64((d + w.tick - 1) / w.tick)
	if ticks < 1 {
		ticks = 1
	}
	if w.virt {
		// Delegate to the virtual clock's heap, on the wheel grid.
		d := time.Duration(ticks) * w.tick
		if t.ct == nil {
			t.ct = w.clk.AfterFunc(d, t.fn)
		} else {
			t.ct.Reset(d)
		}
		return
	}
	w.mu.Lock()
	if !t.stopped {
		w.slots[t.slot].remove(t)
	}
	t.stopped = false
	t.slot = (w.cursor + int(ticks)) % len(w.slots)
	// The slot is first scanned ticks%len(slots) ticks from now; every
	// further full revolution decrements rounds once.
	t.rounds = int(ticks-1) / len(w.slots)
	w.slots[t.slot].pushBack(t)
	w.mu.Unlock()
}

// Stop cancels t; it reports whether the timer was still pending. A
// stopped timer's callback is never invoked again until Reset.
func (t *Timer) Stop() bool {
	w := t.w
	if w.virt {
		if t.ct == nil {
			return false
		}
		return t.ct.Stop()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if t.stopped {
		return false
	}
	t.stopped = true
	w.slots[t.slot].remove(t)
	return true
}

// Stop halts the wheel goroutine; pending timers never fire. The default
// wheel is never stopped. A virtual wheel has no goroutine; its pending
// timers simply stay on the clock's heap, so Stop is a no-op there.
func (w *Wheel) Stop() {
	if w.virt {
		return
	}
	w.stopOnce.Do(func() {
		close(w.stop)
		<-w.done
	})
}

// runDefault is the process-wide wheel's goroutine. It is run under a
// name of its own because a goroutine's stack is how the leak guard
// (internal/testutil) tells that wheel, which may outlive a test, from
// every other wheel, which may not.
func (w *Wheel) runDefault() { w.run() }

func (w *Wheel) run() {
	defer close(w.done)
	tk := w.clk.NewTicker(w.tick)
	defer tk.Stop()
	start := w.clk.Now()
	var processed int64 // ticks advanced so far
	var due []func()
	for {
		select {
		case now := <-tk.C():
			// A ticker this fast drops ticks whenever the process stalls
			// (its channel buffers one), so wheel time is derived from the
			// clock: advance however many ticks really elapsed, scanning
			// every slot passed over, and pacing stays faithful under load.
			target := int64(now.Sub(start) / w.tick)
			if target <= processed {
				continue
			}
			w.mu.Lock()
			for processed < target {
				processed++
				w.cursor = (w.cursor + 1) % len(w.slots)
				for t := w.slots[w.cursor].head; t != nil; {
					next := t.next // remove clears t's links
					if t.rounds > 0 {
						t.rounds--
					} else {
						w.slots[w.cursor].remove(t)
						t.stopped = true
						due = append(due, t.fn)
					}
					t = next
				}
			}
			w.mu.Unlock()
			for _, fn := range due {
				fn()
			}
			clear(due) // a fired callback must not pin what it closed over
			due = due[:0]
		case <-w.stop:
			return
		}
	}
}
