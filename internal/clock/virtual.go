package clock

import (
	"container/heap"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Virtual is a discrete-event clock: time stands still while code runs
// and jumps straight to the next armed deadline when the system is
// quiescent. A 60-second soak costs milliseconds of wall time, and with
// a fixed seed every run fires the same events in the same order.
//
// Two modes of use:
//
//   - Inline (single-threaded): the driver arms AfterFunc callbacks
//     only, as experiments E7 and E10 do; Step runs them inline on the
//     advancing goroutine in deterministic (deadline, arm-order) order.
//     With no other goroutines the quiescence barrier is exact and runs
//     are byte-for-byte reproducible.
//
//   - Concurrent: real runtime components (engine pumps, supervisors,
//     outbox workers) block on virtual timers and pipe receives from
//     their own goroutines while a driver goroutine calls Run. Advancing
//     waits for the event-count barrier — every packet handed to a
//     blocked receiver must be collected (Hold/Release) — plus a
//     scheduler settle window, so virtual time cannot run away from a
//     goroutine that is still processing the previous instant.
//
// The zero value is not usable; construct with NewVirtual.
type Virtual struct {
	mu     sync.Mutex
	now    time.Time
	seq    uint64
	events eventHeap

	stepMu sync.Mutex // serializes Step/AdvanceUntil/Run drivers

	wake chan struct{} // signaled when a new event is armed

	held   atomic.Int64 // outstanding deliveries (event-count barrier)
	settle int          // quiescent scheduler rounds required between instants

	seed    int64
	seedCtr atomic.Int64
}

// NewVirtual builds a virtual clock starting at start (a zero start
// picks a fixed epoch so callers need no wall-clock input at all) with
// the given seed for the Seed stream.
func NewVirtual(start time.Time, seed int64) *Virtual {
	if start.IsZero() {
		// An arbitrary fixed epoch: deterministic, positive, far from
		// integer-overflow edges of Duration arithmetic.
		start = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	return &Virtual{now: start, seed: seed, wake: make(chan struct{}, 1)}
}

// SetSettle configures the concurrent-mode quiescence window: after
// firing an instant the clock requires `rounds` consecutive scheduler
// yields with the hold count at zero before advancing again. Zero (the
// default) is inline mode — no settling, exact and fastest — for
// drivers whose whole workload runs inside clock callbacks.
func (v *Virtual) SetSettle(rounds int) { v.settle = rounds }

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Seed implements Clock: a deterministic stream derived from the
// clock's own seed, so components that default their fault-schedule
// seeds "from the clock" stay replayable. The n-th Seed call of a run
// always returns the same value.
func (v *Virtual) Seed() int64 {
	n := uint64(v.seedCtr.Add(1))
	return MixSeed(v.seed^int64(n*splitMixGamma), 1)
}

// Hold marks one unit of in-flight work the clock must not advance past
// — a packet handed to a mailbox whose consumer has not collected it
// yet. Release retires it. A netlink pipe holds across deliveries to
// blocking receivers; inline callbacks never need to. Both are no-ops on
// a nil *Virtual, which is what a link on the wall clock has: there is no
// barrier to hold.
func (v *Virtual) Hold() {
	if v != nil {
		v.held.Add(1)
	}
}

// Release retires a Hold.
func (v *Virtual) Release() {
	if v != nil {
		v.held.Add(-1)
	}
}

// Held reports the Holds not yet released: what the barrier waits for.
func (v *Virtual) Held() int64 { return v.held.Load() }

// vtimer is one virtual timer/ticker: armings are heap entries tagged
// with the timer's generation, so Stop and Reset invalidate stale
// entries lazily instead of searching the heap.
type vtimer struct {
	v      *Virtual
	ch     chan time.Time // nil for AfterFunc timers
	fn     func()         // nil for channel timers
	period time.Duration  // >0 for tickers

	// Guarded by v.mu.
	gen   uint64
	armed bool
}

func (t *vtimer) C() <-chan time.Time { return t.ch }

// Reset re-arms the timer for d from the current virtual instant.
func (t *vtimer) Reset(d time.Duration) {
	v := t.v
	v.mu.Lock()
	t.gen++
	t.armed = true
	v.push(t, v.now.Add(d))
	v.mu.Unlock()
	v.signal()
}

// Stop cancels a pending firing, reporting whether one was pending.
func (t *vtimer) Stop() bool {
	v := t.v
	v.mu.Lock()
	defer v.mu.Unlock()
	was := t.armed
	t.armed = false
	t.gen++
	return was
}

type event struct {
	at  time.Time
	seq uint64
	t   *vtimer
	gen uint64
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = event{}
	*h = old[:n-1]
	return e
}

// push arms one heap entry; call with v.mu held.
func (v *Virtual) push(t *vtimer, at time.Time) {
	if at.Before(v.now) {
		at = v.now
	}
	v.seq++
	heap.Push(&v.events, event{at: at, seq: v.seq, t: t, gen: t.gen})
}

// signal wakes a Run driver waiting for work to appear.
func (v *Virtual) signal() {
	select {
	case v.wake <- struct{}{}:
	default:
	}
}

// NewTimer implements Clock.
func (v *Virtual) NewTimer(d time.Duration) Timer {
	t := &vtimer{v: v, ch: make(chan time.Time, 1)}
	t.Reset(d)
	return t
}

// NewTicker implements Clock. Virtual tickers coalesce exactly like
// runtime tickers under load: when the clock jumps several periods at
// once the ticker fires once at the jump target and re-arms one period
// later — which is precisely the contract the wheel's clock-derived
// catch-up was built for.
func (v *Virtual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		d = time.Nanosecond
	}
	t := &vtimer{v: v, ch: make(chan time.Time, 1), period: d}
	t.Reset(d)
	return vticker{t}
}

// vticker adapts vtimer to the Ticker interface (Stop drops the bool).
type vticker struct{ t *vtimer }

func (t vticker) C() <-chan time.Time { return t.t.ch }
func (t vticker) Stop()               { t.t.Stop() }

// AfterFunc implements Clock: fn runs inline on the advancing goroutine
// at its virtual deadline, in deterministic (deadline, arm-order) order.
func (v *Virtual) AfterFunc(d time.Duration, fn func()) Timer {
	t := &vtimer{v: v, fn: fn}
	t.Reset(d)
	return t
}

// dropStale removes invalidated heap heads; call with v.mu held.
func (v *Virtual) dropStale() {
	for len(v.events) > 0 {
		e := v.events[0]
		if e.t.armed && e.t.gen == e.gen {
			return
		}
		heap.Pop(&v.events)
	}
}

// nextDeadline returns the earliest pending deadline.
func (v *Virtual) nextDeadline() (time.Time, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.dropStale()
	if len(v.events) == 0 {
		return time.Time{}, false
	}
	return v.events[0].at, true
}

// fireAt runs everything due at or before t in (deadline, arm-order)
// order, looping until no due work remains — work fired at t may arm more
// work at t. Reports whether anything fired.
func (v *Virtual) fireAt(t time.Time) bool {
	any := false
	for {
		fired := false
		for {
			v.mu.Lock()
			v.dropStale()
			if len(v.events) == 0 || v.events[0].at.After(t) {
				v.mu.Unlock()
				break
			}
			e := heap.Pop(&v.events).(event)
			tm := e.t
			if tm.period > 0 {
				// Ticker: re-arm one period past the firing instant.
				tm.gen++
				v.push(tm, t.Add(tm.period))
			} else {
				tm.armed = false
			}
			now := v.now
			v.mu.Unlock()
			fired = true
			if tm.fn != nil {
				tm.fn()
			} else {
				select {
				case tm.ch <- now:
				default:
				}
			}
		}
		if !fired {
			return any
		}
		any = true
		v.quiesce()
	}
}

// quiesce is the concurrent-mode barrier: wait for every held delivery
// to be collected and the scheduler to run quiet for the configured
// rounds, so goroutines woken by the last instant reach their next
// blocking point before time moves again. Inline mode (settle 0) skips
// it entirely.
func (v *Virtual) quiesce() {
	rounds := v.settle
	if rounds <= 0 {
		return
	}
	quiet := 0
	// The iteration cap turns a leaked Hold into slow progress rather
	// than a wedged clock; 50k yields is far beyond any legitimate
	// settle.
	for i := 0; quiet < rounds && i < 50_000; i++ {
		if v.held.Load() != 0 {
			quiet = 0
		} else {
			quiet++
		}
		runtime.Gosched()
		if i&63 == 63 {
			// Under GOMAXPROCS pressure Gosched alone may starve the
			// woken goroutine; a real microsleep guarantees it CPU.
			time.Sleep(10 * time.Microsecond)
		}
	}
}

// Step advances to the next pending deadline and fires it, reporting
// whether there was one.
func (v *Virtual) Step() bool {
	v.stepMu.Lock()
	defer v.stepMu.Unlock()
	at, ok := v.nextDeadline()
	if !ok {
		return false
	}
	v.mu.Lock()
	if at.After(v.now) {
		v.now = at
	} else {
		at = v.now
	}
	v.mu.Unlock()
	v.fireAt(at)
	return true
}

// AdvanceUntil fires every instant up to and including t, then sets the
// clock to exactly t. It returns the number of instants fired.
func (v *Virtual) AdvanceUntil(t time.Time) int {
	v.stepMu.Lock()
	defer v.stepMu.Unlock()
	n := 0
	for {
		at, ok := v.nextDeadline()
		if !ok || at.After(t) {
			break
		}
		v.mu.Lock()
		if at.After(v.now) {
			v.now = at
		} else {
			at = v.now
		}
		v.mu.Unlock()
		v.fireAt(at)
		n++
	}
	v.mu.Lock()
	if t.After(v.now) {
		v.now = t
	}
	v.mu.Unlock()
	return n
}

// AdvanceBy is AdvanceUntil(now + d).
func (v *Virtual) AdvanceBy(d time.Duration) int {
	return v.AdvanceUntil(v.Now().Add(d))
}

// Run drives the clock from a dedicated goroutine until virtual time
// reaches until or stop closes: it fires pending instants as they
// appear, and when the heap runs momentarily dry — concurrent goroutines
// arm timers from outside clock callbacks — it waits for the next
// arming (with a real-time fallback poll, since a goroutine may be
// between "woken" and "armed" when the dry check runs).
func (v *Virtual) Run(until time.Time, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		if !v.Now().Before(until) {
			return
		}
		if next, ok := v.nextDeadline(); ok && !next.After(until) {
			v.Step()
			continue
		}
		select {
		case <-v.wake:
		case <-stop:
			return
		case <-time.After(200 * time.Microsecond):
		}
	}
}
