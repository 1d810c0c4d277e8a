package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ghm/internal/testutil"
)

func TestWheelAfterFuncFires(t *testing.T) {
	w := NewWheel(time.Millisecond, 16)
	defer w.Stop()

	fired := make(chan time.Duration, 1)
	start := time.Now()
	w.AfterFunc(5*time.Millisecond, func() { fired <- time.Since(start) })
	select {
	case el := <-fired:
		// Never early by more than scheduler slop; generous upper bound
		// for loaded CI hosts.
		if el < 3*time.Millisecond {
			t.Fatalf("fired after %v, want ~5ms", el)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
}

// TestWheelLetsGoOfFiredCallbacks: once a callback has run, the wheel
// holds no reference to it, so what it closed over is garbage. A wheel
// that kept its last batch of callbacks kept a closed mesh alive on the
// process-wide wheel until later timers overwrote them.
func TestWheelLetsGoOfFiredCallbacks(t *testing.T) {
	w := NewWheel(time.Millisecond, 16)
	defer w.Stop()
	fired, collected := make(chan struct{}), make(chan struct{})
	func() {
		held := new([1 << 10]byte)
		runtime.SetFinalizer(held, func(*[1 << 10]byte) { close(collected) })
		w.AfterFunc(time.Millisecond, func() {
			held[0]++
			close(fired)
		})
	}()
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("what a fired callback closed over is still reachable")
}

func TestWheelRoundsBeyondOneRevolution(t *testing.T) {
	// 4 slots x 1ms tick = 4ms per revolution; a 10ms delay must ride the
	// rounds counter and not fire a revolution early.
	w := NewWheel(time.Millisecond, 4)
	defer w.Stop()

	fired := make(chan time.Duration, 1)
	start := time.Now()
	w.AfterFunc(10*time.Millisecond, func() { fired <- time.Since(start) })
	select {
	case el := <-fired:
		if el < 8*time.Millisecond {
			t.Fatalf("fired after %v, want ~10ms (a full revolution early?)", el)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
}

func TestWheelStopCancelsTimer(t *testing.T) {
	w := NewWheel(time.Millisecond, 16)
	defer w.Stop()

	var fired atomic.Bool
	tm := w.AfterFunc(5*time.Millisecond, func() { fired.Store(true) })
	if !tm.Stop() {
		t.Fatal("Stop on a pending timer reported not pending")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported pending")
	}
	time.Sleep(20 * time.Millisecond)
	if fired.Load() {
		t.Fatal("stopped timer fired")
	}
}

func TestWheelResetFromCallback(t *testing.T) {
	// The retry-pacing shape: a callback that re-arms its own timer runs
	// periodically with no allocation per period.
	w := NewWheel(time.Millisecond, 16)
	defer w.Stop()

	var mu sync.Mutex
	var tm *Timer
	count := 0
	done := make(chan struct{})
	mu.Lock()
	tm = w.AfterFunc(2*time.Millisecond, func() {
		mu.Lock()
		defer mu.Unlock()
		count++
		if count == 3 {
			close(done)
			return
		}
		tm.Reset(2 * time.Millisecond)
	})
	mu.Unlock()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("periodic timer fired %d times, want 3", count)
	}
}

func TestWheelResetAfterFire(t *testing.T) {
	w := NewWheel(time.Millisecond, 16)
	defer w.Stop()

	fired := make(chan struct{}, 2)
	tm := w.AfterFunc(2*time.Millisecond, func() { fired <- struct{}{} })
	<-fired
	tm.Reset(2 * time.Millisecond)
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("reset timer never re-fired")
	}
}

func TestWheelStopHaltsPending(t *testing.T) {
	w := NewWheel(time.Millisecond, 16)
	var fired atomic.Bool
	w.AfterFunc(5*time.Millisecond, func() { fired.Store(true) })
	w.Stop()
	w.Stop() // idempotent
	time.Sleep(20 * time.Millisecond)
	if fired.Load() {
		t.Fatal("timer fired after wheel stop")
	}
}

func TestWheelTracksRealTimeUnderDroppedTicks(t *testing.T) {
	// Wheel time is clock-derived: even when the ticker drops events
	// (loaded host, tiny tick), N periodic re-arms take ~N*interval, not
	// longer. A 100us-tick wheel servicing a 1ms periodic timer must
	// manage ~20 firings in ~25ms.
	w := NewWheel(100*time.Microsecond, 64)
	defer w.Stop()

	var mu sync.Mutex
	var tm *Timer
	count := 0
	done := make(chan struct{})
	start := time.Now()
	mu.Lock()
	tm = w.AfterFunc(time.Millisecond, func() {
		mu.Lock()
		defer mu.Unlock()
		count++
		if count == 20 {
			close(done)
			return
		}
		tm.Reset(time.Millisecond)
	})
	mu.Unlock()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("20 x 1ms periodic firings did not complete in 2s (got %d) — wheel time lagging real time", count)
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("20 x 1ms firings took %v", el)
	}
}

// TestWheelResetAllocs is the re-arm path's budget (with
// TestWheelResetAllocatesNothing below): a periodic timer re-arming
// itself with Reset allocates nothing per period.
func TestWheelResetAllocs(t *testing.T) {
	w := NewWheel(time.Millisecond, 16)
	defer w.Stop()

	tm := w.AfterFunc(time.Hour, func() {})
	defer tm.Stop()
	if avg := testing.AllocsPerRun(200, func() {
		tm.Reset(time.Hour)
	}); avg > 0 {
		t.Errorf("Timer.Reset allocs/op = %v, want 0", avg)
	}
}

// TestWheelResetAllocatesNothing pins that a slot costs nothing the first
// time a timer lands in it: 2000 re-arms at durations that visit every slot
// of the wheel, several revolutions deep, and not one malloc from the first
// call on. It counts with runtime.MemStats because AllocsPerRun reports an
// integer average, and one malloc per slot — what a map per slot cost —
// averages to zero over 2000 runs.
func TestWheelResetAllocatesNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates shadow state of its own")
	}
	const resets = 2000
	// Mallocs counts the whole process. One processor, as AllocsPerRun
	// measures, keeps other goroutines off it while the loop runs, and a
	// stray allocation by the runtime fails one attempt, where a wheel that
	// allocates fails all of them.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var mallocs uint64
	for attempt := 0; attempt < 5; attempt++ {
		w := NewWheel(time.Hour, 0) // never ticks: the test is alone on the wheel
		tm := w.AfterFunc(time.Hour, func() {})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < resets; i++ {
			tm.Reset(time.Duration(1+i*7%(3*defaultWheelSlots)) * time.Hour)
		}
		runtime.ReadMemStats(&after)
		w.Stop()
		if mallocs = after.Mallocs - before.Mallocs; mallocs == 0 {
			return
		}
	}
	t.Errorf("%d Timer.Reset calls over the whole wheel: %d mallocs, want 0", resets, mallocs)
}

// wheelLists checks every slot's list under the wheel lock — forward and
// backward walks agree, every timer on a list is armed and knows its slot —
// and returns what is armed where, in list order.
func wheelLists(t *testing.T, w *Wheel, names map[*Timer]string) string {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	out := ""
	for i := range w.slots {
		l := &w.slots[i]
		if (l.head == nil) != (l.tail == nil) {
			t.Fatalf("slot %d: head %p, tail %p", i, l.head, l.tail)
		}
		if l.head == nil {
			continue
		}
		if l.head.prev != nil || l.tail.next != nil {
			t.Fatalf("slot %d: the list runs past its ends", i)
		}
		out += fmt.Sprintf(" %d:", i)
		var last *Timer
		for tm := l.head; tm != nil; last, tm = tm, tm.next {
			if tm.prev != last {
				t.Fatalf("slot %d: %s.prev is not its predecessor", i, names[tm])
			}
			if tm.stopped || tm.slot != i {
				t.Fatalf("slot %d: holds %s (stopped=%v, slot=%d)", i, names[tm], tm.stopped, tm.slot)
			}
			out += names[tm]
		}
		if last != l.tail {
			t.Fatalf("slot %d: the walk ends at %s, the tail is %s", i, names[last], names[l.tail])
		}
	}
	return out
}

// TestWheelListIntegrity drives the slot lists through every splice: arm,
// re-arm into the same slot and into another, stop at the head, in the
// middle and at the tail, re-arm a stopped timer — then, on a turning
// wheel, a callback that stops and re-arms its own timer beside a timer
// that has revolutions left to wait.
func TestWheelListIntegrity(t *testing.T) {
	w := NewWheel(time.Hour, 8) // never ticks: the cursor stays at 0
	defer w.Stop()
	names := make(map[*Timer]string)
	arm := func(name string, hours int) *Timer {
		tm := w.AfterFunc(time.Duration(hours)*time.Hour, func() {})
		names[tm] = name
		return tm
	}
	expect := func(want string) {
		t.Helper()
		if got := wheelLists(t, w, names); got != want {
			t.Fatalf("lists are%s, want%s", got, want)
		}
	}
	a, b, c, d := arm("a", 3), arm("b", 3), arm("c", 11), arm("d", 3)
	expect(" 3:abcd") // c waits a revolution in the same slot
	b.Reset(3 * time.Hour)
	expect(" 3:acdb") // re-armed: to the back of its own slot
	a.Reset(5 * time.Hour)
	expect(" 3:cdb 5:a") // the head moved to another slot
	e, f := arm("e", 19), arm("f", 3)
	expect(" 3:cdbef 5:a")
	for _, step := range []struct {
		tm   *Timer
		want string
	}{{c, " 3:dbef 5:a"}, {b, " 3:def 5:a"}, {f, " 3:de 5:a"}, {a, " 3:de"}} {
		if !step.tm.Stop() {
			t.Fatalf("Stop(%s) found it not pending", names[step.tm])
		}
		if step.tm.Stop() {
			t.Fatalf("second Stop(%s) found it pending", names[step.tm])
		}
		expect(step.want)
	}
	b.Reset(3 * time.Hour)
	expect(" 3:deb")
	for _, tm := range []*Timer{d, e, b} {
		tm.Stop()
	}
	expect("")

	// A turning wheel: the periodic timer stops itself (it has fired, so
	// there is nothing to stop) and re-arms from its own callback; the
	// survivor, armed into the same slot, sits out two revolutions there.
	live := NewWheel(time.Millisecond, 4)
	defer live.Stop()
	var (
		mu       sync.Mutex
		periodic *Timer
		fired    int
	)
	done := make(chan struct{})
	survived := make(chan time.Duration, 1)
	start := time.Now()
	mu.Lock()
	periodic = live.AfterFunc(2*time.Millisecond, func() {
		mu.Lock()
		defer mu.Unlock()
		if periodic.Stop() {
			t.Error("a timer was pending inside its own callback")
		}
		if fired++; fired == 8 {
			close(done)
			return
		}
		periodic.Reset(2 * time.Millisecond)
	})
	survivor := live.AfterFunc(10*time.Millisecond, func() { survived <- time.Since(start) })
	mu.Unlock()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the periodic timer stopped firing")
	}
	select {
	case el := <-survived:
		if el < 8*time.Millisecond {
			t.Errorf("the survivor fired after %v, want ~10ms: a revolution was skipped", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the survivor never fired")
	}
	if got := wheelLists(t, live, map[*Timer]string{periodic: "p", survivor: "s"}); got != "" {
		t.Errorf("after every timer fired the lists are%s, want empty", got)
	}
}
