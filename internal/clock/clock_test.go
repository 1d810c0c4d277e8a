package clock

import (
	"testing"
	"time"
)

func TestVirtualAfterFuncOrder(t *testing.T) {
	v := NewVirtual(time.Time{}, 1)
	var got []int
	v.AfterFunc(30*time.Millisecond, func() { got = append(got, 3) })
	v.AfterFunc(10*time.Millisecond, func() { got = append(got, 1) })
	v.AfterFunc(20*time.Millisecond, func() { got = append(got, 2) })
	// Same deadline: arm order breaks the tie.
	v.AfterFunc(20*time.Millisecond, func() { got = append(got, 4) })
	start := v.Now()
	if n := v.AdvanceBy(time.Second); n != 3 {
		t.Fatalf("AdvanceBy fired %d instants, want 3", n)
	}
	want := []int{1, 2, 4, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if d := v.Now().Sub(start); d != time.Second {
		t.Fatalf("clock advanced %v, want exactly 1s", d)
	}
}

func TestVirtualTimerStopReset(t *testing.T) {
	v := NewVirtual(time.Time{}, 1)
	fired := 0
	tm := v.AfterFunc(10*time.Millisecond, func() { fired++ })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer reported false")
	}
	v.AdvanceBy(time.Second)
	if fired != 0 {
		t.Fatalf("stopped timer fired %d times", fired)
	}
	tm.Reset(5 * time.Millisecond)
	v.AdvanceBy(time.Second)
	if fired != 1 {
		t.Fatalf("reset timer fired %d times, want 1", fired)
	}
	if tm.Stop() {
		t.Fatal("Stop on fired timer reported true")
	}
}

func TestVirtualTimerChannel(t *testing.T) {
	v := NewVirtual(time.Time{}, 1)
	tm := v.NewTimer(10 * time.Millisecond)
	select {
	case <-tm.C():
		t.Fatal("timer fired before advance")
	default:
	}
	v.AdvanceBy(10 * time.Millisecond)
	select {
	case at := <-tm.C():
		if got := at.Sub(NewVirtual(time.Time{}, 1).Now()); got != 10*time.Millisecond {
			t.Fatalf("fired at +%v, want +10ms", got)
		}
	default:
		t.Fatal("timer did not fire")
	}
}

func TestVirtualTickerCoalesces(t *testing.T) {
	v := NewVirtual(time.Time{}, 1)
	tk := v.NewTicker(10 * time.Millisecond)
	defer tk.Stop()
	// Jump ten periods at once: one coalesced tick must be pending,
	// and the ticker must keep going afterwards.
	v.AdvanceBy(100 * time.Millisecond)
	n := 0
	for {
		select {
		case <-tk.C():
			n++
			continue
		default:
		}
		break
	}
	if n != 1 {
		t.Fatalf("got %d pending ticks after jump, want 1 (coalesced)", n)
	}
	v.AdvanceBy(10 * time.Millisecond)
	select {
	case <-tk.C():
	default:
		t.Fatal("ticker stalled after coalesced firing")
	}
}

func TestVirtualSeedDeterministic(t *testing.T) {
	a := NewVirtual(time.Time{}, 42)
	b := NewVirtual(time.Time{}, 42)
	for i := 0; i < 8; i++ {
		if sa, sb := a.Seed(), b.Seed(); sa != sb {
			t.Fatalf("seed stream diverged at draw %d: %d vs %d", i, sa, sb)
		}
	}
	c := NewVirtual(time.Time{}, 43)
	if a.Seed() == c.Seed() {
		t.Fatal("different clock seeds produced identical Seed draws")
	}
}

func TestRealSeedDistinct(t *testing.T) {
	if System().Seed() == System().Seed() {
		t.Fatal("two Real seed draws collided")
	}
}

func TestVirtualRunConcurrent(t *testing.T) {
	v := NewVirtual(time.Time{}, 1)
	v.SetSettle(4)
	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		// A goroutine sleeping on virtual timers, arming each from
		// outside clock callbacks — the racy case Run's wake/poll loop
		// must handle.
		n := 0
		for i := 0; i < 5; i++ {
			if !Wait(v, 10*time.Millisecond, stop) {
				break
			}
			n++
		}
		done <- n
	}()
	go v.Run(v.Now().Add(time.Second), stop)
	select {
	case n := <-done:
		if n != 5 {
			t.Fatalf("waiter completed %d sleeps, want 5", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("virtual Run wedged")
	}
	close(stop)
}

func TestWaitCancel(t *testing.T) {
	v := NewVirtual(time.Time{}, 1)
	cancel := make(chan struct{})
	close(cancel)
	if Wait(v, time.Hour, cancel) {
		t.Fatal("Wait ignored cancel")
	}
}
