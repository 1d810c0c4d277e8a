package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"ghm/internal/clock"
	"ghm/internal/netlink"
)

// virtualFabric builds a fabric on a fresh virtual clock in inline
// (settle 0) mode, the configuration experiments E7 and E10 use.
func virtualFabric(t *testing.T, seed int64) (*Fabric, *clock.Virtual) {
	t.Helper()
	v := clock.NewVirtual(time.Time{}, seed)
	return New(Config{Clock: v, Seed: seed}), v
}

func TestLinkPerfectDelivery(t *testing.T) {
	f, v := virtualFabric(t, 7)
	a, b := f.Link(LinkConfig{LinkModel: netlink.LinkModel{Latency: time.Millisecond}})
	var got [][]byte
	b.SetHandler(func(p []byte) { got = append(got, append([]byte(nil), p...)) })
	for i := 0; i < 10; i++ {
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	v.AdvanceBy(2 * time.Millisecond)
	if len(got) != 10 {
		t.Fatalf("delivered %d packets, want 10", len(got))
	}
	for i, p := range got {
		if p[0] != byte(i) {
			t.Fatalf("packet %d = %v, want [%d] (fixed latency must preserve order)", i, p, i)
		}
	}
	st := a.Stats()
	if st.Sent != 10 || st.Delivered != 10 {
		t.Fatalf("stats = %+v, want 10 sent / 10 delivered", st)
	}
}

func TestLatencyTiming(t *testing.T) {
	f, v := virtualFabric(t, 7)
	a, b := f.Link(LinkConfig{LinkModel: netlink.LinkModel{Latency: 5 * time.Millisecond}})
	var arrived []time.Time
	b.SetHandler(func(p []byte) { arrived = append(arrived, v.Now()) })
	start := v.Now()
	a.Send([]byte("x"))
	v.AdvanceBy(4 * time.Millisecond)
	if len(arrived) != 0 {
		t.Fatalf("packet arrived before its latency elapsed")
	}
	v.AdvanceBy(2 * time.Millisecond)
	if len(arrived) != 1 {
		t.Fatalf("packet did not arrive after latency elapsed")
	}
	if d := arrived[0].Sub(start); d != 5*time.Millisecond {
		t.Fatalf("arrival after %v, want exactly 5ms", d)
	}
}

func TestSeededLossDeterministic(t *testing.T) {
	run := func() (netlink.ImpairStats, []byte) {
		f, v := virtualFabric(t, 42)
		a, b := f.Link(LinkConfig{LinkModel: netlink.LinkModel{Loss: 0.3, Jitter: time.Millisecond}})
		var trace bytes.Buffer
		b.SetHandler(func(p []byte) {
			fmt.Fprintf(&trace, "%v %s\n", v.Now().UnixNano(), p)
		})
		for i := 0; i < 200; i++ {
			a.Send([]byte(fmt.Sprintf("p%03d", i)))
		}
		v.AdvanceBy(10 * time.Millisecond)
		return a.Stats(), trace.Bytes()
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 {
		t.Fatalf("same seed produced different stats:\n%+v\n%+v", s1, s2)
	}
	if !bytes.Equal(t1, t2) {
		t.Fatalf("same seed produced different delivery traces")
	}
	if s1.DropIID == 0 {
		t.Fatalf("30%% loss over 200 packets dropped nothing: %+v", s1)
	}
	if s1.Delivered == 0 {
		t.Fatalf("30%% loss over 200 packets delivered nothing: %+v", s1)
	}
}

func TestDirectionsDecorrelated(t *testing.T) {
	f, v := virtualFabric(t, 42)
	a, b := f.Link(LinkConfig{LinkModel: netlink.LinkModel{Loss: 0.5}})
	if a.Seed() == b.Seed() {
		t.Fatalf("both directions share seed %d", a.Seed())
	}
	var fromA, fromB int
	b.SetHandler(func(p []byte) { fromA++ })
	a.SetHandler(func(p []byte) { fromB++ })
	for i := 0; i < 100; i++ {
		a.Send([]byte{1})
		b.Send([]byte{2})
	}
	v.AdvanceBy(time.Millisecond)
	if a.Stats().DropIID == b.Stats().DropIID && fromA == fromB {
		t.Logf("suspicious: identical drop pattern both directions (possible but unlikely)")
	}
	if fromA == 0 || fromB == 0 {
		t.Fatalf("one direction delivered nothing: a→b %d, b→a %d", fromA, fromB)
	}
}

func TestBlackoutAndLossControls(t *testing.T) {
	f, v := virtualFabric(t, 1)
	a, b := f.Link(LinkConfig{})
	var got int
	b.SetHandler(func(p []byte) { got++ })

	a.SetBlackout(true)
	a.Send([]byte("dark"))
	v.AdvanceBy(time.Millisecond)
	if got != 0 {
		t.Fatalf("packet delivered during blackout")
	}
	if a.Stats().DropBlackout != 1 {
		t.Fatalf("blackout drop not counted: %+v", a.Stats())
	}

	a.SetBlackout(false)
	a.SetLoss(1.0)
	a.Send([]byte("lost"))
	v.AdvanceBy(time.Millisecond)
	if got != 0 {
		t.Fatalf("packet delivered under loss=1.0")
	}

	a.SetLoss(0)
	a.Send([]byte("ok"))
	v.AdvanceBy(time.Millisecond)
	if got != 1 {
		t.Fatalf("packet not delivered after controls cleared")
	}
}

func TestQueueCapOverflow(t *testing.T) {
	f, v := virtualFabric(t, 1)
	a, b := f.Link(LinkConfig{LinkModel: netlink.LinkModel{Latency: time.Second, Queue: 4}})
	b.SetHandler(func(p []byte) {})
	for i := 0; i < 10; i++ {
		a.Send([]byte{byte(i)})
	}
	st := a.Stats()
	if st.DropQueue != 6 {
		t.Fatalf("queue cap 4 with 10 sends: DropQueue = %d, want 6", st.DropQueue)
	}
	v.AdvanceBy(2 * time.Second)
	if d := a.Stats().Delivered; d != 4 {
		t.Fatalf("delivered %d, want the 4 under the cap", d)
	}
}

func TestBandwidthSerializes(t *testing.T) {
	f, v := virtualFabric(t, 1)
	// 1000 B/s, 100-byte packets: each takes 100ms on the wire.
	a, b := f.Link(LinkConfig{LinkModel: netlink.LinkModel{Bandwidth: 1000}})
	var arrived []time.Duration
	start := v.Now()
	b.SetHandler(func(p []byte) { arrived = append(arrived, v.Now().Sub(start)) })
	pkt := make([]byte, 100)
	a.Send(pkt)
	a.Send(pkt)
	a.Send(pkt)
	v.AdvanceBy(time.Second)
	if len(arrived) != 3 {
		t.Fatalf("delivered %d, want 3", len(arrived))
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond}
	for i, d := range arrived {
		if d != want[i] {
			t.Fatalf("packet %d arrived at %v, want %v (serialization)", i, d, want[i])
		}
	}
}

// TestMailboxModeUnderVirtualClock exercises goroutine (Recv) mode with
// the quiescence barrier: a consumer goroutine drains the mailbox while
// the clock's Run driver advances time.
func TestMailboxModeUnderVirtualClock(t *testing.T) {
	v := clock.NewVirtual(time.Time{}, 3)
	v.SetSettle(4)
	f := New(Config{Clock: v, Seed: 3})
	a, b := f.Link(LinkConfig{LinkModel: netlink.LinkModel{Latency: time.Millisecond}})

	const n = 50
	done := make(chan [][]byte)
	go func() {
		var got [][]byte
		for len(got) < n {
			p, err := b.Recv()
			if err != nil {
				break
			}
			got = append(got, p)
		}
		done <- got
	}()

	for i := 0; i < n; i++ {
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	stop := make(chan struct{})
	var got [][]byte
	go func() {
		got = <-done
		close(stop)
	}()
	v.Run(v.Now().Add(time.Second), stop)
	<-stop
	if len(got) != n {
		t.Fatalf("received %d packets, want %d", len(got), n)
	}
}

func TestCloseUnblocksAndReleasesBarrier(t *testing.T) {
	v := clock.NewVirtual(time.Time{}, 3)
	f := New(Config{Clock: v, Seed: 3})
	a, b := f.Link(LinkConfig{})
	a.Send([]byte("queued"))
	v.AdvanceBy(time.Millisecond) // lands in b's mailbox, holds barrier
	a.Close()
	if _, err := b.Recv(); !errors.Is(err, netlink.ErrClosed) {
		t.Fatalf("Recv on closed port = %v, want ErrClosed", err)
	}
	if err := a.Send([]byte("late")); !errors.Is(err, netlink.ErrClosed) {
		t.Fatalf("Send on closed port = %v, want ErrClosed", err)
	}
	// The mailbox packet's barrier hold must have been released by the
	// close drain: an advance must not wedge.
	v.AdvanceBy(time.Millisecond)
}

func TestWallClockFabric(t *testing.T) {
	f := New(Config{Seed: 11})
	a, b := f.Link(LinkConfig{})
	go a.Send([]byte("hi"))
	p, err := b.Recv()
	if err != nil || string(p) != "hi" {
		t.Fatalf("Recv = %q, %v", p, err)
	}
	a.Close()
}

// TestPortSendAllocBudget is the fabric send path's one allocation
// check. Port.Send is not 0-alloc by design: a surviving flight owns
// exactly one copy of the packet (the conn contract forbids retaining
// pkt) and one scheduled-delivery closure — the two sites Port.Send
// comments on. This guard pins that per-send budget, clock event
// included, so an accidental third allocation on the path fails loudly.
func TestPortSendAllocBudget(t *testing.T) {
	f, v := virtualFabric(t, 7)
	a, b := f.Link(LinkConfig{LinkModel: netlink.LinkModel{Latency: time.Millisecond}})
	b.SetHandler(func(p []byte) {})

	pkt := []byte("0123456789abcdef")
	a.Send(pkt)
	v.AdvanceBy(2 * time.Millisecond)
	avg := testing.AllocsPerRun(100, func() {
		if err := a.Send(pkt); err != nil {
			t.Fatal(err)
		}
		v.AdvanceBy(2 * time.Millisecond) // drain the flight so the queue never caps
	})
	t.Logf("Port.Send+drain allocs/op = %v", avg)
	if avg > 5 {
		t.Errorf("Port.Send+drain allocs/op = %v, budget 5 (packet copy, delivery closure, clock event)", avg)
	}
}
