package netlink

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"ghm/internal/clock"
)

// queued reports how many packets wait in the direction an end receives
// from, and how many slots its ring has.
func queued(c PacketConn) (n, slots int) {
	d := c.(*pipeEnd).recv
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n, len(d.ring)
}

// TestPipeQueueDropsBeyondCeiling: a direction with no reader queues 512
// packets and drops the rest at the tail; the 512 come out in the order
// they went in.
func TestPipeQueueDropsBeyondCeiling(t *testing.T) {
	a, b := Pipe(PipeConfig{Seed: 1})
	defer a.Close()
	pkt := make([]byte, 8)
	for i := 0; i < 600; i++ {
		binary.LittleEndian.PutUint64(pkt, uint64(i))
		if err := a.Send(pkt); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	if n, slots := queued(b); n != 512 || slots != 512 {
		t.Fatalf("600 sends with no reader left %d packets queued in %d slots, want 512 in 512 (88 dropped)", n, slots)
	}
	for i := 0; i < 512; i++ {
		p, err := b.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if got := binary.LittleEndian.Uint64(p); got != uint64(i) {
			t.Fatalf("Recv %d returned packet %d", i, got)
		}
	}
	if n, _ := queued(b); n != 0 {
		t.Fatalf("%d packets left after the 512 that fit", n)
	}
}

// TestPipeRingFollowsQueue: the ring grows with what is queued, not with
// what goes through. A direction that never holds more than one packet
// keeps the ring it started with, and a burst grows it to the burst's
// power of two and no further.
func TestPipeRingFollowsQueue(t *testing.T) {
	a, b := Pipe(PipeConfig{Seed: 1})
	defer a.Close()
	for i := 0; i < 2000; i++ {
		if err := a.Send([]byte("one at a time")); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if _, slots := queued(b); slots > 8 {
		t.Errorf("2000 packets one at a time grew the ring to %d slots, want at most 8", slots)
	}
	for i := 0; i < 20; i++ {
		a.Send([]byte("burst"))
	}
	if n, slots := queued(b); n != 20 || slots != 32 {
		t.Errorf("a burst of 20: %d queued in %d slots, want 20 in 32", n, slots)
	}
	for i := 0; i < 20; i++ {
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if _, slots := queued(b); slots != 32 {
		t.Errorf("the ring shrank to %d slots once drained: it keeps its high-water mark", slots)
	}
}

// TestPipeRecvAfterClose: once either end is closed, Recv on both reports
// ErrClosed, even with packets queued when the pipe closed.
func TestPipeRecvAfterClose(t *testing.T) {
	a, b := Pipe(PipeConfig{Seed: 1})
	for i := 0; i < 3; i++ {
		a.Send([]byte("queued"))
		b.Send([]byte("queued"))
	}
	a.Close()
	for name, c := range map[string]PacketConn{"closed end": a, "far end": b} {
		if _, err := c.Recv(); !errors.Is(err, ErrClosed) {
			t.Errorf("Recv on the %s after Close = %v, want ErrClosed", name, err)
		}
	}
	if n, _ := queued(b); n != 0 {
		t.Errorf("%d packets still queued on a closed pipe", n)
	}
}

// TestPipeHoldsVirtualBarrier: on a virtual clock a queued packet holds
// the clock's barrier until Recv collects it, a dropped one never holds
// it, and closing the pipe releases what was still queued.
func TestPipeHoldsVirtualBarrier(t *testing.T) {
	v := clock.NewVirtual(time.Unix(0, 0), 1)
	a, b := Pipe(PipeConfig{Clock: v})
	for i := 0; i < 5; i++ {
		a.Send([]byte("a to b"))
	}
	b.Send([]byte("b to a"))
	if got := v.Held(); got != 6 {
		t.Fatalf("6 packets queued hold the barrier %d times", got)
	}
	for i := 0; i < 2; i++ {
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if got := v.Held(); got != 4 {
		t.Fatalf("after 2 of 6 collected the barrier is held %d times, want 4", got)
	}
	for i := 0; i < 600; i++ {
		b.Send([]byte("flood"))
	}
	if got := v.Held(); got != 3+512 {
		t.Fatalf("a 600-packet flood into a direction holding 1 leaves the barrier held %d times, want %d", got, 3+512)
	}
	b.Close()
	if got := v.Held(); got != 0 {
		t.Fatalf("a closed pipe still holds the barrier %d times", got)
	}
}
