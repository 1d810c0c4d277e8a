package netlink_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"ghm/internal/bitstr"
	"ghm/internal/core"
	"ghm/internal/netlink"
	"ghm/internal/testutil"
	"ghm/internal/verify"
)

// ringConn is one end of a link that allocates nothing per packet: Send
// copies into the next of a fixed ring of slots and hands that slot to the
// far end's Recv. A slot is reused ringSlots sends later; a closed loop
// with one message in flight has a handful of packets outstanding at
// most, so by then the far end is long done with it. The link honours the
// no-retain contract and adds nothing to the allocations of what it
// carries.
type ringConn struct {
	mu    sync.Mutex // Send is called from Send callers, the pump and the wheel
	slots [ringSlots][]byte
	next  int
	out   chan<- []byte
	in    <-chan []byte
	stop  chan struct{}
	once  *sync.Once
}

const ringSlots = 64

func ringPipe() (netlink.PacketConn, netlink.PacketConn) {
	ab, ba := make(chan []byte, ringSlots/2), make(chan []byte, ringSlots/2)
	stop, once := make(chan struct{}), new(sync.Once)
	return &ringConn{out: ab, in: ba, stop: stop, once: once}, &ringConn{out: ba, in: ab, stop: stop, once: once}
}

func (c *ringConn) Send(p []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot := append(c.slots[c.next][:0], p...)
	c.slots[c.next] = slot
	c.next = (c.next + 1) % ringSlots
	select {
	case c.out <- slot:
	default: // full: drop, as a congested link would
	}
	return nil
}

func (c *ringConn) Recv() ([]byte, error) {
	select {
	case p := <-c.in:
		return p, nil
	case <-c.stop:
		return nil, netlink.ErrClosed
	}
}

func (c *ringConn) Close() error {
	c.once.Do(func() { close(c.stop) })
	return nil
}

// TestStationRoundAllocBudget pins what one confirmed message costs the
// stations themselves, over a link that allocates nothing: the sender's
// waiter channel (2) and the one copy Recv hands out (1). Strings,
// packets, the decode and the transmitter's message copy are all free —
// the protocol core's budget is zero — and so is the window: at depth 8
// the admission frame, the slot's payload record and the whole window's
// retry batch go through buffers the stations keep. Conformance checking
// is free too: with both stations' taps feeding a verify.Live, as on every
// mesh hop, the budget is the same 3 — the tap lends the checker the
// payload bytes and the checker digests them where they lie.
func TestStationRoundAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	for _, k := range []int{1, 8} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { testStationRoundAllocBudget(t, k, nil) })
		t.Run(fmt.Sprintf("k=%d,checked", k), func(t *testing.T) {
			var live verify.Live
			testStationRoundAllocBudget(t, k, live.Observe)
			if r := live.Report(); !r.Clean() || r.OKs == 0 {
				t.Errorf("conformance report %v", r)
			}
		})
	}
}

func testStationRoundAllocBudget(t *testing.T, k int, tap netlink.Tap) {
	params := func(seed int64) core.Params {
		return core.Params{Epsilon: 1.0 / (1 << 40), Source: bitstr.NewSeededSource(seed)}
	}
	a, b := ringPipe()
	s, err := netlink.NewSender(a, netlink.SenderConfig{Window: k, Params: params(1), Tap: tap})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := netlink.NewReceiver(b, netlink.ReceiverConfig{Window: k, Params: params(2), RetryInterval: time.Millisecond, Tap: tap})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	msg := bytes.Repeat([]byte("m"), 64)
	round := func() {
		if err := s.Send(ctx, msg); err != nil {
			t.Fatalf("Send: %v", err)
		}
		got, err := r.Recv(ctx)
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("Recv = %q, %v", got, err)
		}
	}
	for i := 0; i < 10*k; i++ {
		round() // every slot's first challenge learned, the kept buffers grown
	}
	if got := testing.AllocsPerRun(200, round); got > 3 {
		t.Errorf("one Send + Recv round: %v allocs, budget 3", got)
	}
}
