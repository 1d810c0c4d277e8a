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

// TestStationRoundAllocBudget pins what one confirmed message costs: the
// one copy Recv hands its caller, which is what lets the message outlive
// the conn's packet buffer. Strings, packets, the decode and the
// transmitter's message copy are all free — the protocol core's budget is
// zero — and so are the hand-offs around it: the Send waits on its slot's
// own result channel, made once. The window is free too: at depth 8 the
// admission frame, the slot's payload record and the whole window's retry
// batch go through buffers the stations keep. So is conformance checking:
// with both stations' taps feeding a verify.Live, as on every mesh hop,
// the budget is the same 1 — the tap lends the checker the payload bytes
// and the checker digests them where they lie. And so is the link, when it
// is the in-process Pipe: its packet copies come from a free list that
// Recv refills.
func TestStationRoundAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	links := map[string]func() (netlink.PacketConn, netlink.PacketConn){
		"":      ringPipe,
		"pipe,": perfectPipe,
	}
	for name, link := range links {
		for _, k := range []int{1, 8} {
			t.Run(fmt.Sprintf("%sk=%d", name, k), func(t *testing.T) { testStationRoundAllocBudget(t, k, nil, link) })
			t.Run(fmt.Sprintf("%sk=%d,checked", name, k), func(t *testing.T) {
				var live verify.Live
				testStationRoundAllocBudget(t, k, live.Observe, link)
				if r := live.Report(); !r.Clean() || r.OKs == 0 {
					t.Errorf("conformance report %v", r)
				}
			})
		}
	}
}

func testStationRoundAllocBudget(t *testing.T, k int, tap netlink.Tap, link func() (netlink.PacketConn, netlink.PacketConn)) {
	t.Helper()
	s, r := stationPair(t, k, tap, link)
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
	if got := testing.AllocsPerRun(200, round); got > 1 {
		t.Errorf("one Send + Recv round: %v allocs, budget 1", got)
	}
}

// TestTrailerRoundAllocBudget: the CTL trailer hooks add nothing to a
// round's budget. The receiver's hook appends into the pooled packet
// buffer the CTL is already in, and the sender hands the trailer on as a
// slice of the inbound packet.
func TestTrailerRoundAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	for _, k := range []int{1, 8} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			a, b := ringPipe()
			var heard int
			s, err := netlink.NewSender(a, netlink.SenderConfig{Window: k, OnTrailer: func(tr []byte) { heard += len(tr) }})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			r, err := netlink.NewReceiver(b, netlink.ReceiverConfig{Window: k, RetryInterval: time.Millisecond,
				CtlTrailer: func(dst []byte) []byte { return append(dst, 0x85, 0x03, 0x01) }})
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
				if _, err := r.Recv(ctx); err != nil {
					t.Fatalf("Recv: %v", err)
				}
			}
			for i := 0; i < 10*k; i++ {
				round()
			}
			if got := testing.AllocsPerRun(200, round); got > 1 {
				t.Errorf("one Send + Recv round with trailers: %v allocs, budget 1", got)
			}
			if heard == 0 {
				t.Error("no trailer reached the sender")
			}
		})
	}
}

// stationPair is a sender and a receiver of depth k over link, both on tap,
// closed with the test.
func stationPair(t *testing.T, k int, tap netlink.Tap, link func() (netlink.PacketConn, netlink.PacketConn)) (*netlink.Sender, *netlink.Receiver) {
	t.Helper()
	params := func(seed int64) core.Params {
		return core.Params{Epsilon: 1.0 / (1 << 40), Source: bitstr.NewSeededSource(seed)}
	}
	a, b := link()
	s, err := netlink.NewSender(a, netlink.SenderConfig{Window: k, Params: params(1), Tap: tap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	r, err := netlink.NewReceiver(b, netlink.ReceiverConfig{Window: k, Params: params(2), RetryInterval: time.Millisecond, Tap: tap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return s, r
}

// perfectPipe is the in-process link with no faults.
func perfectPipe() (netlink.PacketConn, netlink.PacketConn) {
	return netlink.Pipe(netlink.PipeConfig{Seed: 1})
}

// TestPipeRoundAllocatesNothing pins the Pipe's own hand-off at zero in
// steady state: Send copies into a buffer Recv gave back.
func TestPipeRoundAllocatesNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts under the race detector measure the detector")
	}
	a, b := netlink.Pipe(netlink.PipeConfig{Seed: 1})
	defer a.Close()
	pkt := bytes.Repeat([]byte("p"), 96)
	round := func() {
		if err := a.Send(pkt); err != nil {
			t.Fatalf("Send: %v", err)
		}
		if got, err := b.Recv(); err != nil || !bytes.Equal(got, pkt) {
			t.Fatalf("Recv = %q, %v", got, err)
		}
	}
	for i := 0; i < 8; i++ {
		round() // the two buffers the loop keeps in rotation are made here
	}
	if got := testing.AllocsPerRun(500, round); got != 0 {
		t.Errorf("one Pipe Send + Recv: %v allocs, want 0", got)
	}
}

// TestReceiverGiveBackAllocBudget: a caller that gives every message back
// gets its messages for nothing — the delivery copy goes into a message it
// returned.
func TestReceiverGiveBackAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	for _, k := range []int{1, 8} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			s, r := stationPair(t, k, nil, perfectPipe)
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
				r.GiveBack(got)
			}
			for i := 0; i < 10*k; i++ {
				round()
			}
			if got := testing.AllocsPerRun(200, round); got != 0 {
				t.Errorf("one Send + Recv + GiveBack round: %v allocs, want 0", got)
			}
		})
	}
}

// TestReceiverGiveBackNeverAliasesHeldMessage: Recv gives ownership, and
// giving back is the caller's choice per message. A caller that gives back
// two messages in three and holds the third finds every held message
// byte-identical at the end and in memory of its own — the station reuses
// only what came back. Under the race detector a reused held message would
// also be a write by the pump against the reads here.
func TestReceiverGiveBackNeverAliasesHeldMessage(t *testing.T) {
	for _, k := range []int{1, 8} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			s, r := stationPair(t, k, nil, perfectPipe)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			const total = 3000
			payload := func(i int) []byte { return []byte(fmt.Sprintf("message-%06d-%032d", i, i)) }

			sendErr := make(chan error, 1)
			go func() {
				for i := 0; i < total; i++ {
					if err := s.Send(ctx, payload(i)); err != nil {
						sendErr <- fmt.Errorf("Send %d: %w", i, err)
						return
					}
				}
				sendErr <- nil
			}()

			held := map[int][]byte{}
			backing := map[*byte]int{}
			for i := 0; i < total; i++ {
				got, err := r.Recv(ctx)
				if err != nil || !bytes.Equal(got, payload(i)) {
					t.Fatalf("Recv %d = %q, %v", i, got, err)
				}
				if prev, ok := backing[&got[0]]; ok {
					t.Fatalf("message %d arrived in the memory of message %d, which is still held", i, prev)
				}
				if i%3 == 0 {
					held[i] = got
					backing[&got[0]] = i
				} else {
					r.GiveBack(got)
				}
			}
			if err := <-sendErr; err != nil {
				t.Fatal(err)
			}
			for i, m := range held {
				if !bytes.Equal(m, payload(i)) {
					t.Fatalf("held message %d now reads %q", i, m)
				}
			}
		})
	}
}
