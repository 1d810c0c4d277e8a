package netlink

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ghm/internal/clock"
	"ghm/internal/engine"
	"ghm/internal/metrics"
	"ghm/internal/trace"
)

// drainAfterClose drains whatever Recv still yields after Close and
// returns the count; Recv must terminate with ErrClosed, never wedge.
func drainAfterClose(t *testing.T, r *Receiver) int {
	t.Helper()
	n := 0
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err := r.Recv(ctx)
		cancel()
		switch {
		case err == nil:
			n++
		case errors.Is(err, ErrClosed):
			return n
		default:
			t.Fatalf("post-Close Recv = %v, want delivery or ErrClosed", err)
		}
	}
}

// TestReceiverCloseUnblocksRecv is the receiver-side counterpart of the
// sender's stale-waiter regression: a Recv parked on an idle link must
// resolve with ErrClosed when Close runs, not wedge.
func TestReceiverCloseUnblocksRecv(t *testing.T) {
	forDepths(t, testReceiverCloseUnblocksRecv)
}

func testReceiverCloseUnblocksRecv(t *testing.T, k int) {
	_, b := Pipe(PipeConfig{Seed: 1})
	r, err := NewReceiver(b, ReceiverConfig{Window: k, Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := r.Recv(context.Background())
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond) // let Recv park
	r.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv never resolved — blocked caller lost on Close")
	}
}

// TestReceiverCloseAccountsCommittedDeliveries closes a receiver that
// holds committed-but-undrained deliveries and checks the books balance:
// every delivery the protocol committed (taped as receive_msg, counted in
// rx.delivered) is either drained by post-Close Recv calls or counted in
// rx.deliveries_dropped. Nothing committed may vanish silently.
func TestReceiverCloseAccountsCommittedDeliveries(t *testing.T) {
	forDepths(t, testReceiverCloseAccountsCommittedDeliveries)
}

func testReceiverCloseAccountsCommittedDeliveries(t *testing.T, k int) {
	ctx := testCtx(t)
	a, b := Pipe(PipeConfig{Seed: 2})
	reg := metrics.New()
	s, err := NewSender(a, SenderConfig{Window: k})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := NewReceiver(b, ReceiverConfig{
		Window:        k,
		RetryInterval: 50 * time.Microsecond,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Fill half the session buffer without ever calling Recv.
	for i := 0; i < deliveryBuffer/2; i++ {
		if err := s.Send(ctx, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitCounter(t, reg, "rx.delivered", int64(deliveryBuffer/2))

	r.Close()
	drained := drainAfterClose(t, r)

	snap := reg.Snapshot()
	committed := snap.Counters["rx.delivered"]
	dropped := snap.Counters["rx.deliveries_dropped"]
	if int64(drained)+dropped != committed {
		t.Fatalf("books unbalanced: committed=%d drained=%d dropped=%d",
			committed, drained, dropped)
	}
	if drained < deliveryBuffer/2 {
		t.Errorf("buffered deliveries lost on Close: drained %d of %d", drained, deliveryBuffer/2)
	}
}

// TestReceiverCloseVsDeliveryInterleaving drives Close head-to-head
// against in-flight deliveries, many times, under -race — the mirror of
// the sender's Close-vs-OK sweep. For every interleaving the accounting
// invariant must hold: rx.delivered = drained + rx.deliveries_dropped,
// and the receive_msg tap count must equal rx.delivered.
func TestReceiverCloseVsDeliveryInterleaving(t *testing.T) {
	forDepths(t, testReceiverCloseVsDeliveryInterleaving)
}

func testReceiverCloseVsDeliveryInterleaving(t *testing.T, k int) {
	ctx := testCtx(t)
	for i := 0; i < 150; i++ {
		a, b := Pipe(PipeConfig{Seed: int64(9000 + i)})
		reg := metrics.New()
		var mu sync.Mutex
		taped := 0
		s, err := NewSender(a, SenderConfig{Window: k})
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReceiver(b, ReceiverConfig{
			Window:        k,
			RetryInterval: 50 * time.Microsecond,
			Tap: func(k trace.Kind, _ []byte, _ int) {
				if k == trace.KindReceiveMsg {
					mu.Lock()
					taped++
					mu.Unlock()
				}
			},
			Metrics: reg,
		})
		if err != nil {
			s.Close()
			t.Fatal(err)
		}

		// A few transfers race the close; vary the close point across
		// iterations to sweep the interleaving space around the delivery
		// commit and the reply send.
		sendCtx, cancelSend := context.WithCancel(ctx)
		sendDone := make(chan struct{})
		go func() {
			defer close(sendDone)
			for j := 0; j < 4; j++ {
				if s.Send(sendCtx, []byte{byte(j)}) != nil {
					return
				}
			}
		}()
		time.Sleep(time.Duration(i%40) * 10 * time.Microsecond)
		r.Close()
		cancelSend()
		s.Close()
		<-sendDone

		drained := drainAfterClose(t, r)
		snap := reg.Snapshot()
		committed := snap.Counters["rx.delivered"]
		dropped := snap.Counters["rx.deliveries_dropped"]
		if int64(drained)+dropped != committed {
			t.Fatalf("iter %d: books unbalanced: committed=%d drained=%d dropped=%d",
				i, committed, drained, dropped)
		}
		mu.Lock()
		if int64(taped) != committed {
			t.Fatalf("iter %d: tap saw %d receive_msg, counters say %d", i, taped, committed)
		}
		mu.Unlock()
	}
}

// TestReceiverCloseDuringIngress closes a receiver while traffic is still
// arriving on the engine pump: the accept gate runs before r.mu is taken,
// so it must read the atomic parked mirror, not the pending map Close is
// emptying — the race detector pins the regression.
func TestReceiverCloseDuringIngress(t *testing.T) {
	forDepths(t, func(t *testing.T, k int) {
		const total = 200
		s, r := newStations(t, k, PipeConfig{Seed: 19}, nil)
		ctx, cancel := context.WithTimeout(testCtx(t), 200*time.Millisecond)
		defer cancel()
		go func() {
			for {
				if _, err := r.Recv(ctx); err != nil {
					return
				}
			}
		}()
		msgs := make([][]byte, total)
		for i := range msgs {
			msgs[i] = []byte(fmt.Sprintf("close-%03d", i))
		}
		done := make(chan []error, 1)
		go func() { done <- sendAll(ctx, s, msgs) }()
		time.Sleep(2 * time.Millisecond)
		r.Close()
		// Sends racing the teardown may have completed, crashed or timed out;
		// any of those is fine — what the test pins is that the accept gate
		// and Close never touch the pending map concurrently.
		<-done
	})
}

// TestForgottenReceiverGoesQuiet: a receiver whose endpoint id is
// registered again — forgotten by its owner, never closed — sends nothing
// once the new registration has closed its endpoint. Its RETRY stops at
// the next wheel tick instead of talking over its successor on the slot.
func TestForgottenReceiverGoesQuiet(t *testing.T) {
	v := clock.NewVirtual(time.Time{}, 1)
	a, _ := Pipe(PipeConfig{Seed: 1})
	conn := &countSendsConn{PacketConn: a}
	eng := engine.New(conn, engine.Config{Raw: true, Wheel: engine.NewWheelOn(v, 0, 0), Metrics: metrics.New()})
	defer eng.Close()
	ep, err := eng.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReceiver(ep, ReceiverConfig{RetryInterval: time.Millisecond, Metrics: metrics.New()}); err != nil {
		t.Fatal(err)
	}
	if v.AdvanceBy(10 * time.Millisecond); conn.sends.Load() == 0 {
		t.Fatal("the receiver sent no RETRY while its endpoint was registered")
	}
	if _, err := eng.Endpoint(0); err != nil {
		t.Fatal(err)
	}
	if err := ep.Send([]byte("stale")); !errors.Is(err, ErrClosed) {
		t.Errorf("Send on the superseded endpoint = %v, want ErrClosed", err)
	}
	before := conn.sends.Load()
	if v.AdvanceBy(time.Second); conn.sends.Load() != before {
		t.Errorf("the forgotten receiver sent %d packets after its endpoint closed", conn.sends.Load()-before)
	}
}
