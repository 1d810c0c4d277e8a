package mux

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ghm/internal/core"
	"ghm/internal/metrics"
	"ghm/internal/netlink"
)

// badParams fails core's validation, forcing station construction to
// error.
var badParams = core.Params{Epsilon: -1}

func windowedMuxPair(t *testing.T, lanes, window int, cfg netlink.PipeConfig) (*netlink.Sender, *netlink.Receiver) {
	t.Helper()
	a, b := netlink.Pipe(cfg)
	s, err := NewSenderWindow(a, lanes, window, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiverWindow(b, lanes, window, netlink.ReceiverConfig{RetryInterval: testRetry})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		r.Close()
	})
	return s, r
}

func TestWindowValidation(t *testing.T) {
	a, b := netlink.Pipe(netlink.PipeConfig{Seed: 40})
	defer a.Close()
	defer b.Close()
	for _, w := range []int{0, -1, core.MaxWindow + 1} {
		if _, err := NewSenderWindow(a, 2, w, core.Params{}); err == nil {
			t.Errorf("NewSenderWindow accepted window %d", w)
		}
		if _, err := NewReceiverWindow(b, 2, w, netlink.ReceiverConfig{}); err == nil {
			t.Errorf("NewReceiverWindow accepted window %d", w)
		}
	}
}

// TestConstructionFailureTearsDownCleanly drives the failure path: the
// station refuses to build, and the conn it would have owned is closed
// without stranding a goroutine (the suite's leak guard).
func TestConstructionFailureTearsDownCleanly(t *testing.T) {
	a, b := netlink.Pipe(netlink.PipeConfig{Seed: 41})
	defer b.Close()
	if _, err := NewSender(a, 4, badParams); err == nil {
		t.Fatal("NewSender accepted invalid params")
	}
	if err := a.Send([]byte("x")); err == nil {
		t.Error("conn still open after construction failure")
	}

	c, d := netlink.Pipe(netlink.PipeConfig{Seed: 42})
	defer d.Close()
	if _, err := NewReceiver(c, 4, netlink.ReceiverConfig{Params: badParams}); err == nil {
		t.Fatal("NewReceiver accepted invalid params")
	}
	if err := c.Send([]byte("x")); err == nil {
		t.Error("conn still open after receiver construction failure")
	}

	e, f := netlink.Pipe(netlink.PipeConfig{Seed: 43})
	defer f.Close()
	if _, err := NewSenderWindow(e, 2, 4, badParams); err == nil {
		t.Fatal("NewSenderWindow accepted invalid params")
	}
	g, h := netlink.Pipe(netlink.PipeConfig{Seed: 44})
	defer h.Close()
	if _, err := NewReceiverWindow(g, 2, 4, netlink.ReceiverConfig{Params: badParams}); err == nil {
		t.Fatal("NewReceiverWindow accepted invalid params")
	}
}

// TestDepthMapsLanesTimesWindow pins the one thing the package decides:
// lanes × window slots, capped at the deepest station.
func TestDepthMapsLanesTimesWindow(t *testing.T) {
	for _, c := range []struct{ lanes, window, want int }{
		{1, 1, 1}, {8, 1, 8}, {2, 4, 8}, {MaxLanes, 1, core.MaxWindow}, {MaxLanes, 4, core.MaxWindow},
	} {
		if got, err := depth(c.lanes, c.window); err != nil || got != c.want {
			t.Errorf("depth(%d, %d) = %d, %v; want %d", c.lanes, c.window, got, err, c.want)
		}
	}
}

// waitAdmitted waits until n slots of the package's one live sender are
// in flight at once, read off the station's tx.window_inflight gauge (the
// mux stations report to the default registry).
func waitAdmitted(t *testing.T, n int) {
	t.Helper()
	inflight := metrics.Default().Gauge("tx.window_inflight")
	deadline := time.Now().Add(5 * time.Second)
	for int(inflight.Value()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %v of %d Sends in flight", inflight.Value(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestFailedSendReturnsLaneToken: a Send that fails (its context expires
// and the station crashes itself) must give its slot — a lane's token —
// back, or repeated failures would shrink the in-flight budget for good.
// After more failures than there are slots, every slot must still admit
// a Send at once.
func TestFailedSendReturnsLaneToken(t *testing.T) {
	const lanes, window = 2, 2
	a, b := netlink.Pipe(netlink.PipeConfig{Seed: 45})
	defer b.Close() // no receiver: every Send times out inside its slot
	s, err := NewSenderWindow(a, lanes, window, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	capacity := lanes * window
	for i := 0; i < 2*capacity+1; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		err := s.Send(ctx, []byte(fmt.Sprintf("doomed-%d", i)))
		cancel()
		if err == nil {
			t.Fatalf("send %d with no receiver succeeded", i)
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < capacity; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Send(context.Background(), []byte(fmt.Sprintf("probe-%d", i)))
		}(i)
	}
	waitAdmitted(t, capacity)
	s.Close()
	wg.Wait()
}

// TestWindowedLanesExactlyOnceInOrder runs lanes×window in-flight
// transfers over a faulty link and checks every message arrives exactly
// once: the station's in-order release at depth 8.
func TestWindowedLanesExactlyOnceInOrder(t *testing.T) {
	const lanes, window, n = 2, 4, 60
	s, r := windowedMuxPair(t, lanes, window, netlink.PipeConfig{
		LinkModel: netlink.LinkModel{Loss: 0.15, DupProb: 0.15, ReorderProb: 0.25, ReleaseEvery: 50 * time.Microsecond},
		Seed:      46,
	})
	ctx := testCtx(t)

	recvDone := make(chan error, 1)
	got := make([]string, 0, n)
	go func() {
		for i := 0; i < n; i++ {
			m, err := r.Recv(ctx)
			if err != nil {
				recvDone <- fmt.Errorf("recv %d: %w", i, err)
				return
			}
			got = append(got, string(m))
		}
		recvDone <- nil
	}()

	var wg sync.WaitGroup
	sem := make(chan struct{}, lanes*window)
	for i := 0; i < n; i++ {
		i := i
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if err := s.Send(ctx, []byte(fmt.Sprintf("wm-%02d", i))); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	if err := <-recvDone; err != nil {
		t.Fatal(err)
	}

	seen := make(map[string]bool, n)
	for _, m := range got {
		if seen[m] {
			t.Fatalf("duplicate delivery %q", m)
		}
		seen[m] = true
	}
	if len(seen) != n {
		t.Fatalf("delivered %d distinct messages, want %d", len(seen), n)
	}
}

// TestWindowedLanesCloseWithPendingSends closes a sender while Sends are
// parked in every slot: each must settle (ErrClosed or ErrCrashed)
// without deadlock or a stranded goroutine.
func TestWindowedLanesCloseWithPendingSends(t *testing.T) {
	const lanes, window = 2, 3
	a, b := netlink.Pipe(netlink.PipeConfig{LinkModel: netlink.LinkModel{Loss: 1}, Seed: 47}) // nothing ever arrives
	defer b.Close()
	s, err := NewSenderWindow(a, lanes, window, core.Params{})
	if err != nil {
		t.Fatal(err)
	}

	ctx := testCtx(t)
	var wg sync.WaitGroup
	errs := make(chan error, lanes*window)
	for i := 0; i < lanes*window; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- s.Send(ctx, []byte("parked"))
		}()
	}
	waitAdmitted(t, lanes*window)
	s.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			t.Error("parked Send on lossy link reported success after Close")
		} else if !errors.Is(err, netlink.ErrClosed) && !errors.Is(err, netlink.ErrCrashed) {
			t.Errorf("parked Send settled with unexpected error: %v", err)
		}
	}
}
