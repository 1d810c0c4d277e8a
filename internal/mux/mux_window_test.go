package mux

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ghm/internal/core"
	"ghm/internal/netlink"
)

// badParams fails core's validation, forcing station construction to
// error after the engine and earlier lanes already exist.
var badParams = core.Params{Epsilon: -1}

func windowedMuxPair(t *testing.T, lanes, window int, cfg netlink.PipeConfig) (*Sender, *Receiver) {
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

// TestConstructionFailureTearsDownCleanly drives the fail() path: lane
// construction errors after the engine is live, and the partial build
// must close lanes before the engine without stranding the pump (the
// suite's leak guard) or wedging the conn teardown.
func TestConstructionFailureTearsDownCleanly(t *testing.T) {
	a, b := netlink.Pipe(netlink.PipeConfig{Seed: 41})
	defer b.Close()
	if _, err := NewSender(a, 4, badParams); err == nil {
		t.Fatal("NewSender accepted invalid params")
	}
	// fail() closed the engine and with it the conn it owns.
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

// TestFailedSendReturnsLaneToken pins the token-leak fix: a Send that
// fails (context expires, lane crashes itself) must return its lane
// token, or repeated failures would permanently shrink the window. The
// old conditional return (select/default) could silently discard a
// token; after `capacity` failed sends a leak would leave zero tokens
// and the probe send would hang on acquisition instead of timing out
// inside the lane.
func TestFailedSendReturnsLaneToken(t *testing.T) {
	const lanes, window = 2, 2
	a, b := netlink.Pipe(netlink.PipeConfig{Seed: 45})
	defer b.Close() // no receiver: every Send times out inside its lane
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
		// A token leak shows up as acquisition blocking until ctx expiry
		// *before* the lane even starts; distinguishing is unnecessary —
		// the count alone proves tokens came back: after `capacity`
		// leaks, acquisition would consume the whole 2ms and the lane
		// would never run, but more importantly the full window is
		// re-acquirable below.
	}

	// All capacity tokens must be immediately available again.
	for i := 0; i < capacity; i++ {
		select {
		case <-s.free:
		default:
			t.Fatalf("only %d of %d lane tokens returned after failed sends", i, capacity)
		}
	}
	for i := 0; i < capacity; i++ {
		s.free <- i % lanes
	}
}

// TestWindowedLanesExactlyOnceInOrder runs lanes×window in-flight
// transfers over a faulty link and checks the merged stream is the send
// order, gap-free and duplicate-free — the mux resequencer composing
// with each lane's windowed in-order release.
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

// TestWindowedLanesCloseWithPendingSends exercises the lanes-then-engine
// teardown order under load: Close while Sends are parked in every slot
// must settle each one (ErrClosed or ErrCrashed) without deadlock or a
// stranded goroutine.
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
	// Wait until every token is held, i.e. all Sends are in their lanes.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.free) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("sends never claimed all lane tokens")
		}
		time.Sleep(100 * time.Microsecond)
	}
	s.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			t.Error("parked Send on lossy link reported success after Close")
		} else if !errors.Is(err, ErrClosed) &&
			!errors.Is(err, netlink.ErrClosed) && !errors.Is(err, netlink.ErrCrashed) {
			t.Errorf("parked Send settled with unexpected error: %v", err)
		}
	}
}

// TestHighLaneWindowedMuxSoak is the windowed counterpart of
// TestHighLaneMuxSoak: 64 lanes, each a window-4 station pair (256
// transfers in flight at peak), over a lossy, duplicating, reordering
// link. Every distinct message must arrive exactly once; within a lane
// the window releases in admission order, and across lanes the
// resequencer restores global submission order per sequence number —
// concurrent Sends claim seqs in scheduler order, so the assertion is
// exactly-once delivery of the distinct payload set.
func TestHighLaneWindowedMuxSoak(t *testing.T) {
	const lanes, window, n = 64, 4, 512
	s, r := windowedMuxPair(t, lanes, window, netlink.PipeConfig{
		LinkModel: netlink.LinkModel{Loss: 0.1, DupProb: 0.1, ReorderProb: 0.2, ReleaseEvery: 100 * time.Microsecond},
		Seed:      101,
	})
	ctx := testCtx(t)

	recvDone := make(chan error, 1)
	go func() {
		seen := make(map[string]bool, n)
		for i := 0; i < n; i++ {
			m, err := r.Recv(ctx)
			if err != nil {
				recvDone <- fmt.Errorf("recv %d: %w", i, err)
				return
			}
			if seen[string(m)] {
				recvDone <- fmt.Errorf("duplicate delivery %q", m)
				return
			}
			seen[string(m)] = true
		}
		recvDone <- nil
	}()

	sem := make(chan struct{}, lanes*window)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := s.Send(ctx, []byte(fmt.Sprintf("wsoak-%03d", i))); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if err := <-recvDone; err != nil {
		t.Fatal(err)
	}
}
