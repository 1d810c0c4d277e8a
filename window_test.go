package ghm_test

import (
	"fmt"
	"sync"
	"testing"

	"ghm"
)

// TestWindowSingleProducerKeepsOrder: one producer over a depth-3
// station on a reordering link. Its Sends are admitted in call order, so
// the receiver must release them in that order.
func TestWindowSingleProducerKeepsOrder(t *testing.T) {
	s, r := newPair(t, ghm.PipeFaults{ReorderProb: 0.4, Seed: 42}, ghm.WithWindow(3))
	ctx := testCtx(t)
	const n = 20
	recvDone := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			m, err := r.Recv(ctx)
			if err != nil {
				recvDone <- err
				return
			}
			if want := fmt.Sprintf("o-%02d", i); string(m) != want {
				recvDone <- fmt.Errorf("position %d: got %q want %q", i, m, want)
				return
			}
		}
		recvDone <- nil
	}()
	for i := 0; i < n; i++ {
		if err := s.Send(ctx, []byte(fmt.Sprintf("o-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-recvDone; err != nil {
		t.Fatal(err)
	}
}

// TestMuxPublicAPI: k lanes through the public API are one station of
// depth k. Four callers share a depth-4 pair over a lossy, duplicating
// link, and every payload arrives exactly once.
func TestMuxPublicAPI(t *testing.T) {
	const lanes, n = 4, 32
	s, r := newPair(t, ghm.PipeFaults{Loss: 0.2, DupProb: 0.2, Seed: 41}, ghm.WithWindow(lanes))
	ctx := testCtx(t)

	recvDone := make(chan error, 1)
	go func() {
		seen := make(map[string]bool, n)
		for i := 0; i < n; i++ {
			m, err := r.Recv(ctx)
			if err != nil {
				recvDone <- err
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

	var wg sync.WaitGroup
	sem := make(chan struct{}, lanes)
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := s.Send(ctx, []byte(fmt.Sprintf("mux-%02d", i))); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if err := <-recvDone; err != nil {
		t.Fatal(err)
	}
}

// TestMuxValidation: a lane count is a window depth, so both ends reject
// a depth outside [1, MaxWindow] (0 asks for the default), build at
// MaxWindow, and still check the other options next to a window.
func TestMuxValidation(t *testing.T) {
	for _, k := range []int{-1, ghm.MaxWindow + 1} {
		left, right := ghm.Pipe(ghm.PipeFaults{Seed: 43})
		if _, err := ghm.NewSender(left, ghm.WithWindow(k)); err == nil {
			t.Errorf("NewSender accepted window %d", k)
		}
		if _, err := ghm.NewReceiver(right, ghm.WithWindow(k)); err == nil {
			t.Errorf("NewReceiver accepted window %d", k)
		}
		left.Close()
		right.Close()
	}
	left, right := ghm.Pipe(ghm.PipeFaults{Seed: 43})
	defer left.Close()
	defer right.Close()
	if _, err := ghm.NewSender(left, ghm.WithWindow(2), ghm.WithEpsilon(3)); err == nil {
		t.Error("bad epsilon accepted next to a window")
	}
	newPair(t, ghm.PipeFaults{Seed: 43}, ghm.WithWindow(ghm.MaxWindow))
}

// TestHighLaneWindowedMuxSoak runs one station at the deepest window,
// MaxWindow = 64 slots, over a lossy, duplicating, reordering link, with
// four callers per slot contending for admission. Concurrent Sends take admission seqs in
// whatever order the scheduler runs them, so the assertion is
// exactly-once delivery of the distinct payload set.
func TestHighLaneWindowedMuxSoak(t *testing.T) {
	const n = 512
	s, r := newPair(t, ghm.PipeFaults{Loss: 0.1, DupProb: 0.1, ReorderProb: 0.2, Seed: 101},
		ghm.WithWindow(ghm.MaxWindow))
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

	sem := make(chan struct{}, 4*ghm.MaxWindow)
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
