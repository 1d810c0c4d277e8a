package ghm_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ghm"
)

func muxPair(t *testing.T, lanes int, f ghm.PipeFaults) (*ghm.MuxSender, *ghm.MuxReceiver) {
	t.Helper()
	left, right := ghm.Pipe(f)
	s, err := ghm.NewMuxSender(left, lanes, ghm.WithRetryInterval(300*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	r, err := ghm.NewMuxReceiver(right, lanes, ghm.WithRetryInterval(300*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		r.Close()
	})
	return s, r
}

func TestMuxPublicAPI(t *testing.T) {
	const lanes, n = 4, 32
	s, r := muxPair(t, lanes, ghm.PipeFaults{Loss: 0.2, DupProb: 0.2, Seed: 41})
	ctx := testCtx(t)

	recvDone := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			m, err := r.Recv(ctx)
			if err != nil {
				recvDone <- err
				return
			}
			if len(m) == 0 {
				recvDone <- fmt.Errorf("empty message at %d", i)
				return
			}
		}
		recvDone <- nil
	}()

	var wg sync.WaitGroup
	sem := make(chan struct{}, lanes)
	for i := 0; i < n; i++ {
		i := i
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if err := s.Send(ctx, []byte(fmt.Sprintf("mux-%02d", i))); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	if err := <-recvDone; err != nil {
		t.Fatal(err)
	}
}

func TestMuxSingleProducerKeepsOrder(t *testing.T) {
	// One producer goroutine: global order must equal call order even
	// though lanes complete independently.
	s, r := muxPair(t, 3, ghm.PipeFaults{ReorderProb: 0.4, Seed: 42})
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

func TestMuxValidation(t *testing.T) {
	left, right := ghm.Pipe(ghm.PipeFaults{Seed: 43})
	defer left.Close()
	if _, err := ghm.NewMuxSender(left, 0); err == nil {
		t.Error("0 lanes accepted")
	}
	if _, err := ghm.NewMuxReceiver(right, ghm.MaxLanes+1); err == nil {
		t.Error("too many lanes accepted")
	}
	if _, err := ghm.NewMuxSender(left, 2, ghm.WithEpsilon(3)); err == nil {
		t.Error("bad epsilon accepted")
	}
}

// TestMuxClosedReportsErrClosed: a closed lane pair reports ghm.ErrClosed
// from both calls, like every other ghm type.
func TestMuxClosedReportsErrClosed(t *testing.T) {
	s, r := muxPair(t, 4, ghm.PipeFaults{Seed: 44})
	s.Close()
	r.Close()
	ctx := testCtx(t)
	if err := s.Send(ctx, []byte("late")); !errors.Is(err, ghm.ErrClosed) {
		t.Errorf("Send after Close = %v, want ErrClosed", err)
	}
	if _, err := r.Recv(ctx); !errors.Is(err, ghm.ErrClosed) {
		t.Errorf("Recv after Close = %v, want ErrClosed", err)
	}
}

// TestHighLaneWindowedMuxSoak runs 64 lanes of window 4 — one station at
// the deepest window, core.MaxWindow = 64 slots — over a lossy,
// duplicating, reordering link. Concurrent Sends take admission seqs in
// whatever order the scheduler runs them, so the assertion is
// exactly-once delivery of the distinct payload set.
func TestHighLaneWindowedMuxSoak(t *testing.T) {
	const lanes, window, n = 64, 4, 512
	left, right := ghm.Pipe(ghm.PipeFaults{Loss: 0.1, DupProb: 0.1, ReorderProb: 0.2, Seed: 101})
	opts := []ghm.Option{ghm.WithWindow(window), ghm.WithRetryInterval(300 * time.Microsecond)}
	s, err := ghm.NewMuxSender(left, lanes, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := ghm.NewMuxReceiver(right, lanes, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
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
