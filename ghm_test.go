package ghm_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ghm"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func newPair(t *testing.T, f ghm.PipeFaults, opts ...ghm.Option) (*ghm.Sender, *ghm.Receiver) {
	t.Helper()
	left, right := ghm.Pipe(f)
	s, err := ghm.NewSender(left, opts...)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ghm.NewReceiver(right, append([]ghm.Option{
		ghm.WithRetryInterval(300 * time.Microsecond),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		r.Close()
	})
	return s, r
}

func TestPublicAPIQuickstart(t *testing.T) {
	s, r := newPair(t, ghm.PipeFaults{Seed: 1})
	ctx := testCtx(t)
	if err := s.Send(ctx, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := r.Recv(ctx)
	if err != nil || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("Recv = %q, %v", got, err)
	}
}

func TestExactlyOnceInOrderOverFaultyLink(t *testing.T) {
	s, r := newPair(t, ghm.PipeFaults{Loss: 0.3, DupProb: 0.3, ReorderProb: 0.3, Seed: 2})
	ctx := testCtx(t)
	const n = 25

	var wg sync.WaitGroup
	var sendErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := s.Send(ctx, []byte(fmt.Sprintf("m-%d", i))); err != nil {
				sendErr = fmt.Errorf("send %d: %w", i, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		got, err := r.Recv(ctx)
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if want := fmt.Sprintf("m-%d", i); string(got) != want {
			t.Fatalf("Recv %d = %q, want %q", i, got, want)
		}
	}
	wg.Wait()
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if got := s.Stats().Completed; got != n {
		t.Errorf("Completed = %d, want %d", got, n)
	}
	if got := r.Stats().Delivered; got != n {
		t.Errorf("Delivered = %d, want %d", got, n)
	}
}

func TestCrashAPIs(t *testing.T) {
	s, r := newPair(t, ghm.PipeFaults{Seed: 3})
	ctx := testCtx(t)
	if err := s.Send(ctx, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	r.Crash()
	if err := s.Send(ctx, []byte("two")); err != nil {
		t.Fatalf("Send after crashes: %v", err)
	}
	got, err := r.Recv(ctx)
	if err != nil || !bytes.Equal(got, []byte("two")) {
		t.Fatalf("Recv = %q, %v", got, err)
	}
}

func TestOptionsValidation(t *testing.T) {
	left, right := ghm.Pipe(ghm.PipeFaults{Seed: 4})
	defer left.Close()
	if _, err := ghm.NewSender(left, ghm.WithEpsilon(1.5)); err == nil {
		t.Error("NewSender accepted epsilon 1.5")
	}
	if _, err := ghm.NewReceiver(right, ghm.WithEpsilon(-1)); err == nil {
		t.Error("NewReceiver accepted epsilon -1")
	}
	if _, err := ghm.NewSender(left, ghm.WithWindow(-3)); err == nil {
		t.Error("NewSender accepted window -3")
	}
	if _, err := ghm.NewReceiver(right, ghm.WithWindow(ghm.MaxWindow+1)); err == nil {
		t.Errorf("NewReceiver accepted window %d", ghm.MaxWindow+1)
	}
}

// TestWindowedSenderRebuildWithEpoch rebuilds a windowed Sender against
// a long-lived windowed Receiver through the public API. The rebuilt
// incarnation's sequence numbers restart at zero, which sit below the
// receiver's release cursor; only a higher ghm.WithEpoch lets its stream
// through instead of being silently dropped as a replay — without the
// option threaded, the second generation's Recvs would hang.
func TestWindowedSenderRebuildWithEpoch(t *testing.T) {
	const k, per = 4, 8
	left, right := ghm.Pipe(ghm.PipeFaults{Seed: 21})
	link := ghm.Share(left)
	defer link.Close()
	r, err := ghm.NewReceiver(right,
		ghm.WithWindow(k), ghm.WithRetryInterval(300*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := testCtx(t)

	incarnation := func(epoch uint64, prefix string) {
		t.Helper()
		conn, err := link.Dial()
		if err != nil {
			t.Fatal(err)
		}
		s, err := ghm.NewSender(conn, ghm.WithWindow(k), ghm.WithEpoch(epoch))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		got := make(map[string]int, per)
		for i := 0; i < per; i++ {
			msg := []byte(fmt.Sprintf("%s-%02d", prefix, i))
			if err := s.Send(ctx, msg); err != nil {
				t.Fatalf("%s Send %d: %v", prefix, i, err)
			}
			m, err := r.Recv(ctx)
			if err != nil {
				t.Fatalf("%s Recv %d: %v", prefix, i, err)
			}
			got[string(m)]++
		}
		for i := 0; i < per; i++ {
			msg := fmt.Sprintf("%s-%02d", prefix, i)
			if got[msg] != 1 {
				t.Errorf("%s payload %q delivered %d times, want 1", prefix, msg, got[msg])
			}
		}
	}

	incarnation(1, "gen1")
	incarnation(2, "gen2")
}

func TestWithScheduleAndSeed(t *testing.T) {
	sizeCalls := 0
	opts := []ghm.Option{
		ghm.WithSeed(7),
		ghm.WithEpsilon(1.0 / (1 << 10)),
		ghm.WithSchedule(func(int) int { sizeCalls++; return 20 }, nil),
	}
	s, r := newPair(t, ghm.PipeFaults{Seed: 5}, opts...)
	ctx := testCtx(t)
	if err := s.Send(ctx, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	if sizeCalls == 0 {
		t.Error("custom schedule never consulted")
	}
}

// TestErrClosedExposed: a closed station pair reports ghm.ErrClosed from
// Send and Recv, at depth 1 and on a windowed station.
func TestErrClosedExposed(t *testing.T) {
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("depth=%d", k), func(t *testing.T) {
			s, r := newPair(t, ghm.PipeFaults{Seed: 6}, ghm.WithWindow(k))
			s.Close()
			r.Close()
			if err := s.Send(context.Background(), []byte("late")); !errors.Is(err, ghm.ErrClosed) {
				t.Errorf("Send after Close = %v, want ErrClosed", err)
			}
			if _, err := r.Recv(context.Background()); !errors.Is(err, ghm.ErrClosed) {
				t.Errorf("Recv after Close = %v, want ErrClosed", err)
			}
		})
	}
}

func TestConcurrentSendersSerialize(t *testing.T) {
	// Multiple goroutines sharing one Sender must serialize cleanly.
	s, r := newPair(t, ghm.PipeFaults{Seed: 7})
	ctx := testCtx(t)
	const n = 12
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- s.Send(ctx, []byte(fmt.Sprintf("c-%d", i)))
		}()
	}
	got := make(map[string]bool)
	for i := 0; i < n; i++ {
		m, err := r.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got[string(m)] {
			t.Fatalf("duplicate delivery %q", m)
		}
		got[string(m)] = true
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != n {
		t.Fatalf("delivered %d distinct messages, want %d", len(got), n)
	}
}
