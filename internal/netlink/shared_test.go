package netlink

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

func recvWithTimeout(t *testing.T, c PacketConn) ([]byte, error) {
	t.Helper()
	type res struct {
		p   []byte
		err error
	}
	ch := make(chan res, 1)
	go func() {
		p, err := c.Recv()
		ch <- res{p, err}
	}()
	select {
	case r := <-ch:
		return r.p, r.err
	case <-time.After(2 * time.Second):
		t.Fatal("Recv timed out")
		return nil, nil
	}
}

// expectSilence asserts no packet reaches c within d. The probe
// goroutine stays parked on Recv until the test closes the conn (every
// caller defers a close that unblocks it).
func expectSilence(t *testing.T, c PacketConn, d time.Duration) {
	t.Helper()
	ch := make(chan []byte, 1)
	go func() {
		if p, err := c.Recv(); err == nil {
			ch <- p
		}
	}()
	select {
	case p := <-ch:
		t.Fatalf("expected silence, received %q", p)
	case <-time.After(d):
	}
}

// pumpConn drains c into a channel so one test can interleave "expect a
// packet" and "expect silence" checks without goroutines stealing reads.
func pumpConn(c PacketConn) <-chan []byte {
	ch := make(chan []byte, 16)
	go func() {
		defer close(ch)
		for {
			p, err := c.Recv()
			if err != nil {
				return
			}
			ch <- append([]byte(nil), p...) // p is lent until the next Recv
		}
	}()
	return ch
}

func TestSharedConnRoutesToCurrentView(t *testing.T) {
	a, b := Pipe(PipeConfig{})
	defer b.Close()
	s := NewSharedConn(a)
	defer s.Close()

	v1, err := s.Attach()
	if err != nil {
		t.Fatal(err)
	}
	if err := v1.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if p, _ := recvWithTimeout(t, b); !bytes.Equal(p, []byte("ping")) {
		t.Fatalf("peer got %q", p)
	}
	if err := b.Send([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if p, err := recvWithTimeout(t, v1); err != nil || !bytes.Equal(p, []byte("pong")) {
		t.Fatalf("view got %q, %v", p, err)
	}

	// A second Attach supersedes the first: v2 receives, v1 does not.
	v2, err := s.Attach()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Send([]byte("to-v2")); err != nil {
		t.Fatal(err)
	}
	if p, err := recvWithTimeout(t, v2); err != nil || !bytes.Equal(p, []byte("to-v2")) {
		t.Fatalf("second view got %q, %v", p, err)
	}
	expectSilence(t, v1, 30*time.Millisecond)
}

func TestSharedViewCloseDetachesWithoutClosingLink(t *testing.T) {
	a, b := Pipe(PipeConfig{})
	defer b.Close()
	s := NewSharedConn(a)
	defer s.Close()

	v1, _ := s.Attach()
	if err := v1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := recvWithTimeout(t, v1); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed view Recv: %v", err)
	}
	if err := v1.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed view Send: %v", err)
	}

	// The link survives: a fresh view works.
	v2, err := s.Attach()
	if err != nil {
		t.Fatal(err)
	}
	if err := v2.Send([]byte("still-alive")); err != nil {
		t.Fatal(err)
	}
	if p, _ := recvWithTimeout(t, b); !bytes.Equal(p, []byte("still-alive")) {
		t.Fatalf("peer got %q", p)
	}
}

func TestSharedConnWedge(t *testing.T) {
	a, b := Pipe(PipeConfig{})
	defer b.Close()
	s := NewSharedConn(a)
	defer s.Close()

	peer := pumpConn(b)
	v1, _ := s.Attach()
	s.WedgeCurrent()

	// Wedged sends vanish without error; nothing reaches the peer.
	if err := v1.Send([]byte("lost")); err != nil {
		t.Fatalf("wedged Send errored: %v", err)
	}
	select {
	case p := <-peer:
		t.Fatalf("peer after wedged send: received %q", p)
	case <-time.After(30 * time.Millisecond):
	}

	// Wedged views receive nothing.
	if err := b.Send([]byte("unseen")); err != nil {
		t.Fatal(err)
	}
	expectSilence(t, v1, 30*time.Millisecond)

	// A fresh Attach is unwedged in both directions.
	v2, _ := s.Attach()
	if err := v2.Send([]byte("recovered")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-peer:
		if !bytes.Equal(p, []byte("recovered")) {
			t.Fatalf("peer got %q", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recovered send never reached peer")
	}
	if err := b.Send([]byte("inbound")); err != nil {
		t.Fatal(err)
	}
	if p, err := recvWithTimeout(t, v2); err != nil || !bytes.Equal(p, []byte("inbound")) {
		t.Fatalf("fresh view got %q, %v", p, err)
	}
}

func TestSharedConnCloseUnblocksViews(t *testing.T) {
	a, b := Pipe(PipeConfig{})
	defer b.Close()
	s := NewSharedConn(a)

	v, _ := s.Attach()
	errc := make(chan error, 1)
	go func() {
		_, err := v.Recv()
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv after shared close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("view Recv not unblocked by SharedConn.Close")
	}
	if _, err := s.Attach(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Attach after Close: %v", err)
	}
	// Close is idempotent.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedConnStationsAcrossAttach(t *testing.T) {
	// End-to-end: run a Sender incarnation on a view, close it, attach a
	// new view and finish more transfers on the same link — the pattern a
	// supervisor drives.
	a, b := Pipe(PipeConfig{})
	s := NewSharedConn(a)
	defer s.Close()

	r, err := NewReceiver(b, ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	go func() {
		for {
			if _, err := r.Recv(context.Background()); err != nil {
				return
			}
		}
	}()

	for gen := 0; gen < 3; gen++ {
		v, err := s.Attach()
		if err != nil {
			t.Fatal(err)
		}
		tx, err := NewSender(v, SenderConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := tx.Send(ctx, []byte("gen-msg")); err != nil {
			cancel()
			t.Fatalf("gen %d: %v", gen, err)
		}
		cancel()
		tx.Close() // closes the view, not the link
	}
}
