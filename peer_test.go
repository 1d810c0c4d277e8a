package ghm_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"ghm"
)

func peerPair(t *testing.T, f ghm.PipeFaults) (*ghm.Peer, *ghm.Peer) {
	t.Helper()
	left, right := ghm.Pipe(f)
	a, err := ghm.NewPeer(left, ghm.RoleA, ghm.WithRetryInterval(300*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ghm.NewPeer(right, ghm.RoleB, ghm.WithRetryInterval(300*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b
}

func TestPeerBothDirections(t *testing.T) {
	a, b := peerPair(t, ghm.PipeFaults{Loss: 0.25, DupProb: 0.2, Seed: 51})
	ctx := testCtx(t)

	// Full-duplex conversation: requests one way, replies the other,
	// concurrently.
	const n = 15
	errc := make(chan error, 2)
	go func() {
		for i := 0; i < n; i++ {
			if err := a.Send(ctx, []byte(fmt.Sprintf("req-%02d", i))); err != nil {
				errc <- fmt.Errorf("a send: %w", err)
				return
			}
		}
		errc <- nil
	}()
	go func() {
		for i := 0; i < n; i++ {
			got, err := b.Recv(ctx)
			if err != nil {
				errc <- fmt.Errorf("b recv: %w", err)
				return
			}
			if err := b.Send(ctx, append([]byte("ack:"), got...)); err != nil {
				errc <- fmt.Errorf("b send: %w", err)
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < n; i++ {
		got, err := a.Recv(ctx)
		if err != nil {
			t.Fatalf("a recv %d: %v", i, err)
		}
		want := fmt.Sprintf("ack:req-%02d", i)
		if string(got) != want {
			t.Fatalf("a recv %d = %q, want %q", i, got, want)
		}
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}

	sendStats, recvStats := a.Stats()
	if sendStats.Completed != n {
		t.Errorf("a send completed = %d, want %d", sendStats.Completed, n)
	}
	if recvStats.Delivered != n {
		t.Errorf("a recv delivered = %d, want %d", recvStats.Delivered, n)
	}
}

func TestPeerCrashRecovers(t *testing.T) {
	a, b := peerPair(t, ghm.PipeFaults{Seed: 52})
	ctx := testCtx(t)
	if err := a.Send(ctx, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	a.Crash()
	if err := a.Send(ctx, []byte("two")); err != nil {
		t.Fatalf("send after crash: %v", err)
	}
	got, err := b.Recv(ctx)
	if err != nil || !bytes.Equal(got, []byte("two")) {
		t.Fatalf("recv = %q, %v", got, err)
	}
	// And the reverse direction still works after the crash.
	if err := b.Send(ctx, []byte("back")); err != nil {
		t.Fatal(err)
	}
	got, err = a.Recv(ctx)
	if err != nil || !bytes.Equal(got, []byte("back")) {
		t.Fatalf("reverse recv = %q, %v", got, err)
	}
}

func TestPeerRoleValidation(t *testing.T) {
	left, _ := ghm.Pipe(ghm.PipeFaults{Seed: 53})
	defer left.Close()
	if _, err := ghm.NewPeer(left, ghm.Role(7)); err == nil {
		t.Error("invalid role accepted")
	}
	if _, err := ghm.NewPeer(left, ghm.RoleA, ghm.WithEpsilon(9)); err == nil {
		t.Error("invalid epsilon accepted")
	}
}

func TestPeerClose(t *testing.T) {
	a, b := peerPair(t, ghm.PipeFaults{Seed: 54})
	a.Close()
	a.Close() // idempotent
	ctx := testCtx(t)
	if err := a.Send(ctx, []byte("x")); err == nil {
		t.Error("send on closed peer succeeded")
	}
	if _, err := a.Recv(ctx); !errors.Is(err, ghm.ErrClosed) {
		t.Errorf("recv on closed peer = %v", err)
	}
	_ = b
}

func TestPeerStreamsCompose(t *testing.T) {
	// The byte-stream adapters work over a peer direction too: wire a
	// Sender-shaped and Receiver-shaped view via the peer's methods.
	a, b := peerPair(t, ghm.PipeFaults{Loss: 0.2, Seed: 55})
	ctx := testCtx(t)
	payload := bytes.Repeat([]byte("stream-data "), 300)

	errc := make(chan error, 1)
	go func() {
		// Chunk manually through the peer (StreamWriter requires a
		// *Sender; peers expose the same Send contract).
		const chunk = 512
		for off := 0; off < len(payload); off += chunk {
			end := off + chunk
			if end > len(payload) {
				end = len(payload)
			}
			if err := a.Send(ctx, payload[off:end]); err != nil {
				errc <- err
				return
			}
		}
		errc <- a.Send(ctx, []byte{}) // empty frame = our end marker
	}()

	var got []byte
	for {
		m, err := b.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(m) == 0 {
			break
		}
		got = append(got, m...)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("stream corrupted: %d bytes in, %d out", len(payload), len(got))
	}
}

// TestPeerCloseUnblocks: however a peer's link dies — its conn killed
// under it, or the peer closed — a blocked Recv and a later Send surface
// ErrClosed promptly rather than wedge.
func TestPeerCloseUnblocks(t *testing.T) {
	wantClosed := func(t *testing.T, name string, fn func() error) {
		t.Helper()
		errc := make(chan error, 1)
		go func() { errc <- fn() }()
		select {
		case err := <-errc:
			if !errors.Is(err, ghm.ErrClosed) {
				t.Errorf("%s returned %v, want %v", name, err, ghm.ErrClosed)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s did not unblock", name)
		}
	}

	t.Run("conn-kill", func(t *testing.T) {
		left, right := ghm.Pipe(ghm.PipeFaults{Seed: 86})
		pa, err := ghm.NewPeer(left, ghm.RoleA)
		if err != nil {
			t.Fatal(err)
		}
		defer pa.Close()
		pb, err := ghm.NewPeer(right, ghm.RoleB)
		if err != nil {
			t.Fatal(err)
		}
		defer pb.Close()
		go func() {
			time.Sleep(5 * time.Millisecond)
			left.Close()
		}()
		wantClosed(t, "Peer.Recv", func() error {
			_, err := pa.Recv(context.Background())
			return err
		})
		wantClosed(t, "Peer.Send", func() error {
			return pa.Send(context.Background(), []byte("never"))
		})
	})

	t.Run("close", func(t *testing.T) {
		left, right := ghm.Pipe(ghm.PipeFaults{Seed: 87})
		defer right.Close()
		p, err := ghm.NewPeer(left, ghm.RoleA)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			time.Sleep(5 * time.Millisecond)
			p.Close()
		}()
		wantClosed(t, "Peer.Recv", func() error {
			_, err := p.Recv(context.Background())
			return err
		})
	})
}
