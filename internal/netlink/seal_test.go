package netlink

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"
)

func sealedPair(t *testing.T, cfg PipeConfig, key []byte) (PacketConn, PacketConn) {
	t.Helper()
	a, b := Pipe(cfg)
	sa, err := Seal(a, key)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Seal(b, key)
	if err != nil {
		t.Fatal(err)
	}
	return sa, sb
}

func TestSealRoundTrip(t *testing.T) {
	key := bytes.Repeat([]byte{7}, 32)
	a, b := sealedPair(t, PipeConfig{Seed: 1}, key)
	defer a.Close()
	for _, msg := range []string{"", "x", "a longer message with content"} {
		if err := a.Send([]byte(msg)); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv()
		if err != nil || string(got) != msg {
			t.Fatalf("Recv = %q, %v; want %q", got, err, msg)
		}
	}
}

func TestSealRejectsBadKeySizes(t *testing.T) {
	a, _ := Pipe(PipeConfig{Seed: 2})
	defer a.Close()
	for _, n := range []int{0, 8, 15, 31, 64} {
		if _, err := Seal(a, make([]byte, n)); err == nil {
			t.Errorf("Seal accepted %d-byte key", n)
		}
	}
}

func TestSealCiphertextsOfSameMessageDiffer(t *testing.T) {
	// The paper's requirement: two encryptions of the same packet must be
	// unidentifiable. Capture raw ciphertexts via an unsealed peer.
	key := bytes.Repeat([]byte{9}, 16)
	a, b := Pipe(PipeConfig{Seed: 3})
	defer a.Close()
	sa, err := Seal(a, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.Send([]byte("same plaintext")); err != nil {
		t.Fatal(err)
	}
	if err := sa.Send([]byte("same plaintext")); err != nil {
		t.Fatal(err)
	}
	c1, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	c1 = append([]byte(nil), c1...) // lent until the next Recv
	c2, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(c1, c2) {
		t.Fatal("two encryptions of the same packet are identical")
	}
	if len(c1) != len(c2) {
		t.Fatal("same-length plaintexts produced different-length ciphertexts")
	}
}

func TestSealDropsTamperedPackets(t *testing.T) {
	key := bytes.Repeat([]byte{4}, 16)
	a, b := Pipe(PipeConfig{Seed: 4})
	defer a.Close()
	sb, err := Seal(b, key)
	if err != nil {
		t.Fatal(err)
	}
	// An attacker injects garbage and truncated/forged frames...
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 30; i++ {
		junk := make([]byte, rng.Intn(40))
		for j := range junk {
			junk[j] = byte(rng.Intn(256))
		}
		if err := a.Send(junk); err != nil {
			t.Fatal(err)
		}
	}
	// ...then the legitimate peer speaks; the receiver must surface only
	// the authentic packet.
	sa, err := Seal(a, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.Send([]byte("authentic")); err != nil {
		t.Fatal(err)
	}
	got, err := sb.Recv()
	if err != nil || !bytes.Equal(got, []byte("authentic")) {
		t.Fatalf("Recv = %q, %v", got, err)
	}
}

func TestSealWrongKeyLooksLikeLoss(t *testing.T) {
	a, b := Pipe(PipeConfig{Seed: 6})
	defer a.Close()
	sa, err := Seal(a, bytes.Repeat([]byte{1}, 16))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Seal(b, bytes.Repeat([]byte{2}, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.Send([]byte("secret")); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		sb.Recv()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("wrong-key packet was surfaced")
	case <-time.After(20 * time.Millisecond):
	}
	a.Close()
	<-done
}

func TestSealedSession(t *testing.T) {
	// Full protocol over a sealed faulty link.
	key := bytes.Repeat([]byte{3}, 32)
	ca, cb := sealedPair(t, PipeConfig{LinkModel: LinkModel{Loss: 0.2, DupProb: 0.2}, Seed: 7}, key)
	s, err := NewSender(ca, SenderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := NewReceiver(cb, ReceiverConfig{RetryInterval: testRetry})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		msg := []byte{byte(i), 'm'}
		if err := s.Send(ctx, msg); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
		got, err := r.Recv(ctx)
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("Recv %d = %q, %v", i, got, err)
		}
	}
}
