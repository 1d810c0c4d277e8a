package ghm_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ghm"
	"ghm/internal/testutil"
)

func TestEndpointSlotsAreIndependent(t *testing.T) {
	a, b := ghm.Pipe(ghm.PipeFaults{Loss: 0.2, Seed: 101})
	ea, eb := ghm.NewEndpoint(a), ghm.NewEndpoint(b)
	defer ea.Close()
	defer eb.Close()

	// Slot 0: A sends to B. Slot 1: B sends to A — opposite directions on
	// the same socket pair, one pump per side.
	tx0, err := ea.Sender(0)
	if err != nil {
		t.Fatal(err)
	}
	rx0, err := eb.Receiver(0)
	if err != nil {
		t.Fatal(err)
	}
	tx1, err := eb.Sender(1)
	if err != nil {
		t.Fatal(err)
	}
	rx1, err := ea.Receiver(1)
	if err != nil {
		t.Fatal(err)
	}

	ctx := testCtx(t)
	for i := 0; i < 5; i++ {
		fwd := fmt.Sprintf("a-to-b-%d", i)
		rev := fmt.Sprintf("b-to-a-%d", i)
		if err := tx0.Send(ctx, []byte(fwd)); err != nil {
			t.Fatal(err)
		}
		if err := tx1.Send(ctx, []byte(rev)); err != nil {
			t.Fatal(err)
		}
		if got, err := rx0.Recv(ctx); err != nil || string(got) != fwd {
			t.Fatalf("slot 0 Recv = %q, %v", got, err)
		}
		if got, err := rx1.Recv(ctx); err != nil || string(got) != rev {
			t.Fatalf("slot 1 Recv = %q, %v", got, err)
		}
	}
}

func TestEndpointPeerSlot(t *testing.T) {
	a, b := ghm.Pipe(ghm.PipeFaults{Loss: 0.1, Seed: 102})
	ea, eb := ghm.NewEndpoint(a), ghm.NewEndpoint(b)
	defer ea.Close()
	defer eb.Close()

	pa, err := ea.Peer(3, ghm.RoleA)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := eb.Peer(3, ghm.RoleB)
	if err != nil {
		t.Fatal(err)
	}

	ctx := testCtx(t)
	if err := pa.Send(ctx, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if got, err := pb.Recv(ctx); err != nil || string(got) != "ping" {
		t.Fatalf("peer B Recv = %q, %v", got, err)
	}
	if err := pb.Send(ctx, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	if got, err := pa.Recv(ctx); err != nil || string(got) != "pong" {
		t.Fatalf("peer A Recv = %q, %v", got, err)
	}
	// Closing the peer frees the slot without touching the endpoint.
	if err := pa.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ea.Peer(3, ghm.RoleA); err != nil {
		t.Fatalf("re-attaching freed slot: %v", err)
	}
}

// TestNewPeerIsEndpointSlotZero: a peer from NewPeer and one from an
// Endpoint's slot 0 are the same end on the wire. Each end is built
// either way with the same seed, and in every pairing the first DATA
// and the first CTL each end sends are byte-identical.
func TestNewPeerIsEndpointSlotZero(t *testing.T) {
	// first[role][kind-1] is the first packet of that wire kind (DATA 1,
	// CTL 2) the role's end sent, frame id byte included.
	type first [2][2][]byte
	run := func(t *testing.T, viaEndpoint [2]bool) first {
		left, right := ghm.Pipe(ghm.PipeFaults{Seed: 104})
		var (
			mu  sync.Mutex
			got first
		)
		peers := make([]*ghm.Peer, 2)
		for role, conn := range []ghm.PacketConn{left, right} {
			role := role
			conn = countingConn{PacketConn: conn, note: func(p []byte) {
				if len(p) < 2 || (p[1] != 1 && p[1] != 2) {
					return
				}
				mu.Lock()
				defer mu.Unlock()
				if got[role][p[1]-1] == nil {
					got[role][p[1]-1] = append([]byte(nil), p...)
				}
			}}
			opts := []ghm.Option{ghm.WithSeed(int64(40 + role))}
			var err error
			if viaEndpoint[role] {
				e := ghm.NewEndpoint(conn)
				t.Cleanup(func() { e.Close() })
				peers[role], err = e.Peer(0, ghm.Role(role), opts...)
			} else {
				peers[role], err = ghm.NewPeer(conn, ghm.Role(role), opts...)
			}
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { peers[role].Close() })
		}
		// One direction at a time: each end's seeded source is shared by
		// its two stations, so the draws must not race.
		ctx := testCtx(t)
		for i, msg := range []string{"ping", "pong"} {
			if err := peers[i].Send(ctx, []byte(msg)); err != nil {
				t.Fatal(err)
			}
			if m, err := peers[1-i].Recv(ctx); err != nil || string(m) != msg {
				t.Fatalf("Recv = %q, %v; want %q", m, err, msg)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		return got
	}

	want := run(t, [2]bool{false, false})
	for _, via := range [][2]bool{{true, true}, {false, true}, {true, false}} {
		got := run(t, via)
		for role := 0; role < 2; role++ {
			for kind, name := range []string{"DATA", "CTL"} {
				if want[role][kind] == nil || !bytes.Equal(got[role][kind], want[role][kind]) {
					t.Errorf("endpoint=%v: role %d's first %s = %x, NewPeer's = %x",
						via, role, name, got[role][kind], want[role][kind])
				}
			}
		}
	}
}

func TestEndpointSlotValidation(t *testing.T) {
	a, b := ghm.Pipe(ghm.PipeFaults{Seed: 103})
	defer b.Close()
	e := ghm.NewEndpoint(a)
	defer e.Close()
	for _, slot := range []int{-1, ghm.MaxEndpointSlots} {
		if _, err := e.Sender(slot); err == nil {
			t.Errorf("Sender(%d) accepted", slot)
		}
		if _, err := e.Receiver(slot); err == nil {
			t.Errorf("Receiver(%d) accepted", slot)
		}
		if _, err := e.Peer(slot, ghm.RoleA); err == nil {
			t.Errorf("Peer(%d) accepted", slot)
		}
		if _, err := e.Session(slot, ghm.SessionConfig{}); err == nil {
			t.Errorf("Session(%d) accepted", slot)
		}
	}
	// A session on an endpoint brings its own transport; a Dial is a
	// configuration error, not something to silently ignore.
	if _, err := e.Session(0, ghm.SessionConfig{
		Dial: func() (ghm.PacketConn, error) { return nil, nil },
	}); err == nil {
		t.Error("Session with explicit Dial accepted")
	}
}

func TestEndpointSessionSlot(t *testing.T) {
	a, b := ghm.Pipe(ghm.PipeFaults{Loss: 0.2, Seed: 104})
	ea, eb := ghm.NewEndpoint(a), ghm.NewEndpoint(b)
	defer ea.Close()
	defer eb.Close()

	rx, err := eb.Receiver(5)
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	var got []string
	var mu sync.Mutex
	go func() {
		for {
			m, err := rx.Recv(ctx)
			if err != nil {
				return
			}
			mu.Lock()
			got = append(got, string(m))
			mu.Unlock()
		}
	}()

	s, err := ea.Session(5, ghm.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ {
		if _, err := s.Enqueue([]byte(fmt.Sprintf("queued-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("receiver drained %d of 5", n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, m := range got {
		if want := fmt.Sprintf("queued-%d", i); m != want {
			t.Fatalf("delivery %d = %q, want %q", i, m, want)
		}
	}
}

func TestEndpointCloseUnblocksInstances(t *testing.T) {
	a, b := ghm.Pipe(ghm.PipeFaults{Loss: 1, Seed: 105})
	defer b.Close()
	e := ghm.NewEndpoint(a)
	tx, err := e.Sender(0)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := e.Receiver(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	sendErr := make(chan error, 1)
	recvErr := make(chan error, 1)
	go func() { sendErr <- tx.Send(ctx, []byte("never")) }()
	go func() {
		_, err := rx.Recv(ctx)
		recvErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]chan error{"Send": sendErr, "Recv": recvErr} {
		select {
		case err := <-c:
			if err == nil {
				t.Errorf("%s succeeded after endpoint close", name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not unblock on endpoint close", name)
		}
	}
}

// countPumps parses a full goroutine dump for engine read pumps. The
// pump body can be inlined into the `go` wrapper, so the stable marker
// is the creation site: exactly one goroutine is created by engine.New,
// and it is the pump. (The "in goroutine" suffix keeps NewWheel's
// goroutine from matching.)
func countPumps() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), "created by ghm/internal/engine.New in goroutine")
}

// TestGoroutineBudget: a depth-64 station pair plus 8 supervised
// sessions run on exactly one read pump per physical conn — four conns,
// four pumps — and no goroutine per slot or station.
func TestGoroutineBudget(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	base := countPumps()
	baseGoroutines := runtime.NumGoroutine()

	// One depth-64 station a side over one socket pair.
	ma, mb := ghm.Pipe(ghm.PipeFaults{Seed: 106})
	ms, err := ghm.NewSender(ma, ghm.WithWindow(64))
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	mr, err := ghm.NewReceiver(mb, ghm.WithWindow(64))
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Close()

	// 8 sessions multiplexed over a second socket pair via Endpoints.
	sa, sb := ghm.Pipe(ghm.PipeFaults{Seed: 107})
	ea, eb := ghm.NewEndpoint(sa), ghm.NewEndpoint(sb)
	defer ea.Close()
	defer eb.Close()
	ctx := testCtx(t)
	var rxs []*ghm.Receiver
	var sessions []*ghm.Session
	for slot := 0; slot < 8; slot++ {
		rx, err := eb.Receiver(slot)
		if err != nil {
			t.Fatal(err)
		}
		rxs = append(rxs, rx)
		go func() {
			for {
				if _, err := rx.Recv(ctx); err != nil {
					return
				}
			}
		}()
		s, err := ea.Session(slot, ghm.SessionConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sessions = append(sessions, s)
	}

	if got := countPumps() - base; got != 4 {
		t.Errorf("engine pumps = %d, want 4 (one per physical conn)", got)
	}

	// Drive traffic through everything so the count reflects steady
	// state, not an idle stack.
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := ms.Send(ctx, []byte(fmt.Sprintf("slot-%d", i))); err != nil {
				t.Errorf("windowed send: %v", err)
			}
		}(i)
	}
	for i := 0; i < 64; i++ {
		if _, err := mr.Recv(ctx); err != nil {
			t.Fatalf("windowed recv: %v", err)
		}
	}
	wg.Wait()
	for _, s := range sessions {
		if _, err := s.Enqueue([]byte("sess")); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range sessions {
		if err := s.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}

	if got := countPumps() - base; got != 4 {
		t.Errorf("engine pumps after traffic = %d, want 4", got)
	}
	// The whole tower — the two depth-64 stations, 8 supervised
	// sessions, 8 receivers — must cost a bounded crew, not goroutines per
	// slot. The bound is generous: supervisors, outboxes and test
	// goroutines are all in it.
	if grew := runtime.NumGoroutine() - baseGoroutines; grew > 120 {
		t.Errorf("stack grew by %d goroutines at depth 64 + 8 sessions", grew)
	}
}

// TestEndpoint64SlotSoak fills every slot of an Endpoint pair with a
// Sender/Receiver over one lossy, duplicating, reordering pipe pair: the
// engine pump's demux at its widest fan-out, 64 stations on one pump a
// side. Each slot must deliver its own stream exactly once, in order.
// Under -race it is also the concurrency check on station handlers that
// share one pump.
func TestEndpoint64SlotSoak(t *testing.T) {
	const perSlot = 4
	a, b := ghm.Pipe(ghm.PipeFaults{Loss: 0.15, DupProb: 0.1, ReorderProb: 0.2, Seed: 99})
	ea, eb := ghm.NewEndpoint(a), ghm.NewEndpoint(b)
	defer ea.Close()
	defer eb.Close()
	ctx := testCtx(t)
	retry := ghm.WithRetryInterval(300 * time.Microsecond)

	var wg sync.WaitGroup
	for slot := 0; slot < ghm.MaxEndpointSlots; slot++ {
		tx, err := ea.Sender(slot)
		if err != nil {
			t.Fatal(err)
		}
		rx, err := eb.Receiver(slot, retry)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < perSlot; i++ {
				if err := tx.Send(ctx, []byte(fmt.Sprintf("slot-%02d-%d", slot, i))); err != nil {
					t.Errorf("slot %d send %d: %v", slot, i, err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < perSlot; i++ {
				m, err := rx.Recv(ctx)
				if err != nil {
					t.Errorf("slot %d recv %d: %v", slot, i, err)
					return
				}
				if want := fmt.Sprintf("slot-%02d-%d", slot, i); string(m) != want {
					t.Errorf("slot %d delivered %q, want %q", slot, m, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestEndpointReplaceSlot(t *testing.T) {
	a, b := ghm.Pipe(ghm.PipeFaults{Seed: 108})
	ea, eb := ghm.NewEndpoint(a), ghm.NewEndpoint(b)
	defer ea.Close()
	defer eb.Close()

	tx, err := ea.Sender(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	if _, err := eb.Receiver(0); err != nil {
		t.Fatal(err)
	}
	// Re-attaching the slot supersedes the first receiver: the station
	// rebuild pattern a supervisor drives, without redialing the socket.
	rx2, err := eb.Receiver(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Send(ctx, []byte("to-successor")); err != nil {
		t.Fatal(err)
	}
	if got, err := rx2.Recv(ctx); err != nil || !bytes.Equal(got, []byte("to-successor")) {
		t.Fatalf("successor Recv = %q, %v", got, err)
	}
}
