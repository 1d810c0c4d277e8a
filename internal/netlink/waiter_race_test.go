package netlink

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ghm/internal/bitstr"
	"ghm/internal/core"
	"ghm/internal/metrics"
	"ghm/internal/trace"
	"ghm/internal/wire"
)

// scriptConn is a hand-driven PacketConn: the test feeds packets to Recv
// through in, captures the station's output from sent, and controls when
// Recv observes the close — Close here does NOT unblock Recv, so the
// receive loop provably outlives Sender.Close's stop signal, which is
// exactly the window the stale-waiter bug lived in.
type scriptConn struct {
	sent    chan []byte
	in      chan []byte
	release chan struct{}
	once    sync.Once
}

func newScriptConn() *scriptConn {
	return &scriptConn{
		sent:    make(chan []byte, 64),
		in:      make(chan []byte),
		release: make(chan struct{}),
	}
}

func (c *scriptConn) Send(p []byte) error {
	cp := append([]byte(nil), p...)
	select {
	case c.sent <- cp:
	default:
	}
	return nil
}

func (c *scriptConn) Recv() ([]byte, error) {
	select {
	case p := <-c.in:
		return p, nil
	case <-c.release:
		return nil, ErrClosed
	}
}

func (c *scriptConn) Close() error { return nil }

// waitCounter polls reg until the named counter reaches at least want.
func waitCounter(t *testing.T, reg *metrics.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter(name).Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter %s never reached %d", name, want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// feed hands one packet to the station's receive loop and returns once it
// was picked up.
func (c *scriptConn) feed(t *testing.T, p []byte) {
	t.Helper()
	select {
	case c.in <- p:
	case <-time.After(5 * time.Second):
		t.Fatal("receive loop never picked up the packet")
	}
}

// slotFramed dresses a hand-built packet the way a depth-k station's peer
// would: behind slot's id in a framed window, bare at depth 1.
func slotFramed(k, slot int, p []byte) []byte {
	if !core.Framed(k) {
		return p
	}
	return append(binary.AppendUvarint(nil, uint64(slot)), p...)
}

// sentData decodes the next DATA packet a depth-k station put on conn for
// the given slot.
func sentData(t *testing.T, k, slot int, conn *scriptConn) wire.Data {
	t.Helper()
	select {
	case p := <-conn.sent:
		if core.Framed(k) {
			if len(p) == 0 || int(p[0]) != slot {
				t.Fatalf("station emitted %x, want a slot-%d frame", p, slot)
			}
			p = p[1:]
		}
		d, err := wire.DecodeData(p)
		if err != nil {
			t.Fatalf("station emitted junk: %v", err)
		}
		return d
	case <-time.After(5 * time.Second):
		t.Fatal("no DATA packet for the challenge")
		panic("unreachable")
	}
}

// TestCloseAbandonsPendingTransfer is the regression test for the
// abandoned-transfer bookkeeping bug: Send's Close path used to return
// ErrClosed while leaving the waiter set and the transmitter un-crashed,
// so a stale OK arriving afterwards matched the abandoned transfer — the
// tap saw an OK for a message the caller was told did not complete, and
// no crash^T accounted for the abandonment. After the fix the abandoned
// transfer is wiped as crash^T and the stale ack is ignored.
func TestCloseAbandonsPendingTransfer(t *testing.T) {
	forDepths(t, testCloseAbandonsPendingTransfer)
}

func testCloseAbandonsPendingTransfer(t *testing.T, k int) {
	conn := newScriptConn()
	reg := metrics.New()
	var mu sync.Mutex
	var events []trace.Kind
	s, err := NewSender(conn, SenderConfig{
		Window: k,
		Tap: func(k trace.Kind, _ []byte, _ int) {
			mu.Lock()
			events = append(events, k)
			mu.Unlock()
		},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// 1. Start a Send. The transmitter knows no challenge yet, so no DATA
	// leaves; the waiter parks.
	errc := make(chan error, 1)
	go func() { errc <- s.Send(context.Background(), []byte("abandoned")) }()
	waitCounter(t, reg, "tx.send_msgs", 1) // the transfer is committed

	// 2. Feed a receiver challenge; the transmitter answers with DATA,
	// revealing the transfer's tag.
	rho := bitstr.MustBinary("10110011")
	conn.feed(t, slotFramed(k, 0, wire.Ctl{Rho: rho, Tau: bitstr.Empty(), I: 1}.Encode()))
	tau := sentData(t, k, 0, conn).Tau

	// 3. Close the sender. Close blocks until the receive loop exits, and
	// our conn keeps that loop alive, so run it from a goroutine; the
	// pending Send must fail with ErrClosed first.
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Send = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send did not fail on Close")
	}

	// 4. A perfectly valid — but now stale — OK for the abandoned
	// transfer arrives while the receive loop is still running.
	conn.feed(t, slotFramed(k, 0, wire.Ctl{Rho: bitstr.MustBinary("01011100"), Tau: tau, I: 2}.Encode()))

	// 5. Let the receive loop observe the close and Close return.
	close(conn.release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}

	mu.Lock()
	defer mu.Unlock()
	var okCount, crashCount int
	for _, k := range events {
		switch k {
		case trace.KindOK:
			okCount++
		case trace.KindCrashT:
			crashCount++
		}
	}
	if okCount != 0 {
		t.Errorf("stale OK matched an abandoned transfer (%d OK events): %v", okCount, events)
	}
	if crashCount != 1 {
		t.Errorf("abandoned transfer not accounted as crash^T (%d crash events): %v", crashCount, events)
	}
	snap := reg.Snapshot()
	if snap.Counters["tx.abandoned"] != 1 || snap.Counters["tx.crashes"] != 1 {
		t.Errorf("abandonment counters wrong: abandoned=%d crashes=%d",
			snap.Counters["tx.abandoned"], snap.Counters["tx.crashes"])
	}
	if snap.Counters["tx.oks"] != 0 {
		t.Errorf("tx.oks = %d for a run with no completed transfer", snap.Counters["tx.oks"])
	}
}

// TestCancelVsOKDeliveredWins is the regression test for the
// delivered-but-reported-failed Send race: when the OK resolves the
// waiter concurrently with a context cancellation, the select could take
// the cancellation arm and discard the buffered nil — Send returned
// ctx.Err() for a transfer the protocol had confirmed delivered. After
// the fix, settle drains the raced resolution and Send reports success.
//
// The script pins the interleaving: the OK is committed (tx.oks
// observed) before cancel fires, so the old code failed whenever the
// select preferred the ready ctx.Done arm — roughly half of these
// iterations, and deterministically when cancel lands in the gap between
// the waiter being cleared and the buffered send.
func TestCancelVsOKDeliveredWins(t *testing.T) {
	forDepths(t, testCancelVsOKDeliveredWins)
}

func testCancelVsOKDeliveredWins(t *testing.T, k int) {
	for i := 0; i < 50; i++ {
		conn := newScriptConn()
		reg := metrics.New()
		var mu sync.Mutex
		var events []trace.Kind
		s, err := NewSender(conn, SenderConfig{
			Window: k,
			Tap: func(k trace.Kind, _ []byte, _ int) {
				mu.Lock()
				events = append(events, k)
				mu.Unlock()
			},
			Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() { errc <- s.Send(ctx, []byte("racer")) }()
		waitCounter(t, reg, "tx.send_msgs", 1)

		// Challenge in, DATA out: the transfer's tag is on the wire.
		rho := bitstr.MustBinary("10110011")
		conn.feed(t, slotFramed(k, 0, wire.Ctl{Rho: rho, Tau: bitstr.Empty(), I: 1}.Encode()))
		tau := sentData(t, k, 0, conn).Tau

		// A valid ack: the OK commits (counter flushed under the station
		// lock, so once tx.oks reads 1 the waiter has been claimed by the
		// handler) — and only then does the cancellation land.
		conn.feed(t, slotFramed(k, 0, wire.Ctl{Rho: bitstr.MustBinary("01011100"), Tau: tau, I: 2}.Encode()))
		waitCounter(t, reg, "tx.oks", 1)
		cancel()

		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("iter %d: Send = %v for a transfer whose OK committed first — delivered but reported failed", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("iter %d: Send never resolved", i)
		}

		mu.Lock()
		var okCount, crashCount int
		for _, k := range events {
			switch k {
			case trace.KindOK:
				okCount++
			case trace.KindCrashT:
				crashCount++
			}
		}
		mu.Unlock()
		if okCount != 1 || crashCount != 0 {
			t.Fatalf("iter %d: tape has %d OKs, %d crashes; want exactly one OK and no crash", i, okCount, crashCount)
		}
		snap := reg.Snapshot()
		if snap.Counters["tx.abandoned"] != 0 {
			t.Fatalf("iter %d: delivered transfer counted abandoned", i)
		}
		// The drained late-OK must be observed by the latency histogram
		// (the handler fast path and the settle path both land in finish).
		if h, ok := snap.Histograms["tx.ok_latency_ms"]; !ok || h.Count != 1 {
			t.Fatalf("iter %d: ok_latency histogram count = %+v, want 1 observation", i, snap.Histograms["tx.ok_latency_ms"])
		}
		close(conn.release)
		s.Close()
	}
}

// raceSession builds a depth-k Sender/Receiver pair on a perfect pipe
// with a tap recording the sender's events.
func raceSession(t *testing.T, k int, seed int64, events *[]trace.Kind, mu *sync.Mutex) (*Sender, *Receiver) {
	t.Helper()
	a, b := Pipe(PipeConfig{Seed: seed})
	s, err := NewSender(a, SenderConfig{
		Window: k,
		Tap: func(k trace.Kind, _ []byte, _ int) {
			mu.Lock()
			*events = append(*events, k)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(b, ReceiverConfig{Window: k, RetryInterval: 50 * time.Microsecond})
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	return s, r
}

// TestCrashVsOKInterleaving drives Crash head-to-head against the OK from
// the receive loop, many times, under -race: the waiter must resolve
// exactly once, with either nil or ErrCrashed, and never wedge.
func TestCrashVsOKInterleaving(t *testing.T) {
	forDepths(t, testCrashVsOKInterleaving)
}

func testCrashVsOKInterleaving(t *testing.T, k int) {
	ctx := testCtx(t)
	for i := 0; i < 150; i++ {
		var mu sync.Mutex
		var events []trace.Kind
		s, r := raceSession(t, k, int64(1000+i), &events, &mu)

		errc := make(chan error, 1)
		go func() { errc <- s.Send(ctx, []byte("racer")) }()
		// Vary the crash point across iterations to sweep the interleaving
		// space around the OK commit.
		time.Sleep(time.Duration(i%40) * 10 * time.Microsecond)
		s.Crash()

		select {
		case err := <-errc:
			if err != nil && !errors.Is(err, ErrCrashed) {
				t.Fatalf("iter %d: Send = %v, want nil or ErrCrashed", i, err)
			}
			if err != nil && core.Framed(k) {
				// A framed window's stream contract: the wiped payload is
				// resubmitted, or release stalls at its seq.
				if err := s.Send(ctx, []byte("racer")); err != nil {
					t.Fatalf("iter %d: resubmission = %v", i, err)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("iter %d: Send never resolved — waiter lost", i)
		}
		// A second transfer must work regardless of which side won.
		if err := s.Send(ctx, []byte("after")); err != nil {
			t.Fatalf("iter %d: Send after crash = %v", i, err)
		}
		drainCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		for delivered := 0; delivered < 1; delivered++ {
			if _, err := r.Recv(drainCtx); err != nil {
				t.Fatalf("iter %d: Recv = %v", i, err)
			}
		}
		cancel()
		s.Close()
		r.Close()
	}
}

// TestCloseVsOKInterleaving drives Close head-to-head against the OK. For
// each interleaving the outcome must be coherent: either the OK won (Send
// nil, tap shows OK, no crash^T) or the abandonment won (Send ErrClosed —
// possibly with the OK having raced past the stop signal — and, when the
// transfer really was pending, crash^T taped). What may never happen is an
// OK and a crash^T for the same transfer.
func TestCloseVsOKInterleaving(t *testing.T) {
	forDepths(t, testCloseVsOKInterleaving)
}

func testCloseVsOKInterleaving(t *testing.T, k int) {
	ctx := testCtx(t)
	for i := 0; i < 150; i++ {
		var mu sync.Mutex
		var events []trace.Kind
		s, r := raceSession(t, k, int64(5000+i), &events, &mu)

		errc := make(chan error, 1)
		go func() { errc <- s.Send(ctx, []byte("racer")) }()
		time.Sleep(time.Duration(i%40) * 10 * time.Microsecond)
		s.Close()

		var sendErr error
		select {
		case sendErr = <-errc:
		case <-time.After(10 * time.Second):
			t.Fatalf("iter %d: Send never resolved — waiter lost", i)
		}
		if sendErr != nil && !errors.Is(sendErr, ErrClosed) {
			t.Fatalf("iter %d: Send = %v, want nil or ErrClosed", i, sendErr)
		}

		mu.Lock()
		var okCount, crashCount int
		for _, k := range events {
			switch k {
			case trace.KindOK:
				okCount++
			case trace.KindCrashT:
				crashCount++
			}
		}
		mu.Unlock()
		if okCount > 0 && crashCount > 0 {
			t.Fatalf("iter %d: transfer both completed (OK) and was abandoned (crash^T)", i)
		}
		if sendErr == nil && okCount != 1 {
			t.Fatalf("iter %d: Send succeeded but tap saw %d OKs", i, okCount)
		}
		r.Close()
	}
}

// TestReusedWaiterVsOK holds the per-slot result channels to what lets
// them be reused: a slot's channel is empty whenever no Send holds the
// slot, and a Send only ever reads a result produced for itself. Workers
// keep every slot of the window busy with distinct payloads while one
// disturbance — a cancelled Send, a Crash, a Close — races the OKs, and
// each result is checked against what it claims: nil means the receiver
// has already delivered that very payload (a nil left over from the
// slot's previous Send would come back before the payload had crossed
// the link), and ErrCrashed means a crash^T was committed while this Send
// was in flight (one left over would predate it).
func TestReusedWaiterVsOK(t *testing.T) {
	for _, mode := range []string{"cancel", "crash", "close"} {
		t.Run(mode, func(t *testing.T) {
			forDepths(t, func(t *testing.T, k int) { testReusedWaiter(t, k, mode) })
		})
	}
}

func testReusedWaiter(t *testing.T, k int, mode string) {
	ctx := testCtx(t)
	const perWorker = 6
	for i := 0; i < 40; i++ {
		var (
			mu        sync.Mutex
			delivered = make(map[string]bool)
			crashes   atomic.Int64
		)
		a, b := Pipe(PipeConfig{Seed: int64(9000 + i)})
		s, err := NewSender(a, SenderConfig{Window: k, Tap: func(kind trace.Kind, _ []byte, _ int) {
			if kind == trace.KindCrashT {
				crashes.Add(1)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReceiver(b, ReceiverConfig{Window: k, RetryInterval: 50 * time.Microsecond,
			Tap: func(kind trace.Kind, msg []byte, _ int) {
				if kind == trace.KindReceiveMsg {
					mu.Lock()
					delivered[string(msg)] = true
					mu.Unlock()
				}
			}})
		if err != nil {
			s.Close()
			t.Fatal(err)
		}
		drainCtx, stopDrain := context.WithCancel(ctx)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for {
				if _, err := r.Recv(drainCtx); err != nil {
					return
				}
			}
		}()

		victim, cancelVictim := context.WithCancel(ctx)
		var wg sync.WaitGroup
		for w := 0; w < k; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for n := 0; n < perWorker; n++ {
					payload := fmt.Sprintf("iter %d worker %d message %d", i, w, n)
					// A wiped payload is resubmitted byte-identical: a framed
					// window's release waits for its seq.
					for confirmed := false; !confirmed; {
						sendCtx := ctx
						if mode == "cancel" && w == 0 && victim.Err() == nil {
							sendCtx = victim
						}
						before := crashes.Load()
						err := s.Send(sendCtx, []byte(payload))
						if k == 1 && len(s.results[0]) != 0 {
							t.Errorf("iter %d: Send(%q) = %v left a result in its slot's channel", i, payload, err)
						}
						switch {
						case err == nil:
							mu.Lock()
							ok := delivered[payload]
							mu.Unlock()
							if !ok {
								t.Errorf("iter %d: Send(%q) = nil before the receiver delivered it: a result left over from the slot's previous Send", i, payload)
							}
							confirmed = true
						case errors.Is(err, ErrCrashed):
							// crashLocked resolves its waiters and tapes crash^T in
							// one critical section; passing through the lock orders
							// this read after the tape entry.
							s.mu.Lock()
							s.mu.Unlock() //nolint:staticcheck // empty critical section on purpose
							if crashes.Load() == before {
								t.Errorf("iter %d: Send(%q) = ErrCrashed with no crash^T during it: a result left over from the slot's previous Send", i, payload)
							}
						case errors.Is(err, context.Canceled) && sendCtx == victim:
						case errors.Is(err, ErrClosed) && mode == "close":
							return
						default:
							t.Errorf("iter %d: Send(%q) = %v", i, payload, err)
							return
						}
					}
				}
			}(w)
		}
		// Sweep the disturbance across the run of OKs.
		time.Sleep(time.Duration(i%40) * 10 * time.Microsecond)
		switch mode {
		case "cancel":
			cancelVictim()
		case "crash":
			s.Crash()
		case "close":
			s.Close()
		}
		wg.Wait()
		cancelVictim()

		s.mu.Lock()
		for slot := range s.results {
			if len(s.results[slot]) != 0 || s.waiting[slot] {
				t.Errorf("iter %d: slot %d at rest: %d buffered results, waiting=%v", i, slot, len(s.results[slot]), s.waiting[slot])
			}
		}
		s.mu.Unlock()
		if len(s.free) != k {
			t.Errorf("iter %d: %d of %d slot tokens at rest", i, len(s.free), k)
		}
		stopDrain()
		<-drained
		s.Close()
		r.Close()
		if t.Failed() {
			return
		}
	}
}
