package ghm_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ghm"
	"ghm/internal/trace"
	"ghm/internal/verify"
)

// chaosFaults is a harsh but drainable link: Gilbert–Elliott burst loss
// with a hostile bad state, jitter-induced reordering, and some
// duplication on top.
func chaosFaults(seed int64) ghm.PipeFaults {
	return ghm.PipeFaults{
		Loss:    0.05,
		DupProb: 0.05,
		Burst: &ghm.BurstLoss{
			PGoodBad: 0.05,
			PBadGood: 0.3,
			LossGood: 0.02,
			LossBad:  0.7,
		},
		Latency: 50 * time.Microsecond,
		Jitter:  300 * time.Microsecond,
		Seed:    seed,
	}
}

// TestChaosSealedStreamSurvivesCrashesAndBursts pushes a byte stream
// through Seal + StreamWriter/StreamReader over a bursty, jittery,
// duplicating link while both stations suffer mid-transfer crashes, and
// requires the stream to arrive exactly once, in order, byte for byte.
//
// Crashes are phased between confirmed chunks (Send blocks until the
// protocol confirms delivery, so between Write calls nothing is in
// flight): a receiver crash with a transfer in flight may legitimately
// deliver that chunk twice — the paper proves such duplication
// unavoidable — while phased crashes must preserve exactly-once.
func TestChaosSealedStreamSurvivesCrashesAndBursts(t *testing.T) {
	ctx := testCtx(t)
	key := bytes.Repeat([]byte{0x42}, 16)

	left, right := ghm.Pipe(chaosFaults(71))
	sl, err := ghm.Seal(left, key)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := ghm.Seal(right, key)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ghm.NewSender(sl)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := ghm.NewReceiver(sr,
		ghm.WithRetryInterval(300*time.Microsecond),
		ghm.WithRetryBackoff(16*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const chunk = 512
	const chunks = 40
	payload := make([]byte, chunk*chunks)
	rand.New(rand.NewSource(71)).Read(payload)

	type readResult struct {
		data []byte
		err  error
	}
	got := make(chan readResult, 1)
	go func() {
		data, err := io.ReadAll(ghm.NewStreamReader(ctx, r))
		got <- readResult{data, err}
	}()

	w := ghm.NewStreamWriter(ctx, s)
	w.ChunkSize = chunk
	for i := 0; i < chunks; i++ {
		if _, err := w.Write(payload[i*chunk : (i+1)*chunk]); err != nil {
			t.Fatalf("write chunk %d: %v", i, err)
		}
		switch i {
		case 9, 29:
			s.Crash()
		case 19:
			r.Crash()
		case 34:
			s.Crash()
			r.Crash()
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close stream: %v", err)
	}

	res := <-got
	if res.err != nil {
		t.Fatalf("read stream: %v", res.err)
	}
	if !bytes.Equal(res.data, payload) {
		t.Fatalf("stream corrupted: got %d bytes, want %d (exactly-once violated)",
			len(res.data), len(payload))
	}
}

// TestChaosWindowedStreamSurvivesCrashes soaks a WithWindow(8) pair over
// the bursty chaos link while both stations suffer crashes mid-flight,
// with every station action fed through the Section 2.6 checker. The
// windowed contract under test: wiped payloads resubmitted byte-identical
// heal the in-order stream, every payload reaches Recv exactly once, and
// the per-attempt correctness conditions hold slot by slot.
func TestChaosWindowedStreamSurvivesCrashes(t *testing.T) {
	ctx := testCtx(t)
	const window, n = 8, 120

	var live verify.Live
	tap := func(e ghm.Event) {
		var k trace.Kind
		switch e.Kind {
		case ghm.EventSendMsg:
			k = trace.KindSendMsg
		case ghm.EventOK:
			k = trace.KindOK
		case ghm.EventReceiveMsg:
			k = trace.KindReceiveMsg
		case ghm.EventCrashSender:
			k = trace.KindCrashT
		case ghm.EventCrashReceiver:
			k = trace.KindCrashR
		default:
			return
		}
		live.Observe(k, e.Msg, e.Slot)
	}

	left, right := ghm.Pipe(chaosFaults(74))
	s, err := ghm.NewSender(left, ghm.WithWindow(window), ghm.WithTap(tap))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := ghm.NewReceiver(right,
		ghm.WithWindow(window),
		ghm.WithTap(tap),
		ghm.WithRetryInterval(300*time.Microsecond),
		ghm.WithRetryBackoff(16*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	recvDone := make(chan error, 1)
	delivered := make(map[string]int, n)
	go func() {
		for i := 0; i < n; i++ {
			msg, err := r.Recv(ctx)
			if err != nil {
				recvDone <- fmt.Errorf("recv %d: %w", i, err)
				return
			}
			delivered[string(msg)]++
		}
		recvDone <- nil
	}()

	// window workers, each resubmitting its payload byte-identical until
	// confirmed — the contract that lets the receiver's reused admission
	// seq drop a delivery that beat the wipe.
	work := make(chan int)
	var wg sync.WaitGroup
	var confirmed atomic.Int64
	for w := 0; w < window; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				payload := []byte(fmt.Sprintf("chaos-%03d", i))
				for {
					err := s.Send(ctx, payload)
					if err == nil {
						confirmed.Add(1)
						break
					}
					if ctx.Err() != nil {
						t.Errorf("send %d: %v", i, err)
						return
					}
				}
			}
		}()
	}
	go func() {
		// Crash both stations while transfers are in flight, repeatedly.
		for i := 0; i < 6 && ctx.Err() == nil; i++ {
			time.Sleep(15 * time.Millisecond)
			if i%2 == 0 {
				s.Crash()
			} else {
				r.Crash()
			}
		}
	}()
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()

	if err := <-recvDone; err != nil {
		t.Fatal(err)
	}
	if got := confirmed.Load(); got != n {
		t.Errorf("confirmed %d sends, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("chaos-%03d", i)
		if delivered[key] != 1 {
			t.Errorf("payload %q delivered %d times, want exactly once", key, delivered[key])
		}
	}
	if rep := live.Report(); !rep.Clean() {
		t.Errorf("windowed chaos run violates Section 2.6: %v", rep)
	}
}

// tamperConn flips a bit in every nth packet below the Seal layer,
// simulating an active attacker on the wire.
type tamperConn struct {
	ghm.PacketConn
	n        atomic.Int64
	every    int64
	tampered atomic.Int64
}

func (c *tamperConn) Send(p []byte) error {
	if c.n.Add(1)%c.every == 0 && len(p) > 0 {
		cp := append([]byte(nil), p...)
		cp[len(cp)/2] ^= 0x80
		c.tampered.Add(1)
		return c.PacketConn.Send(cp)
	}
	return c.PacketConn.Send(p)
}

// TestChaosTamperedPacketsCountAsLoss corrupts a steady fraction of
// packets under the Seal layer: authentication must turn every tampered
// packet into loss, and the protocol must still deliver every message
// exactly once, in order.
func TestChaosTamperedPacketsCountAsLoss(t *testing.T) {
	ctx := testCtx(t)
	key := bytes.Repeat([]byte{0x17}, 32)

	left, right := ghm.Pipe(ghm.PipeFaults{Seed: 72})
	tl := &tamperConn{PacketConn: left, every: 4}
	tr := &tamperConn{PacketConn: right, every: 5}
	sl, err := ghm.Seal(tl, key)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := ghm.Seal(tr, key)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ghm.NewSender(sl)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := ghm.NewReceiver(sr, ghm.WithRetryInterval(300*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const n = 30
	go func() {
		for i := 0; i < n; i++ {
			payload := bytes.Repeat([]byte{byte(i)}, 32)
			if err := s.Send(ctx, payload); err != nil {
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		msg, err := r.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if want := bytes.Repeat([]byte{byte(i)}, 32); !bytes.Equal(msg, want) {
			t.Fatalf("message %d out of order or corrupted: got %v", i, msg[:4])
		}
	}
	if tl.tampered.Load() == 0 || tr.tampered.Load() == 0 {
		t.Errorf("tamper injection idle: sender side %d, receiver side %d",
			tl.tampered.Load(), tr.tampered.Load())
	}
}

// TestChaosTapObservesLifecycle checks the WithTap hook: the station
// actions of the paper's model (send_msg, OK, receive_msg, crashes) must
// surface in commit order with their payloads.
func TestChaosTapObservesLifecycle(t *testing.T) {
	ctx := testCtx(t)

	var mu sync.Mutex
	var events []ghm.Event
	tap := func(e ghm.Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}

	s, r := newPair(t, ghm.PipeFaults{Loss: 0.2, Seed: 73}, ghm.WithTap(tap))
	for i := 0; i < 3; i++ {
		msg := []byte{0xA0, byte(i)}
		if err := s.Send(ctx, msg); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	}
	s.Crash()
	r.Crash()

	mu.Lock()
	defer mu.Unlock()
	count := map[ghm.EventKind]int{}
	for _, e := range events {
		count[e.Kind]++
	}
	if count[ghm.EventSendMsg] != 3 || count[ghm.EventOK] != 3 || count[ghm.EventReceiveMsg] != 3 {
		t.Errorf("tap counts = %v, want 3 send_msg / 3 OK / 3 receive_msg", count)
	}
	if count[ghm.EventCrashSender] != 1 || count[ghm.EventCrashReceiver] != 1 {
		t.Errorf("tap counts = %v, want one crash per side", count)
	}
	var sends []ghm.Event
	for _, e := range events {
		if e.Kind == ghm.EventSendMsg {
			sends = append(sends, e)
		}
	}
	for i, e := range sends {
		if want := []byte{0xA0, byte(i)}; !bytes.Equal(e.Msg, want) {
			t.Errorf("send_msg %d payload = %v, want %v", i, e.Msg, want)
		}
	}
}
