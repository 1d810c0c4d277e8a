package netlink

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ghm/internal/bitstr"
	"ghm/internal/metrics"
	"ghm/internal/wire"
)

// sendAll pushes msgs through s with up to k concurrent Sends and
// returns the per-message results.
func sendAll(ctx context.Context, s *Sender, msgs [][]byte) []error {
	errs := make([]error, len(msgs))
	var wg sync.WaitGroup
	idx := make(chan int, len(msgs))
	for i := range msgs {
		idx <- i
	}
	close(idx)
	for g := 0; g < s.k; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = s.Send(ctx, msgs[i])
			}
		}()
	}
	wg.Wait()
	return errs
}

func TestWindowedPerfectLinkExactlyOnce(t *testing.T) {
	const k, total = 8, 100
	reg := metrics.New()
	s, r := newStations(t, k, PipeConfig{Seed: 11}, reg)
	ctx := testCtx(t)

	msgs := make([][]byte, total)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("w-%03d", i))
	}
	recvDone := make(chan map[string]int, 1)
	go func() {
		got := make(map[string]int)
		for i := 0; i < total; i++ {
			m, err := r.Recv(ctx)
			if err != nil {
				recvDone <- nil
				return
			}
			got[string(m)]++
		}
		recvDone <- got
	}()

	for i, err := range sendAll(ctx, s, msgs) {
		if err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	got := <-recvDone
	if got == nil {
		t.Fatal("receiver failed")
	}
	for _, m := range msgs {
		if got[string(m)] != 1 {
			t.Errorf("payload %q delivered %d times, want 1", m, got[string(m)])
		}
	}
	// Every admission was released: the cursor swept the whole stream and
	// nothing is parked.
	r.mu.Lock()
	next, parked := r.nextSeq, len(r.pending)
	r.mu.Unlock()
	if next != total || parked != 0 {
		t.Errorf("release cursor=%d parked=%d, want %d/0", next, parked, total)
	}
}

func TestWindowedInOrderReleaseUnderReordering(t *testing.T) {
	// A lossy, reordering, duplicating link completes slots out of order;
	// the receiver must still release in admission order.
	const k, total = 4, 60
	s, r := newStations(t, k, PipeConfig{LinkModel: LinkModel{Loss: 0.2, DupProb: 0.1, ReorderProb: 0.3}, Seed: 12}, nil)
	ctx := testCtx(t)

	msgs := make([][]byte, total)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("ord-%03d", i))
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, k)
	for i := 0; i < total; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(m []byte) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := s.Send(ctx, m); err != nil {
				t.Errorf("Send %q: %v", m, err)
			}
		}(msgs[i])
	}
	done := make(chan [][]byte, 1)
	go func() {
		var rel [][]byte
		for len(rel) < total {
			m, err := r.Recv(ctx)
			if err != nil {
				done <- nil
				return
			}
			rel = append(rel, m)
		}
		done <- rel
	}()
	wg.Wait()
	rel := <-done
	if rel == nil {
		t.Fatal("receiver failed")
	}
	// Admission order is internal state; what is externally exact: every
	// payload releases exactly once, the cursor sweeps the full stream,
	// and nothing stays parked — the release machine resolved every
	// reordering the link produced.
	seen := make(map[string]bool)
	for _, m := range rel {
		if seen[string(m)] {
			t.Fatalf("payload %q released twice", m)
		}
		seen[string(m)] = true
	}
	r.mu.Lock()
	next, parked := r.nextSeq, len(r.pending)
	r.mu.Unlock()
	if next != total || parked != 0 {
		t.Errorf("release cursor=%d parked=%d, want %d/0", next, parked, total)
	}
}

func TestWindowedCommitSeqOrdering(t *testing.T) {
	// Unit test of the release machine: out-of-order commits park, the
	// cursor releases runs, duplicates drop.
	r := &Receiver{
		m:       newReceiverMetrics(metrics.New()),
		pending: make(map[uint64][]byte),
	}
	if got := r.commitSeq(nil, 2, []byte("c")); len(got) != 0 {
		t.Fatalf("seq 2 before 0: released %q", got)
	}
	if got := r.commitSeq(nil, 1, []byte("b")); len(got) != 0 {
		t.Fatalf("seq 1 before 0: released %q", got)
	}
	got := r.commitSeq(nil, 0, []byte("a"))
	want := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	if len(got) != len(want) {
		t.Fatalf("released %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("release[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	// Duplicates: below the cursor, and double-parked.
	if got := r.commitSeq(nil, 1, []byte("b")); len(got) != 0 {
		t.Fatalf("dup below cursor released %q", got)
	}
	if got := r.commitSeq(nil, 5, []byte("f")); len(got) != 0 {
		t.Fatalf("parked seq released %q", got)
	}
	if got := r.commitSeq(nil, 5, []byte("f")); len(got) != 0 {
		t.Fatalf("dup parked seq released %q", got)
	}
	if got := r.m.windowDupDropped.Value(); got != 2 {
		t.Fatalf("rx.window_dup_dropped = %d, want 2", got)
	}
}

func TestWindowedCrashWipesAndResubmitHealsStream(t *testing.T) {
	// A crash^T mid-stream wipes the whole window: pending Sends fail,
	// and byte-identical resubmission reuses the wiped seqs so the
	// receiver releases every payload exactly once with no holes.
	const k, total = 4, 24
	reg := metrics.New()
	// Latency keeps transfers in flight long enough for Crash to land on
	// a busy window.
	s, r := newStations(t, k, PipeConfig{LinkModel: LinkModel{Latency: 2 * time.Millisecond}, Seed: 13}, reg)
	ctx := testCtx(t)

	msgs := make([][]byte, total)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("crash-%03d", i))
	}

	got := make(map[string]int)
	recvDone := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			m, err := r.Recv(ctx)
			if err != nil {
				recvDone <- err
				return
			}
			got[string(m)]++
		}
		recvDone <- nil
	}()

	crashFired := make(chan struct{})
	go func() {
		defer close(crashFired)
		time.Sleep(3 * time.Millisecond)
		s.Crash()
	}()

	// First wave: some Sends fail with ErrCrashed; resubmit those until
	// every payload is confirmed.
	pendingMsgs := msgs
	for round := 0; len(pendingMsgs) > 0 && round < 10; round++ {
		var failed [][]byte
		errs := sendAll(ctx, s, pendingMsgs)
		for i, err := range errs {
			switch {
			case err == nil:
			case errors.Is(err, ErrCrashed):
				failed = append(failed, pendingMsgs[i])
			default:
				t.Fatalf("Send %q: %v", pendingMsgs[i], err)
			}
		}
		pendingMsgs = failed
	}
	<-crashFired
	if len(pendingMsgs) > 0 {
		t.Fatalf("%d payloads still unconfirmed after resubmission rounds", len(pendingMsgs))
	}
	if err := <-recvDone; err != nil {
		t.Fatalf("receiver: %v", err)
	}
	for _, m := range msgs {
		if got[string(m)] != 1 {
			t.Errorf("payload %q released %d times, want exactly 1", m, got[string(m)])
		}
	}
	snap := reg.Snapshot()
	if snap.Counters[mTxCrashes] < 1 {
		t.Errorf("tx.crashes = %d, want >= 1", snap.Counters[mTxCrashes])
	}
}

func TestWindowedSendAccounting(t *testing.T) {
	forDepths(t, testSendAccounting)
}

func testSendAccounting(t *testing.T, k int) {
	// tx.send_msgs == tx.oks + tx.abandoned must hold across a crash, at
	// every depth.
	const total = 20
	reg := metrics.New()
	s, r := newStations(t, k, PipeConfig{LinkModel: LinkModel{Latency: 1 * time.Millisecond}, Seed: 14}, reg)
	ctx := testCtx(t)
	go func() {
		for {
			if _, err := r.Recv(ctx); err != nil {
				return
			}
		}
	}()
	msgs := make([][]byte, total)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("acct-%03d", i))
	}
	half := msgs[:total/2]
	for i, err := range sendAll(ctx, s, half) {
		if err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	// Crash with the second half in flight: some abandon.
	done := make(chan []error, 1)
	go func() { done <- sendAll(ctx, s, msgs[total/2:]) }()
	time.Sleep(2 * time.Millisecond)
	s.Crash()
	for _, err := range <-done {
		if err != nil && !errors.Is(err, ErrCrashed) {
			t.Fatalf("unexpected Send error: %v", err)
		}
	}
	snap := reg.Snapshot()
	sends := snap.Counters[mTxSendMsgs]
	oks := snap.Counters[mTxOKs]
	abandoned := snap.Counters[mTxAbandoned]
	if sends != oks+abandoned {
		t.Errorf("tx.send_msgs=%d != tx.oks=%d + tx.abandoned=%d", sends, oks, abandoned)
	}
	if snap.Counters[mTxWindowAdmitted] != sends {
		t.Errorf("tx.window_admitted=%d != tx.send_msgs=%d", snap.Counters[mTxWindowAdmitted], sends)
	}
}

func TestWindowedCancelVsOKNeverLosesDelivery(t *testing.T) {
	forDepths(t, testCancelVsOKNeverLosesDelivery)
}

func testCancelVsOKNeverLosesDelivery(t *testing.T, k int) {
	// The delivered-but-reported-failed race over a live link (the scripted
	// twin is TestCancelVsOKDeliveredWins): when the OK resolves
	// concurrently with a context cancellation, Send must return nil (the
	// transfer completed), never ctx.Err(). Sweep the cancellation across
	// the OK's arrival window.
	reg := metrics.New()
	s, r := newStations(t, k, PipeConfig{Seed: 15}, reg)
	bg := testCtx(t)
	go func() {
		for {
			if _, err := r.Recv(bg); err != nil {
				return
			}
		}
	}()
	delivered := 0
	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithCancel(bg)
		go func() {
			// Race the cancel against the round-trip.
			time.Sleep(time.Duration(i%40) * 10 * time.Microsecond)
			cancel()
		}()
		err := s.Send(ctx, []byte(fmt.Sprintf("race-%03d", i)))
		cancel()
		if err == nil {
			delivered++
			continue
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, ErrCrashed) {
			t.Fatalf("Send %d: unexpected error %v", i, err)
		}
	}
	// The consistency claim is in the metrics: every admission ended as
	// exactly one of OK or abandoned — a drained late-OK counts as OK and
	// was returned as success, not both.
	snap := reg.Snapshot()
	sends := snap.Counters[mTxSendMsgs]
	oks := snap.Counters[mTxOKs]
	abandoned := snap.Counters[mTxAbandoned]
	if sends != oks+abandoned {
		t.Errorf("tx.send_msgs=%d != tx.oks=%d + tx.abandoned=%d", sends, oks, abandoned)
	}
	if int64(delivered) != oks {
		t.Errorf("Send returned nil %d times but tx.oks=%d — a delivered transfer was reported failed", delivered, oks)
	}
}

func TestWindowedConfigValidation(t *testing.T) {
	a, b := Pipe(PipeConfig{Seed: 16})
	defer a.Close()
	defer b.Close()
	if _, err := NewSender(a, SenderConfig{Window: -1}); err == nil {
		t.Error("negative window accepted")
	}
	if _, err := NewReceiver(b, ReceiverConfig{Window: 1000}); err == nil {
		t.Error("oversized window accepted")
	}
}

// TestWindowedCrashTwinPayloadsEachReclaimSeq pins the wiped-map shape:
// two byte-identical payloads in flight on different slots when the
// crash lands must each keep their own admission seq. A map keyed by
// payload alone overwrites one of them, so one resubmission would mint
// a fresh seq, leave a permanent hole at the receiver's release cursor,
// and stall the stream forever.
func TestWindowedCrashTwinPayloadsEachReclaimSeq(t *testing.T) {
	const k = 2
	reg := metrics.New()
	a, b := Pipe(PipeConfig{Seed: 18})
	ia := Impair(a, ImpairConfig{})
	s, err := NewSender(ia, SenderConfig{Window: k, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := NewReceiver(b, ReceiverConfig{Window: k, RetryInterval: testRetry, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := testCtx(t)

	// Black out the data direction so both admissions stay in flight.
	ia.SetBlackout(true)
	twin := []byte("twin")
	done := make(chan error, k)
	for i := 0; i < k; i++ {
		go func() { done <- s.Send(ctx, twin) }()
	}
	for {
		s.mu.Lock()
		inflight := s.wt.InFlight()
		s.mu.Unlock()
		if inflight == k {
			break
		}
		select {
		case <-ctx.Done():
			t.Fatal("admissions never both in flight")
		case <-time.After(100 * time.Microsecond):
		}
	}
	s.Crash()
	for i := 0; i < k; i++ {
		if err := <-done; !errors.Is(err, ErrCrashed) {
			t.Fatalf("crashed Send returned %v, want ErrCrashed", err)
		}
	}
	s.mu.Lock()
	wipedSeqs := len(s.wiped[string(twin)])
	s.mu.Unlock()
	if wipedSeqs != k {
		t.Fatalf("wiped multiset holds %d seqs for the twin payload, want %d", wipedSeqs, k)
	}

	// Heal the link and resubmit both byte-identical attempts
	// sequentially, in the outbox's admission-order lockstep: each must
	// reclaim one distinct wiped seq, lowest first, so every release
	// arrives before the next attempt is even issued and the cursor
	// sweeps 0..k with no hole.
	ia.SetBlackout(false)
	for i := 0; i < k; i++ {
		if err := s.Send(ctx, twin); err != nil {
			t.Fatalf("resubmit %d: %v", i, err)
		}
		m, err := r.Recv(ctx)
		if err != nil {
			t.Fatalf("Recv %d: %v (release stalled — wiped seq lost or reused out of order)", i, err)
		}
		if !bytes.Equal(m, twin) {
			t.Fatalf("Recv %d = %q, want %q", i, m, twin)
		}
	}
	s.mu.Lock()
	next, leftover := s.nextSeq, len(s.wiped)
	s.mu.Unlock()
	if next != k || leftover != 0 {
		t.Errorf("sender nextSeq=%d, leftover wiped entries=%d, want %d/0 (no fresh seq minted, every wiped seq reclaimed)", next, leftover, k)
	}
	r.mu.Lock()
	cursor, parked := r.nextSeq, len(r.pending)
	r.mu.Unlock()
	if cursor != k || parked != 0 {
		t.Errorf("release cursor=%d parked=%d, want %d/0", cursor, parked, k)
	}
}

// TestWindowedEpochAdoptionAcrossSenderRebuild replays the supervised
// session's restart scenario: a fresh depth-k Sender, whose admission
// seqs restart at zero, attaches to the same link a long-lived Receiver
// is parked on. Without the epoch prefix the receiver's
// release cursor would drop the rebuilt sender's entire seq space as
// duplicates and the stream would wedge forever; a higher epoch must
// instead reset the cursor and let the new stream flow.
func TestWindowedEpochAdoptionAcrossSenderRebuild(t *testing.T) {
	const k, per = 4, 10
	reg := metrics.New()
	a, b := Pipe(PipeConfig{Seed: 17})
	sc := NewSharedConn(a)
	defer sc.Close()
	r, err := NewReceiver(b, ReceiverConfig{Window: k, RetryInterval: testRetry, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := testCtx(t)

	incarnation := func(epoch uint64, prefix string) {
		t.Helper()
		conn, err := sc.Attach()
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSender(conn, SenderConfig{Window: k, Epoch: epoch, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		msgs := make([][]byte, per)
		for i := range msgs {
			msgs[i] = []byte(fmt.Sprintf("%s-%02d", prefix, i))
		}
		for i, err := range sendAll(ctx, s, msgs) {
			if err != nil {
				t.Fatalf("%s Send %d: %v", prefix, i, err)
			}
		}
		got := make(map[string]int, per)
		for i := 0; i < per; i++ {
			m, err := r.Recv(ctx)
			if err != nil {
				t.Fatalf("%s Recv %d: %v", prefix, i, err)
			}
			got[string(m)]++
		}
		for _, m := range msgs {
			if got[string(m)] != 1 {
				t.Errorf("%s payload %q delivered %d times, want 1", prefix, m, got[string(m)])
			}
		}
	}

	incarnation(1, "gen1")
	// The rebuild: epoch 2 reuses seqs 0..per-1, which sit below the
	// receiver's cursor. Only epoch adoption lets these through.
	incarnation(2, "gen2")

	// A straggler from the dead incarnation must not regress the stream:
	// its deliveries are dropped as duplicates, not released.
	conn, err := sc.Attach()
	if err != nil {
		t.Fatal(err)
	}
	stale, err := NewSender(conn, SenderConfig{Window: k, Epoch: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	before := reg.Snapshot().Counters[mRxWindowDupDropped]
	// The protocol round-trip still completes — the receiving station
	// ACKs the transfer — but the seq layer discards the payload.
	if err := stale.Send(ctx, []byte("ghost")); err != nil {
		t.Fatalf("stale Send: %v", err)
	}
	if after := reg.Snapshot().Counters[mRxWindowDupDropped]; after <= before {
		t.Errorf("stale-epoch delivery not counted dropped: rx.window_dup_dropped %d -> %d", before, after)
	}
	r.mu.Lock()
	buffered, parked := len(r.out), len(r.pending)
	r.mu.Unlock()
	if buffered != 0 || parked != 0 {
		t.Errorf("stale-epoch payload leaked: %d buffered, %d parked", buffered, parked)
	}
}

// TestStationWindowZeroLatency is the regression test for the fast-link
// wedge: over a zero-latency pipe one slot's DATA is shed once by a full
// mailbox and waits out its retry interval while the other slots keep
// completing; without the sender's span bound (admitSeq) the receiver's
// parked set grew to its buffer's capacity, the accept gate then shed the
// one packet that would have filled the gap, and no Send ever returned
// (k=2 stopped after some 14 000 messages, k=8 after 9 000). With the
// bound every message is confirmed and released, each sender's in its
// own order, and the parked set stays below the buffer.
func TestStationWindowZeroLatency(t *testing.T) {
	for _, k := range []int{2, 8} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			const total = 20000
			reg := metrics.New()
			s, r := newStations(t, k, PipeConfig{Seed: 1}, reg)
			ctx, cancel := context.WithCancel(testCtx(t))
			defer cancel()

			// Worker w sends w, w+k, w+2k, ...: admission order across workers
			// is the station's business, within one worker it is the caller's.
			var confirmed atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < k; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var msg [8]byte
					for i := w; i < total; i += k {
						binary.BigEndian.PutUint64(msg[:], uint64(i))
						if err := s.Send(ctx, msg[:]); err != nil {
							t.Errorf("Send %d: %v", i, err)
							return
						}
						confirmed.Add(1)
					}
				}()
			}
			// The wedge is a hang, not an error: fail on no progress.
			go func() {
				for last := int64(-1); ; {
					select {
					case <-ctx.Done():
						return
					case <-time.After(3 * time.Second):
					}
					if n := confirmed.Load(); n == last {
						t.Errorf("wedged: %d of %d confirmed, rx.window_pending=%v, no Send returned for 3s",
							n, total, reg.Gauge(mRxWindowPending).Value())
						cancel()
						return
					} else {
						last = n
					}
				}
			}()

			bound := float64(windowReleaseBound(k) - 1)
			next := make([]int, k) // per worker: the index its next release must carry
			for i := range next {
				next[i] = i
			}
			for n := 0; n < total; n++ {
				m, err := r.Recv(ctx)
				if err != nil {
					t.Fatalf("Recv %d: %v", n, err)
				}
				i := int(binary.BigEndian.Uint64(m))
				if w := i % k; i != next[w] {
					t.Fatalf("release %d carries message %d, worker %d's next is %d", n, i, w, next[w])
				} else {
					next[w] += k
				}
				if p := reg.Gauge(mRxWindowPending).Value(); p > bound {
					t.Fatalf("rx.window_pending = %v, above the span bound's %v", p, bound)
				}
			}
			wg.Wait()
			if n := confirmed.Load(); n != total {
				t.Fatalf("%d of %d messages confirmed", n, total)
			}
		})
	}
}

// TestStationSpanBoundHoldsAdmission scripts the span bound (admitSeq):
// with seq 0 unconfirmed on one slot, the other slot may run ahead by
// windowReleaseBound admissions and no further; the Send that would
// exceed it waits without a slot, gives up cleanly when its context ends
// (no crash^T: nothing of it was admitted), and goes through once the
// lowest seq is confirmed.
func TestStationSpanBoundHoldsAdmission(t *testing.T) {
	const k = 2
	conn := newScriptConn()
	reg := metrics.New()
	s, err := NewSender(conn, SenderConfig{Window: k, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer close(conn.release) // first: Close waits for the pump, which sits in conn.Recv
	ctx := testCtx(t)

	// confirm plays the receiver for the Send in flight on slot: a fresh
	// challenge in, the DATA answering it out, its ack in.
	var i uint64
	confirm := func(slot int) {
		t.Helper()
		i++
		rho := bitstr.MustBinary(fmt.Sprintf("1%031b", i))
		conn.feed(t, slotFramed(k, slot, wire.Ctl{Rho: rho, Tau: bitstr.Empty(), I: 2 * i}.Encode()))
		d := sentData(t, k, slot, conn)
		for !d.Rho.Equal(rho) { // skip the eager DATA for the previous ack's challenge
			d = sentData(t, k, slot, conn)
		}
		conn.feed(t, slotFramed(k, slot, wire.Ctl{Rho: rho, Tau: d.Tau, I: 2*i + 1}.Encode()))
	}
	send := func(ctx context.Context, msg string) chan error {
		errc := make(chan error, 1)
		go func() { errc <- s.Send(ctx, []byte(msg)) }()
		return errc
	}

	first := send(ctx, "seq-0") // slot 0, seq 0: stays unconfirmed
	waitCounter(t, reg, mTxSendMsgs, 1)
	span := windowReleaseBound(k)
	for n := 1; n < span; n++ { // seqs 1..span-1 on slot 1: all inside the span
		errc := send(ctx, fmt.Sprintf("seq-%d", n))
		waitCounter(t, reg, mTxSendMsgs, int64(n+1))
		confirm(1)
		if err := <-errc; err != nil {
			t.Fatalf("Send %d: %v", n, err)
		}
	}

	// seq span would be span ahead of seq 0: held.
	heldCtx, cancel := context.WithCancel(ctx)
	held := send(heldCtx, "held")
	time.Sleep(20 * time.Millisecond)
	if got := reg.Counter(mTxSendMsgs).Value(); got != int64(span) {
		t.Fatalf("tx.send_msgs = %d: a Send was admitted %d seqs ahead of the lowest unconfirmed one", got, span)
	}
	cancel()
	if err := <-held; !errors.Is(err, context.Canceled) {
		t.Fatalf("held Send = %v, want context.Canceled", err)
	}
	if got := reg.Counter(mTxCrashes).Value(); got != 0 {
		t.Fatalf("tx.crashes = %d: cancelling a Send that was never admitted crashed the station", got)
	}

	// Confirming seq 0 moves the span: the next Send goes through.
	held = send(ctx, "held")
	time.Sleep(5 * time.Millisecond)
	confirm(0)
	if err := <-first; err != nil {
		t.Fatalf("Send seq-0: %v", err)
	}
	waitCounter(t, reg, mTxSendMsgs, int64(span+1))
	confirm(1)
	if err := <-held; err != nil {
		t.Fatalf("held Send after the span moved: %v", err)
	}
}
