package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func newWindowPair(t *testing.T, k int, seed int64) (*WindowedTransmitter, *WindowedReceiver) {
	t.Helper()
	wt, err := NewWindowedTransmitter(k, testParams(seed))
	if err != nil {
		t.Fatalf("NewWindowedTransmitter: %v", err)
	}
	wr, err := NewWindowedReceiver(k, testParams(seed+1000))
	if err != nil {
		t.Fatalf("NewWindowedReceiver: %v", err)
	}
	return wt, wr
}

// pump drives the pair over a perfect channel until no slot is busy or
// rounds run out, returning every delivery in arrival order.
func winPump(t *testing.T, wt *WindowedTransmitter, wr *WindowedReceiver, rounds int) []SlotMsg {
	t.Helper()
	var delivered []SlotMsg
	feedTx := func(out WinTxOutput) {
		for _, dp := range out.Packets {
			rout := wr.ReceivePacket(dp)
			delivered = append(delivered, rout.Delivered...)
			for _, cp := range rout.Packets {
				wt.ReceivePacket(cp)
			}
		}
	}
	for r := 0; r < rounds && wt.InFlight() > 0; r++ {
		rout := wr.Retry()
		delivered = append(delivered, rout.Delivered...)
		for _, cp := range rout.Packets {
			feedTx(wt.ReceivePacket(cp))
		}
	}
	return delivered
}

func TestWindowFaultFreeFull(t *testing.T) {
	const k = 8
	wt, wr := newWindowPair(t, k, 1)
	want := make(map[int][]byte)
	for i := 0; i < k; i++ {
		msg := []byte(fmt.Sprintf("win-%02d", i))
		out, err := wt.SendMsg(i, msg)
		if err != nil {
			t.Fatalf("SendMsg slot %d: %v", i, err)
		}
		// Fresh transmitter has no challenge yet: no eager DATA expected.
		if len(out.Packets) != 0 {
			t.Fatalf("slot %d: unexpected eager packets before first challenge", i)
		}
		want[i] = msg
	}
	if got := wt.InFlight(); got != k {
		t.Fatalf("InFlight=%d, want %d", got, k)
	}
	if _, err := wt.SendMsg(-1, []byte("extra")); !errors.Is(err, ErrWindowFull) {
		t.Fatalf("SendMsg on full window: err=%v, want ErrWindowFull", err)
	}
	if _, err := wt.SendMsg(3, []byte("extra")); !errors.Is(err, ErrBusy) {
		t.Fatalf("SendMsg on busy slot: err=%v, want ErrBusy", err)
	}

	delivered := winPump(t, wt, wr, 8)
	if len(delivered) != k {
		t.Fatalf("delivered %d messages, want %d", len(delivered), k)
	}
	seen := make(map[int]bool)
	for _, d := range delivered {
		if seen[d.Slot] {
			t.Fatalf("slot %d delivered twice", d.Slot)
		}
		seen[d.Slot] = true
		if !bytes.Equal(d.Msg, want[d.Slot]) {
			t.Fatalf("slot %d delivered %q, want %q", d.Slot, d.Msg, want[d.Slot])
		}
	}
	if wt.InFlight() != 0 {
		t.Errorf("InFlight=%d after completion, want 0", wt.InFlight())
	}
	if wt.Completed() != k || wr.Delivered() != k {
		t.Errorf("Completed=%d Delivered=%d, want %d/%d", wt.Completed(), wr.Delivered(), k, k)
	}
}

func TestWindowSlotsIndependent(t *testing.T) {
	// A busy slot must not block admissions or completions on others.
	wt, wr := newWindowPair(t, 4, 2)
	if _, err := wt.SendMsg(2, []byte("only")); err != nil {
		t.Fatalf("SendMsg: %v", err)
	}
	if free := wt.FreeSlot(); free != 0 {
		t.Fatalf("FreeSlot=%d, want 0", free)
	}
	delivered := winPump(t, wt, wr, 8)
	if len(delivered) != 1 || delivered[0].Slot != 2 || !bytes.Equal(delivered[0].Msg, []byte("only")) {
		t.Fatalf("delivered %v, want [{2 only}]", delivered)
	}
	if wt.SlotBusy(2) {
		t.Error("slot 2 still busy after OK")
	}
}

func TestWindowCrashWipesAllSlots(t *testing.T) {
	const k = 4
	wt, wr := newWindowPair(t, k, 3)
	for i := 0; i < k; i++ {
		if _, err := wt.SendMsg(i, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatalf("SendMsg: %v", err)
		}
	}
	wt.Crash()
	if got := wt.InFlight(); got != 0 {
		t.Fatalf("InFlight=%d after crash^T, want 0 (shared crash model)", got)
	}
	for i := 0; i < k; i++ {
		if wt.SlotBusy(i) {
			t.Errorf("slot %d busy after crash^T", i)
		}
	}
	// Every slot accepts a fresh message post-crash and completes it.
	for i := 0; i < k; i++ {
		if _, err := wt.SendMsg(i, []byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatalf("post-crash SendMsg slot %d: %v", i, err)
		}
	}
	delivered := winPump(t, wt, wr, 8)
	if len(delivered) != k {
		t.Fatalf("delivered %d post-crash messages, want %d", len(delivered), k)
	}
}

func TestWindowOutOfWindowSlotIgnored(t *testing.T) {
	wt, wr := newWindowPair(t, 2, 4)
	// A frame naming slot 5 in a 2-slot window must be dropped, counted,
	// and change nothing.
	bogus := append(slotFrame(5, 8), 0x01, 0x02)
	if out := wt.ReceivePacket(bogus); len(out.Packets) != 0 || len(out.OKs) != 0 {
		t.Fatalf("transmitter acted on out-of-window frame: %+v", out)
	}
	if out := wr.ReceivePacket(bogus); len(out.Packets) != 0 || len(out.Delivered) != 0 {
		t.Fatalf("receiver acted on out-of-window frame: %+v", out)
	}
	if out := wt.ReceivePacket(nil); len(out.Packets) != 0 {
		t.Fatalf("transmitter acted on empty frame: %+v", out)
	}
	if wt.Stats().Ignored == 0 || wr.Stats().Ignored == 0 {
		t.Errorf("Ignored not counted: tx=%d rx=%d", wt.Stats().Ignored, wr.Stats().Ignored)
	}
}

func TestWindowReceiverCrashRedelivery(t *testing.T) {
	// crash^R wipes every slot's challenge; in-flight messages must still
	// complete afterwards (the transmitter re-answers fresh challenges).
	const k = 3
	wt, wr := newWindowPair(t, k, 5)
	for i := 0; i < k; i++ {
		if _, err := wt.SendMsg(i, []byte(fmt.Sprintf("c%d", i))); err != nil {
			t.Fatalf("SendMsg: %v", err)
		}
	}
	// One retry round to get challenges out and DATA flowing, then crash R
	// before acks land.
	for _, cp := range wr.Retry().Packets {
		wt.ReceivePacket(cp) // DATA replies are dropped on the floor
	}
	wr.Crash()
	delivered := winPump(t, wt, wr, 8)
	if len(delivered) != k {
		t.Fatalf("delivered %d after crash^R, want %d", len(delivered), k)
	}
	if wt.InFlight() != 0 {
		t.Errorf("InFlight=%d, want 0", wt.InFlight())
	}
}

func TestWindowDepthValidation(t *testing.T) {
	for _, k := range []int{0, -1, MaxWindow + 1} {
		if _, err := NewWindowedTransmitter(k, testParams(1)); err == nil {
			t.Errorf("NewWindowedTransmitter(%d): want error", k)
		}
		if _, err := NewWindowedReceiver(k, testParams(1)); err == nil {
			t.Errorf("NewWindowedReceiver(%d): want error", k)
		}
	}
	if _, err := NewWindowedTransmitter(MaxWindow, testParams(1)); err != nil {
		t.Errorf("NewWindowedTransmitter(MaxWindow): %v", err)
	}
}

func TestWindowSoakManyMessages(t *testing.T) {
	// Stream 200 messages through an 8-deep window, reusing slots as they
	// free, with a crash^T in the middle.
	const k, total = 8, 200
	wt, wr := newWindowPair(t, k, 6)
	sent, crashed := 0, false
	for sent < total {
		for wt.InFlight() < k && sent < total {
			slot := wt.FreeSlot()
			if _, err := wt.SendMsg(slot, []byte(fmt.Sprintf("soak-%03d", sent))); err != nil {
				t.Fatalf("SendMsg %d: %v", sent, err)
			}
			sent++
		}
		if !crashed && sent >= total/2 {
			// Mid-stream station wipe: the whole window's in-flight work is
			// lost; resubmit it, the way the runtime layer would.
			crashed = true
			sent -= wt.InFlight()
			wt.Crash()
		}
		winPump(t, wt, wr, 4)
	}
	winPump(t, wt, wr, 8)
	if wt.InFlight() != 0 {
		t.Fatalf("InFlight=%d at end, want 0", wt.InFlight())
	}
	// Post-crash incarnation alone carries at least the second half.
	if got := wt.Completed(); got < total/2 {
		t.Errorf("Completed=%d, want >= %d", got, total/2)
	}
}

// TestWindowDepthOneIsThePaperFormat pins the Framed rule: a window of
// one slot writes no slot id, so with the same coin tosses its packets
// are byte for byte a plain Transmitter's and Receiver's — and a packet
// that happens to start with a byte no slot id could be is still slot
// 0's.
func TestWindowDepthOneIsThePaperFormat(t *testing.T) {
	tx, rx := newPair(t, 21)
	wt, err := NewWindowedTransmitter(1, testParams(21))
	if err != nil {
		t.Fatal(err)
	}
	wr, err := NewWindowedReceiver(1, testParams(21+1000))
	if err != nil {
		t.Fatal(err)
	}
	same := func(step string, plain, windowed [][]byte) []byte {
		t.Helper()
		if len(plain) != 1 || len(windowed) != 1 || !bytes.Equal(plain[0], windowed[0]) {
			t.Fatalf("%s: plain %x, depth-1 window %x", step, plain, windowed)
		}
		return plain[0]
	}
	for i := 0; i < 3; i++ {
		msg := []byte(fmt.Sprintf("paper-%d", i))
		if _, err := tx.SendMsg(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := wt.SendMsg(0, msg); err != nil {
			t.Fatal(err)
		}
		ctl := same("RETRY", rx.Retry().Packets, wr.Retry().Packets)
		data := same("DATA", tx.ReceivePacket(ctl).Packets, wt.ReceivePacket(ctl).Packets)
		pout, wout := rx.ReceivePacket(data), wr.ReceivePacket(data)
		ack := same("ack", pout.Packets, wout.Packets)
		if len(wout.Delivered) != 1 || wout.Delivered[0].Slot != 0 || !bytes.Equal(wout.Delivered[0].Msg, msg) {
			t.Fatalf("depth-1 window delivered %+v, want %q on slot 0", wout.Delivered, msg)
		}
		if out := wt.ReceivePacket(ack); len(out.OKs) != 1 || out.OKs[0] != 0 || !tx.ReceivePacket(ack).OK {
			t.Fatalf("ack did not complete message %d", i)
		}
	}
	if wt.Stats() != tx.Stats() || wr.Stats() != rx.Stats() {
		t.Errorf("counters differ: tx %+v vs %+v, rx %+v vs %+v", wt.Stats(), tx.Stats(), wr.Stats(), rx.Stats())
	}
}

// TestWindowAppendRetryBatch checks the batch form against the slots'
// own RETRY: same packets, in slot order, sliced out of the one buffer
// the call returns — including when that buffer had to grow.
func TestWindowAppendRetryBatch(t *testing.T) {
	const k = 4
	_, a := newWindowPair(t, k, 31)
	_, b := newWindowPair(t, k, 31)
	want := a.Retry().Packets
	head := []byte("head")
	buf, pkts := b.AppendRetry(head[:len(head):len(head)], nil, ^uint64(0))
	if len(pkts) != k || len(want) != k {
		t.Fatalf("batch of %d, Retry of %d, want %d", len(pkts), len(want), k)
	}
	at := len(head)
	for i, p := range pkts {
		if !bytes.Equal(p, want[i]) {
			t.Errorf("slot %d: batch %x, Retry %x", i, p, want[i])
		}
		if !bytes.Equal(buf[at:at+len(p)], p) || &buf[at] != &p[0] {
			t.Errorf("slot %d's packet is not buf[%d:%d]", i, at, at+len(p))
		}
		at += len(p)
	}
	if at != len(buf) || !bytes.Equal(buf[:len(head)], head) {
		t.Errorf("buffer is %d bytes, packets end at %d; head %q", len(buf), at, buf[:len(head)])
	}

	// A set of slots fires those slots and no other: the rest keep their
	// retry counters, so their next CTL is the one they would have sent.
	a.AppendRetry(nil, nil, 0) // nobody
	_, some := a.AppendRetry(nil, nil, 1<<1|1<<3|1<<k|1<<63)
	_, all := b.AppendRetry(nil, nil, ^uint64(0))
	if len(some) != 2 || !bytes.Equal(some[0], all[1]) || !bytes.Equal(some[1], all[3]) {
		t.Fatalf("slots {1, 3} fired %x, want %x and %x", some, all[1], all[3])
	}
	if got := a.Retry().Packets; !bytes.Equal(got[0], all[0]) || !bytes.Equal(got[2], all[2]) {
		t.Errorf("slots 0 and 2 did not fire, yet send %x and %x, want %x and %x", got[0], got[2], all[0], all[2])
	}
}
