package core

import (
	"bytes"
	"encoding/hex"
	"testing"

	"ghm/internal/bitstr"
	"ghm/internal/testutil"
)

func seeded(seed int64) Params {
	return Params{Epsilon: 1.0 / (1 << 40), Source: bitstr.NewSeededSource(seed)}
}

// TestGoldenPackets pins the wire format byte for byte: the packets of one
// fixed-seed exchange, single-slot and windowed, recorded before the
// machines wrote into caller-supplied buffers and the strings moved
// inline. The append forms and the wrappers must both reproduce them.
func TestGoldenPackets(t *testing.T) {
	want := []string{
		"ctl 022dce56971cde30010001",
		"data 010e676f6c64656e206d6573736167652dce56971cde302de0ae0144f610",
		"deliver golden message",
		"ctl 022d421efc0b10402de0ae0144f61001",
		"ok",
		"data 01067365636f6e642d421efc0b10402db3f64732d0c0",
	}
	run := func(name string, sendMsg func(m []byte) []byte, retry func() []byte,
		toTx func(p []byte) ([]byte, bool), toRx func(p []byte) ([]byte, []byte, bool)) {
		var got []string
		if p := sendMsg([]byte("golden message")); len(p) != 0 {
			t.Fatalf("%s: a transmitter with no challenge yet sent %x", name, p)
		}
		ctl := retry()
		got = append(got, "ctl "+hex.EncodeToString(ctl))
		data, _ := toTx(ctl)
		got = append(got, "data "+hex.EncodeToString(data))
		ack, msg, delivered := toRx(data)
		if delivered {
			got = append(got, "deliver "+string(msg))
		}
		got = append(got, "ctl "+hex.EncodeToString(ack))
		if _, ok := toTx(ack); ok {
			got = append(got, "ok")
		}
		got = append(got, "data "+hex.EncodeToString(sendMsg([]byte("second"))))
		if len(got) != len(want) {
			t.Fatalf("%s: exchange was %q, want %q", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: step %d = %q, want %q", name, i, got[i], want[i])
			}
		}
	}

	tx, _ := NewTransmitter(seeded(1))
	rx, _ := NewReceiver(seeded(2))
	one := func(pkts [][]byte) []byte {
		if len(pkts) > 1 {
			t.Fatalf("one event emitted %d packets", len(pkts))
		}
		if len(pkts) == 0 {
			return nil
		}
		return pkts[0]
	}
	run("wrappers",
		func(m []byte) []byte {
			out, err := tx.SendMsg(m)
			if err != nil {
				t.Fatal(err)
			}
			return one(out.Packets)
		},
		func() []byte { return one(rx.Retry().Packets) },
		func(p []byte) ([]byte, bool) { out := tx.ReceivePacket(p); return one(out.Packets), out.OK },
		func(p []byte) ([]byte, []byte, bool) {
			out := rx.ReceivePacket(p)
			return one(out.Packets), one(out.Delivered), len(out.Delivered) == 1
		})

	// The append forms write behind whatever dst already holds.
	tx, _ = NewTransmitter(seeded(1))
	rx, _ = NewReceiver(seeded(2))
	head := []byte("head")
	tail := func(out []byte) []byte {
		if !bytes.HasPrefix(out, head) {
			t.Fatalf("append form clobbered dst: %q", out)
		}
		return out[len(head):]
	}
	run("append forms",
		func(m []byte) []byte {
			out, err := tx.AppendSendMsg(head, m)
			if err != nil {
				t.Fatal(err)
			}
			return tail(out)
		},
		func() []byte { return tail(rx.AppendRetry(head)) },
		func(p []byte) ([]byte, bool) { out, ok := tx.AppendReceivePacket(head, p); return tail(out), ok },
		func(p []byte) ([]byte, []byte, bool) {
			out, msg, delivered := rx.AppendReceivePacket(head, p)
			return tail(out), msg, delivered
		})
}

func TestGoldenWindowedPackets(t *testing.T) {
	wt, _ := NewWindowedTransmitter(4, seeded(3))
	wr, _ := NewWindowedReceiver(4, seeded(4))
	if out, err := wt.SendMsg(2, []byte("slot two")); err != nil || len(out.Packets) != 0 {
		t.Fatalf("SendMsg: %v, %d packets", err, len(out.Packets))
	}
	wantRetry := []string{
		"00022dca8a33e272e0010001", "01022d30b0984b6ac0010001",
		"02022d5f847b8efc18010001", "03022d9ef8f3260ce8010001",
	}
	retry := wr.Retry().Packets
	if len(retry) != len(wantRetry) {
		t.Fatalf("Retry emitted %d packets, want %d", len(retry), len(wantRetry))
	}
	for i, p := range retry {
		if got := hex.EncodeToString(p); got != wantRetry[i] {
			t.Errorf("retry CTL %d = %s, want %s", i, got, wantRetry[i])
		}
	}
	data, okSlot, _ := wt.AppendReceivePacket(nil, retry[2])
	if got, want := hex.EncodeToString(data), "020108736c6f742074776f2d5f847b8efc182df6c780edf208"; got != want || okSlot != -1 {
		t.Fatalf("slot 2 DATA = %s (ok slot %d), want %s", got, okSlot, want)
	}
	ack, d, delivered := wr.AppendReceivePacket(nil, data)
	if !delivered || d.Slot != 2 || string(d.Msg) != "slot two" {
		t.Fatalf("delivery = %v slot %d %q", delivered, d.Slot, d.Msg)
	}
	if got, want := hex.EncodeToString(ack), "02022db9ca78a318382df6c780edf20801"; got != want {
		t.Fatalf("slot 2 ack = %s, want %s", got, want)
	}
	if out := wt.ReceivePacket(ack); len(out.OKs) != 1 || out.OKs[0] != 2 || len(out.Packets) != 0 {
		t.Fatalf("ack gave %+v, want OK on slot 2", out)
	}
}

// TestAppendHandshakeDoesNotAllocate is the budget the stations build on:
// a fault-free handshake through the append forms, with buffers that have
// reached packet size, allocates nothing — not for the strings, the
// packets, the decode, or the transmitter's copy of the message.
func TestAppendHandshakeDoesNotAllocate(t *testing.T) {
	tx, _ := NewTransmitter(seeded(5))
	rx, _ := NewReceiver(seeded(6))
	msg := bytes.Repeat([]byte("m"), 64)
	var data, ctl []byte
	handshake := func() {
		var err error
		if data, err = tx.AppendSendMsg(data[:0], msg); err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 { // no challenge known yet: wait for a RETRY
			ctl = rx.AppendRetry(ctl[:0])
			data, _ = tx.AppendReceivePacket(data[:0], ctl)
		}
		var body []byte
		var delivered, ok bool
		if ctl, body, delivered = rx.AppendReceivePacket(ctl[:0], data); !delivered || !bytes.Equal(body, msg) {
			t.Fatalf("delivered = %v, body %q", delivered, body)
		}
		if data, ok = tx.AppendReceivePacket(data[:0], ctl); !ok || len(data) != 0 {
			t.Fatalf("ok = %v, %d bytes emitted", ok, len(data))
		}
	}
	handshake() // grows the buffers
	if got := testing.AllocsPerRun(200, handshake); got != 0 {
		t.Errorf("append-form handshake: %v allocs, want 0", got)
	}

	// The wrappers pay exactly for what they hand out: two packets, the
	// delivered copy, the DATA packet's slice header and the one header
	// the delivery shares with its ack.
	if testutil.RaceEnabled {
		return
	}
	wrapped := func() {
		out, err := tx.SendMsg(msg)
		if err != nil || len(out.Packets) != 1 {
			t.Fatalf("SendMsg: %v, %d packets", err, len(out.Packets))
		}
		rout := rx.ReceivePacket(out.Packets[0])
		if len(rout.Delivered) != 1 || len(rout.Packets) != 1 || !tx.ReceivePacket(rout.Packets[0]).OK {
			t.Fatalf("wrapped handshake did not complete")
		}
	}
	if got := testing.AllocsPerRun(200, wrapped); got > 5 {
		t.Errorf("wrapper handshake: %v allocs, budget 5", got)
	}
}

// TestTransmitterMessageBuffer checks what the transmitter keeps between
// messages: a small buffer is reused, a large one is given back at OK, and
// a crash keeps nothing.
func TestTransmitterMessageBuffer(t *testing.T) {
	tx, rx := newPair(t, 11)
	handshake(t, tx, rx, make([]byte, 100))
	if tx.msg == nil || len(tx.msg) != 0 || cap(tx.msg) < 100 {
		t.Errorf("after a small message: len %d cap %d, want an empty reusable buffer", len(tx.msg), cap(tx.msg))
	}
	handshake(t, tx, rx, make([]byte, maxKeptMsg+1))
	if tx.msg != nil {
		t.Errorf("after a %d-byte message the transmitter kept %d bytes", maxKeptMsg+1, cap(tx.msg))
	}
	if _, err := tx.SendMsg([]byte("wiped")); err != nil {
		t.Fatal(err)
	}
	tx.Crash()
	if tx.msg != nil {
		t.Error("crash^T left the message in memory")
	}
}
