package relay

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	in := frame{
		Kind:    frameData,
		ID:      1<<40 + 17,
		Attempt: 3,
		Route:   []byte{0, 2, 4},
		Payload: []byte("relay payload"),
	}
	enc := appendFrame(nil, in)
	out, err := parseFrame(enc)
	if err != nil {
		t.Fatalf("parseFrame: %v", err)
	}
	if out.Kind != in.Kind || out.ID != in.ID || out.Attempt != in.Attempt || out.src() != 0 || out.dst() != 4 {
		t.Fatalf("header mismatch: %+v vs %+v", out, in)
	}
	if !bytes.Equal(out.Route, in.Route) || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("route/payload mismatch: %+v vs %+v", out, in)
	}
	// The endpoints are the route's: a data frame spends no byte on them.
	if want := 1 + 6 + 1 + 1 + 3 + len(in.Payload); len(enc) != want {
		t.Errorf("data frame is %d bytes, want %d", len(enc), want)
	}
}

// TestFrameEmptyPayloadAndRoute: a data frame may carry nothing and an ack
// may set no bit, but a frame's route names both its endpoints, so one of
// fewer than two nodes is refused.
func TestFrameEmptyPayloadAndRoute(t *testing.T) {
	out, err := parseFrame(appendFrame(nil, frame{ID: 9, Attempt: 1, Route: []byte{1, 0}}))
	if err != nil || len(out.Payload) != 0 || out.src() != 1 || out.dst() != 0 {
		t.Fatalf("empty data frame parses to %+v, %v", out, err)
	}
	out, err = parseFrame(appendAck(nil, []byte{0, 1}, &idLedger{low: 9}))
	if err != nil || out.Kind != frameAck || out.Low != 9 || len(out.Bits) != 0 || out.src() != 1 || out.dst() != 0 {
		t.Fatalf("an ack with no bits parses to %+v, %v", out, err)
	}
	for _, route := range [][]byte{nil, {4}} {
		if _, err := parseFrame(appendFrame(nil, frame{ID: 9, Attempt: 1, Route: route})); !errors.Is(err, errFrameRoute) {
			t.Errorf("data frame over route % x: %v, want %v", route, err, errFrameRoute)
		}
		if _, err := parseFrame(appendAck(nil, route, &idLedger{low: 9})); !errors.Is(err, errFrameRoute) {
			t.Errorf("ack over route % x: %v, want %v", route, err, errFrameRoute)
		}
	}
}

// oldFrame encodes a frame in the layout kinds 1 (data) and 2 (ack) had:
// endpoints in two bytes of their own, and an ack naming its (id, attempt).
func oldFrame(kind byte, route []byte, id uint64, attempt uint32, payload []byte) []byte {
	b := []byte{kind, route[0], route[len(route)-1]}
	b = binary.AppendUvarint(b, id)
	b = binary.AppendUvarint(b, uint64(attempt))
	b = append(b, byte(len(route)))
	b = append(b, route...)
	return append(b, payload...)
}

func TestFrameParseErrors(t *testing.T) {
	cases := []struct {
		p    []byte
		want error
	}{
		{nil, errFrameShort},
		{[]byte{frameData}, errFrameID},
		{[]byte{frameData, 0x80}, errFrameID},                                 // truncated uvarint id
		{[]byte{frameData, 1}, errFrameAttempt},                               // missing attempt
		{[]byte{frameData, 1, 0x80}, errFrameAttempt},                         // truncated uvarint attempt
		{[]byte{frameData, 1, 0xff, 0xff, 0xff, 0xff, 0x7f}, errFrameAttempt}, // attempt past 32 bits
		{[]byte{frameData, 1, 1}, errFrameRoute},                              // missing route length
		{[]byte{frameData, 1, 1, 5, 0, 1}, errFrameRoute},                     // route length overruns
		{[]byte{frameAck, 2, 4, 0}, errFrameLow},                              // missing watermark
		{[]byte{frameAck, 2, 4, 0, 0x80}, errFrameLow},                        // truncated watermark
		{[]byte{frameAck, 3, 4, 0}, errFrameRoute},                            // route length overruns
		{[]byte{42, 0, 1, 1, 1, 0}, errFrameKind},
		{oldFrame(1, []byte{0, 2, 4}, 5, 1, []byte("payload")), errFrameKind},
		{oldFrame(2, []byte{4, 2, 0}, 5, 1, nil), errFrameKind},
	}
	for i, c := range cases {
		if _, err := parseFrame(c.p); err != c.want {
			t.Errorf("case %d: % x parses with %v, want %v", i, c.p, err, c.want)
		}
	}
}

func TestFrameKeys(t *testing.T) {
	f := frame{Kind: frameData, ID: 7, Attempt: 1, Route: []byte{0, 2, 4}}
	resub := f // same attempt redelivered by a hop: same key
	if f.key() != resub.key() {
		t.Fatal("identical frames must share a hop key")
	}
	redispatch := f
	redispatch.Attempt = 2 // deliberate re-dispatch: new hop key, same end-to-end id
	if f.key() == redispatch.key() {
		t.Fatal("a re-dispatch must get a fresh hop key")
	}
	other := f
	other.Route = []byte{0, 3, 4} // the same attempt over another route: same key
	if f.key() != other.key() {
		t.Fatal("a frame's key must not depend on the relays it passes")
	}
	reversed := f
	reversed.Route = []byte{4, 2, 0} // the endpoints are the route's
	if f.key() == reversed.key() {
		t.Fatal("frames between other endpoints must not share a hop key")
	}
	var led idLedger
	if !led.add(f.ID) || led.add(redispatch.ID) {
		t.Fatal("re-dispatch must keep the end-to-end identity")
	}
	if (key{}) == f.key() {
		t.Fatal("a data frame's key must not be the empty window's")
	}
}

// TestAckEncoding: appendAck writes the ack kind, the route it is given —
// the payload's own or another one — backwards, and the ledger's state,
// its bitmap trimmed of trailing zero bytes and cut at maxAckRun; prevHop
// is nextHop on the reversed route.
func TestAckEncoding(t *testing.T) {
	led := idLedger{low: 1 << 40}
	for _, id := range []uint64{1<<40 + 2, 1<<40 + 9, 1<<40 + 200} {
		led.add(id)
	}
	led.add(1<<40 + 200) // a duplicate changes nothing
	bitmap := make([]byte, 25)
	bitmap[0], bitmap[1], bitmap[24] = 0b10, 0b1, 0b10000000
	for _, c := range []struct{ route, rev []byte }{
		{[]byte{0, 2, 3, 4}, []byte{4, 3, 2, 0}},
		{[]byte{0, 1, 4}, []byte{4, 1, 0}},
	} {
		want := append([]byte{frameAck, byte(len(c.rev))}, c.rev...)
		want = binary.AppendUvarint(want, 1<<40)
		want = append(want, bitmap...)
		if got := appendAck(nil, c.route, &led); !bytes.Equal(got, want) {
			t.Errorf("appendAck over % x = % x, want % x", c.route, got, want)
		}
		for _, self := range []int{4, 3, 2, 1, 0, 9} {
			gotN, gotOK := prevHop(c.route, self)
			wantN, wantOK := nextHop(c.rev, self)
			if gotN != wantN || gotOK != wantOK {
				t.Errorf("prevHop(% x, %d) = %d, %v; nextHop(reversed) = %d, %v", c.route, self, gotN, gotOK, wantN, wantOK)
			}
		}
	}

	// Every other id above a gap: the frame stops at maxAckRun, and what it
	// carries is the ledger's beginning.
	led = idLedger{low: 5}
	for id := uint64(7); id < 6000; id += 2 {
		led.add(id)
	}
	ack := appendAck(nil, []byte{0, 2, 4}, &led)
	f, err := parseFrame(ack)
	if err != nil || len(ack) != maxAckRun || f.Low != 5 {
		t.Fatalf("a full ledger's ack is %d bytes (%v), low %d; want %d bytes, low 5", len(ack), err, f.Low, maxAckRun)
	}
	last := f.Low + uint64(8*len(f.Bits))
	for id := uint64(0); id <= last; id++ {
		if covers(f, id) != (id < 5 || id%2 == 1 && id > 5) {
			t.Fatalf("the capped ack says %v of id %d", covers(f, id), id)
		}
	}
}

// covers reports whether ack frame f acks id.
func covers(f frame, id uint64) bool {
	if id < f.Low {
		return true
	}
	if id == f.Low {
		return false
	}
	i := id - f.Low - 1
	return i < uint64(8*len(f.Bits)) && f.Bits[i/8]&(1<<(i%8)) != 0
}

// TestIDLedger: the ledger answers exactly as a set of every id would,
// under delivery orders drawn from several seeds — out of order,
// duplicated, stragglers from far back — and is always the smallest
// description of that set: its watermark is the least id not in it, its
// bitmap ends in the highest id above that, and an ack frame of it covers
// exactly the set. An id more than ledgerSpan above the watermark is
// neither recorded nor new.
func TestIDLedger(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var led idLedger
		seen := make(map[uint64]bool)
		low, high := uint64(0), uint64(0) // the model's watermark, and one past its highest id
		outstanding := 1 + rng.Intn(300)
		const n = 6000
		for base := uint64(0); base < n; base += uint64(outstanding) {
			// A window of ids arrives shuffled, each up to three times, and
			// with it stragglers from anywhere earlier.
			var batch []uint64
			for id := base; id < base+uint64(outstanding); id++ {
				for c := rng.Intn(3); c >= 0; c-- {
					batch = append(batch, id)
				}
			}
			for i := 0; i < 5 && base > 0; i++ {
				batch = append(batch, uint64(rng.Int63n(int64(base))))
			}
			rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			for _, id := range batch {
				if got, want := led.add(id), !seen[id]; got != want {
					t.Fatalf("seed %d: add(%d) = %v, a full set says %v", seed, id, got, want)
				}
				seen[id] = true
				high = max(high, id+1)
				for seen[low] {
					low++
				}
				if led.low != low {
					t.Fatalf("seed %d: watermark %d, the least id not delivered is %d", seed, led.low, low)
				}
				if want := (high - low + 6) / 8; uint64(len(led.bits)) != want {
					t.Fatalf("seed %d: %d bitmap bytes for ids %d..%d above the watermark, want %d", seed, len(led.bits), low+1, high-1, want)
				}
			}
			f, err := parseFrame(appendAck(nil, []byte{0, 4}, &led))
			if err != nil {
				t.Fatal(err)
			}
			for id := low; id < high+8; id++ {
				if covers(f, id) != seen[id] {
					t.Fatalf("seed %d: the ack says %v of id %d, the set %v", seed, covers(f, id), id, seen[id])
				}
			}
		}
		if led.low != high || high < n || len(led.bits) != 0 {
			t.Errorf("seed %d: after %d ids: watermark %d, %d bitmap bytes", seed, high, led.low, len(led.bits))
		}
		far := led.low + ledgerSpan + 1
		if !led.beyond(far) || led.beyond(far-1) || led.add(far) || len(led.bits) != 0 {
			t.Errorf("seed %d: an id %d above the watermark was recorded", seed, far-led.low)
		}
		if !led.add(far - 1) {
			t.Errorf("seed %d: the id ledgerSpan above the watermark was refused", seed)
		}
	}
}
