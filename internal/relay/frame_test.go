package relay

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"ghm/internal/netlink"
)

func TestFrameRoundTrip(t *testing.T) {
	in := frame{
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
	if out.ID != in.ID || out.Attempt != in.Attempt || out.src() != 0 || out.dst() != 4 {
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

// TestFrameEmptyPayloadAndRoute: a data frame may carry nothing, but a
// frame's route names both its endpoints, so one of fewer than two nodes
// is refused.
func TestFrameEmptyPayloadAndRoute(t *testing.T) {
	out, err := parseFrame(appendFrame(nil, frame{ID: 9, Attempt: 1, Route: []byte{1, 0}}))
	if err != nil || len(out.Payload) != 0 || out.src() != 1 || out.dst() != 0 {
		t.Fatalf("empty data frame parses to %+v, %v", out, err)
	}
	for _, route := range [][]byte{nil, {4}} {
		if _, err := parseFrame(appendFrame(nil, frame{ID: 9, Attempt: 1, Route: route})); !errors.Is(err, errFrameRoute) {
			t.Errorf("data frame over route % x: %v, want %v", route, err, errFrameRoute)
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
		{[]byte{42, 0, 1, 1, 1, 0}, errFrameKind},
		{[]byte{4, 2, 4, 0, 9}, errFrameKind}, // the ack frames kind 4 was
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
	f := frame{ID: 7, Attempt: 1, Route: []byte{0, 2, 4}}
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

// TestAckEncoding: appendState writes the ledger's watermark and its
// bitmap, trimmed of trailing zero bytes and cut at netlink.MaxTrailer, and
// parseState reads back exactly that.
func TestAckEncoding(t *testing.T) {
	led := idLedger{low: 1 << 40}
	for _, id := range []uint64{1<<40 + 2, 1<<40 + 9, 1<<40 + 200} {
		led.add(id)
	}
	led.add(1<<40 + 200) // a duplicate changes nothing
	bitmap := make([]byte, 25)
	bitmap[0], bitmap[1], bitmap[24] = 0b10, 0b1, 0b10000000
	want := append(binary.AppendUvarint(nil, 1<<40), bitmap...)
	if got := appendState(nil, led.low, led.bits); !bytes.Equal(got, want) {
		t.Errorf("appendState = % x, want % x", got, want)
	}
	if low, set, ok := parseState(want); !ok || low != 1<<40 || !bytes.Equal(set, bitmap) {
		t.Errorf("parseState = %d, % x, %v", low, set, ok)
	}

	// Every other id above a gap: the state stops at netlink.MaxTrailer, and what
	// it carries is the ledger's beginning.
	led = idLedger{low: 5}
	for id := uint64(7); id < 6000; id += 2 {
		led.add(id)
	}
	ack := appendState(nil, led.low, led.bits)
	low, set, ok := parseState(ack)
	if !ok || len(ack) != netlink.MaxTrailer || low != 5 {
		t.Fatalf("a full ledger's state is %d bytes (%v), low %d; want %d bytes, low 5", len(ack), ok, low, netlink.MaxTrailer)
	}
	last := low + uint64(8*len(set))
	for id := uint64(0); id <= last; id++ {
		if covers(low, set, id) != (id < 5 || id%2 == 1 && id > 5) {
			t.Fatalf("the capped state says %v of id %d", covers(low, set, id), id)
		}
	}
}

// covers reports whether the state (low, set) acks id.
func covers(low uint64, set []byte, id uint64) bool {
	if id < low {
		return true
	}
	if id == low {
		return false
	}
	i := id - low - 1
	return i < uint64(8*len(set)) && set[i/8]&(1<<(i%8)) != 0
}

// TestIDLedger: the ledger answers exactly as a set of every id would,
// under delivery orders drawn from several seeds — out of order,
// duplicated, stragglers from far back — and is always the smallest
// description of that set: its watermark is the least id not in it, its
// bitmap ends in the highest id above that, and an ack of it covers
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
			aLow, aSet, ok := parseState(appendState(nil, led.low, led.bits))
			if !ok {
				t.Fatal("the ledger's state does not parse")
			}
			for id := low; id < high+8; id++ {
				if covers(aLow, aSet, id) != seen[id] {
					t.Fatalf("seed %d: the ack says %v of id %d, the set %v", seed, covers(aLow, aSet, id), id, seen[id])
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
