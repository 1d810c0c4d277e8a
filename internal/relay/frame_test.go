package relay

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	in := frame{
		Kind:    frameData,
		Src:     0,
		Dst:     4,
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
	if out.Kind != in.Kind || out.Src != in.Src || out.Dst != in.Dst ||
		out.ID != in.ID || out.Attempt != in.Attempt {
		t.Fatalf("header mismatch: %+v vs %+v", out, in)
	}
	if !bytes.Equal(out.Route, in.Route) || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("route/payload mismatch: %+v vs %+v", out, in)
	}
}

func TestFrameEmptyPayloadAndRoute(t *testing.T) {
	enc := appendFrame(nil, frame{Kind: frameAck, Src: 1, Dst: 0, ID: 9})
	out, err := parseFrame(enc)
	if err != nil {
		t.Fatalf("parseFrame: %v", err)
	}
	if len(out.Route) != 0 || len(out.Payload) != 0 {
		t.Fatalf("expected empty route and payload, got %+v", out)
	}
}

func TestFrameParseErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{frameData},
		{frameData, 0, 1},          // missing id
		{42, 0, 1, 1, 1, 0},        // unknown kind
		{frameData, 0, 1, 1, 1, 5}, // route length overruns
		{frameData, 0, 1, 0x80},    // truncated uvarint id
		{frameData, 0, 1, 1, 0x80}, // truncated uvarint attempt
	}
	for i, c := range cases {
		if _, err := parseFrame(c); err == nil {
			t.Errorf("case %d: expected error for % x", i, c)
		}
	}
}

func TestFrameKeys(t *testing.T) {
	f := frame{Kind: frameData, Src: 0, Dst: 4, ID: 7, Attempt: 1}
	resub := f // same attempt redelivered by a hop: same key
	if f.key() != resub.key() {
		t.Fatal("identical frames must share a hop key")
	}
	redispatch := f
	redispatch.Attempt = 2 // deliberate re-dispatch: new hop key, same end-to-end id
	if f.key() == redispatch.key() {
		t.Fatal("a re-dispatch must get a fresh hop key")
	}
	var led idLedger
	if !led.add(f.ID) || led.add(redispatch.ID) {
		t.Fatal("re-dispatch must keep the end-to-end identity")
	}
	ack := f
	ack.Kind = frameAck // acks dedup separately from data
	if f.key() == ack.key() {
		t.Fatal("ack and data frames must not share a hop key")
	}
}

// TestAckEncoding: appendAck is appendFrame of the ack a copy-and-reverse
// of the route it is given would have built — the payload's own route or
// another one — and prevHop is nextHop on that reversed route.
func TestAckEncoding(t *testing.T) {
	f := frame{Kind: frameData, Src: 0, Dst: 4, ID: 1 << 40, Attempt: 3, Route: []byte{0, 2, 3, 4}, Payload: []byte("payload")}
	for _, c := range []struct{ route, rev []byte }{
		{f.Route, []byte{4, 3, 2, 0}},
		{[]byte{0, 1, 4}, []byte{4, 1, 0}},
	} {
		want := appendFrame(nil, frame{Kind: frameAck, Src: 4, Dst: 0, ID: f.ID, Attempt: 3, Route: c.rev})
		if got := appendAck(nil, f, c.route); !bytes.Equal(got, want) {
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
}

// TestIDLedger: the watermark ledger answers exactly as a set of every id
// would, under out-of-order and duplicate arrival, and holds only what is
// ahead of the gap.
func TestIDLedger(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var led idLedger
	seen := make(map[uint64]bool)
	const n = 20000
	for base := uint64(0); base < n; base += 50 {
		// Fifty ids arrive shuffled, each up to three times, and with them
		// stragglers from anywhere earlier.
		var batch []uint64
		for id := base; id < base+50; id++ {
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
				t.Fatalf("add(%d) = %v, a full set says %v", id, got, want)
			}
			seen[id] = true
			if len(led.above) >= 50 {
				t.Fatalf("ledger holds %d ids above the watermark %d with at most 50 outstanding", len(led.above), led.low)
			}
		}
	}
	if led.low != n || len(led.above) != 0 {
		t.Errorf("after %d ids: watermark %d, %d above it", n, led.low, len(led.above))
	}
}
