package relay

import (
	"bytes"
	"math"
	"testing"

	"ghm/internal/netlink"
)

// frameSeeds are the shapes a hop carries, and near misses of each.
func frameSeeds() [][]byte {
	route := []byte{0, 2, 4}
	data := appendFrame(nil, frame{ID: 300, Attempt: 2, Route: route, Payload: []byte("payload")})
	return [][]byte{
		nil,
		data,
		appendFrame(nil, frame{ID: 1 << 40, Attempt: 1, Route: []byte{0, 4}}),
		data[:4],
		data[:6], // a route cut short
		oldFrame(1, route, 300, 2, []byte("payload")), // the layout kinds 1 and 2 had
		oldFrame(2, []byte{4, 2, 0}, 300, 2, nil),
		append([]byte{4, 3, 4, 2, 0}, stateOf(300)...), // the ack frames kind 4 was
		stateOf(300), // an ack trailer is no frame
		appendFrame(nil, frame{ID: 7, Attempt: 1<<32 - 1, Route: route}),
		appendFrame(nil, frame{ID: 7, Attempt: 1, Route: bytes.Repeat([]byte{1}, maxRouteLen), Payload: []byte("far")}),
		bytes.Repeat([]byte{0xff}, 40),
	}
}

// FuzzParseFrame: arbitrary bytes never panic parseFrame, and a frame it
// rejects costs nothing — the errors are made once, and a rejected frame
// is the cheapest thing a hostile neighbour can send. What it accepts
// lies inside the input: a route of two or more nodes after the header,
// and the payload at the end.
func FuzzParseFrame(f *testing.F) {
	for _, s := range frameSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		fr, err := parseFrame(p)
		if err != nil {
			if n := testing.AllocsPerRun(1, func() { parseFrame(p) }); n != 0 {
				t.Fatalf("rejecting % x (%v) allocates %v times", p, err, n)
			}
			return
		}
		if len(fr.Route) < 2 || len(fr.Route) > maxRouteLen || !bytes.HasSuffix(p, fr.Payload) ||
			!bytes.Contains(p[:len(p)-len(fr.Payload)], fr.Route) {
			t.Fatalf("% x parses to route % x, payload % x: not inside it", p, fr.Route, fr.Payload)
		}
	})
}

// ackSeeds are the ack trailers a CTL carries, and near misses of each.
func ackSeeds() [][]byte {
	lone := stateOf(300)
	state := stateOf(1, 3, 1<<10, 9)
	return [][]byte{
		nil,
		lone,
		state,
		stateOf(9, 11),
		stateOf(0),
		state[:len(state)-1], // a bitmap cut short
		append(bytes.Clone(lone[:len(lone)-1]), 0x80), // a watermark that never ends
		stateOf(1<<40, 1<<40+5, 1<<40+700),            // a wide bitmap
		stateOf(127, 129, 2000),                       // the bitmap cut at netlink.MaxTrailer
		stateOf(math.MaxUint64 - 8),
		append(stateOf(5), make([]byte, 300)...), // past netlink.MaxTrailer
		bytes.Repeat([]byte{0xff}, 40),
	}
}

// FuzzMergeAcks: folding two ack trailers into an empty ledger gives the
// union of the two — never a watermark below either, and exactly the ids
// either covers, up to where the ledger's span ends — which goes out in at
// most netlink.MaxTrailer bytes with no trailing zero byte.
func FuzzMergeAcks(f *testing.F) {
	seeds := ackSeeds()
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		aLow, aSet, aOK := parseState(a)
		bLow, bSet, bOK := parseState(b)
		if !aOK || !bOK {
			return
		}
		var s idLedger
		s.mergeAcks(aLow, aSet)
		s.mergeAcks(bLow, bSet)
		got := appendState(nil, s.low, s.bits)
		if _, set, _ := parseState(got); len(got) > netlink.MaxTrailer || len(set) > 0 && set[len(set)-1] == 0 {
			t.Fatalf("% x + % x = % x: past %d bytes, or a trailing zero", a, b, got, netlink.MaxTrailer)
		}
		hi := max(aLow, bLow)
		if s.low < hi {
			t.Fatalf("% x + % x = % x: watermark %d below the inputs' %d", a, b, got, s.low, hi)
		}
		if hi > math.MaxUint64-16*netlink.MaxTrailer {
			return
		}
		// Up to past both bitmaps, and short of where the ledger's span ends.
		cut := min(min(aLow, bLow)+ledgerSpan, hi+uint64(8*max(len(aSet), len(bSet))+16))
		for id := hi; id < cut; id++ {
			if u := covers(aLow, aSet, id) || covers(bLow, bSet, id); u != covers(s.low, s.bits, id) {
				t.Fatalf("% x + % x = % x: says %v of id %d, the inputs %v", a, b, got, !u, id, u)
			}
		}
	})
}
