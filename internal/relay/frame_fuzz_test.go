package relay

import (
	"bytes"
	"slices"
	"testing"
)

// frameSeeds are the shapes a hop carries, and near misses of each.
func frameSeeds(t testing.TB) [][]byte {
	route := []byte{0, 2, 4}
	data := appendFrame(nil, frame{Kind: frameData, Src: 0, Dst: 4, ID: 300, Attempt: 2, Route: route, Payload: []byte("payload")})
	lone := ackOf(route, 300, 2)
	run := ackRun(t, route, 1, 1<<40, 3)
	return [][]byte{
		nil,
		data,
		lone,
		run,
		ackRun(t, []byte{0, 3, 4}, 9, 10),
		data[:5],
		run[:len(run)-1],                // a pair cut short
		append(bytes.Clone(lone), 0x80), // an id that never ends
		append(bytes.Clone(lone), 7),    // an id with no attempt
		append(bytes.Clone(lone), 7, 0xff, 0xff, 0xff, 0xff, 0x7f), // an attempt past 32 bits
		bytes.Repeat([]byte{0xff}, 40),
	}
}

// FuzzParseFrame: arbitrary bytes never panic parseFrame, and a frame it
// rejects costs nothing — the errors are made once, and a rejected frame
// is the cheapest thing a hostile neighbour can send. What it accepts
// lies inside the input, and an accepted ack's tail walks to its end.
func FuzzParseFrame(f *testing.F) {
	for _, s := range frameSeeds(f) {
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
		if len(fr.Route) > maxRouteLen || !bytes.HasSuffix(p, fr.Payload) ||
			!bytes.HasSuffix(p[:len(p)-len(fr.Payload)], fr.Route) {
			t.Fatalf("% x parses to route % x, payload % x: not its tail", p, fr.Route, fr.Payload)
		}
		if fr.Kind == frameAck {
			if ids, _ := ackPairs(fr); ids == nil {
				t.Fatalf("% x accepted as an ack, but its tail does not walk", p)
			}
		}
	})
}

// FuzzMergeAcks: whatever mergeAcks accepts is an ack frame under the
// budget, for the first frame's source over its route, carrying the first
// frame's ids and then the second's, in order, and the first frame's bytes
// are its beginning; whatever it refuses comes back untouched.
func FuzzMergeAcks(f *testing.F) {
	seeds := frameSeeds(f)
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, run, next []byte) {
		// Merged into a copy: the queue's run and slot buffers never overlap,
		// but the fuzz engine's arguments can, run's spare capacity reaching
		// into next.
		was := bytes.Clone(run)
		got, ok := mergeAcks(bytes.Clone(run), next)
		if !ok {
			if !bytes.Equal(got, was) {
				t.Fatalf("refused % x behind % x, but returned % x", next, was, got)
			}
			return
		}
		a, errA := parseFrame(was)
		b, errB := parseFrame(next)
		if errA != nil || errB != nil || a.Kind != frameAck || b.Kind != frameAck {
			t.Fatalf("merged % x (%v) and % x (%v)", was, errA, next, errB)
		}
		m, err := parseFrame(got)
		if err != nil {
			t.Fatalf("% x + % x = % x, which does not parse: %v", was, next, got, err)
		}
		if len(got) > maxAckRun || !bytes.HasPrefix(got, was) {
			t.Fatalf("% x + % x = % x: over %d bytes, or the run was rewritten", was, next, got, maxAckRun)
		}
		if m.Kind != frameAck || m.Src != a.Src || m.Dst != a.Dst || !bytes.Equal(m.Route, a.Route) ||
			b.Src != a.Src || b.Dst != a.Dst || !bytes.Equal(b.Route, a.Route) {
			t.Fatalf("% x + % x = % x: endpoints or routes differ", was, next, got)
		}
		idsA, attA := ackPairs(a)
		idsB, attB := ackPairs(b)
		ids, att := ackPairs(m)
		if !slices.Equal(ids, append(idsA, idsB...)) || !slices.Equal(att, append(attA, attB...)) {
			t.Fatalf("% x + % x carries ids %v, want %v then %v", was, next, ids, idsA, idsB)
		}
	})
}
