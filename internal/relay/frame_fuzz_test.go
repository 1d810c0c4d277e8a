package relay

import (
	"bytes"
	"math"
	"testing"
)

// frameSeeds are the shapes a hop carries, and near misses of each.
func frameSeeds() [][]byte {
	route := []byte{0, 2, 4}
	data := appendFrame(nil, frame{ID: 300, Attempt: 2, Route: route, Payload: []byte("payload")})
	lone := ackState(route, 300)
	state := ackState(route, 1, 3, 1<<10, 9)
	return [][]byte{
		nil,
		data,
		lone,
		state,
		ackState([]byte{0, 3, 4}, 9, 11),
		data[:4],
		state[:len(state)-1], // a bitmap cut short
		append(bytes.Clone(lone[:len(lone)-2]), 0x80), // a watermark that never ends
		ackState(route, 1<<40, 1<<40+5, 1<<40+700),    // a wide bitmap
		oldFrame(1, route, 300, 2, []byte("payload")), // the layout kinds 1 and 2 had
		oldFrame(2, []byte{4, 2, 0}, 300, 2, nil),
		bytes.Repeat([]byte{0xff}, 40),
	}
}

// FuzzParseFrame: arbitrary bytes never panic parseFrame, and a frame it
// rejects costs nothing — the errors are made once, and a rejected frame
// is the cheapest thing a hostile neighbour can send. What it accepts
// lies inside the input: a route of two or more nodes after the header,
// and a data frame's payload or an ack's bitmap at the end.
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
		tail := fr.Payload
		if fr.Kind == frameAck {
			tail = fr.Bits
		}
		if len(fr.Route) < 2 || len(fr.Route) > maxRouteLen || !bytes.HasSuffix(p, tail) ||
			!bytes.Contains(p[:len(p)-len(tail)], fr.Route) {
			t.Fatalf("% x parses to route % x, tail % x: not inside it", p, fr.Route, tail)
		}
	})
}

// FuzzMergeAcks: whatever mergeAcks accepts is an ack frame over the
// route both frames share, at most maxAckRun bytes, covering exactly the
// ids either frame covers, up to where the cap cuts its bitmap off;
// whatever it refuses comes back untouched.
func FuzzMergeAcks(f *testing.F) {
	seeds := frameSeeds()
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
		if errA != nil || errB != nil || a.Kind != frameAck || b.Kind != frameAck || !bytes.Equal(a.Route, b.Route) {
			t.Fatalf("merged % x (%v) and % x (%v)", was, errA, next, errB)
		}
		m, err := parseFrame(got)
		if err != nil || m.Kind != frameAck || !bytes.Equal(m.Route, a.Route) || len(got) > maxAckRun {
			t.Fatalf("% x + % x = % x (%v): not an ack over their route within %d bytes", was, next, got, err, maxAckRun)
		}
		// Below the larger watermark both inputs cover everything, and so
		// must the merge; from there on the merge is the union, up to the
		// first id the cap cuts off.
		hi := max(a.Low, b.Low)
		if m.Low < hi {
			t.Fatalf("% x + % x = % x: watermark %d below the inputs' %d", was, next, got, m.Low, hi)
		}
		if hi > math.MaxUint64-16*maxAckRun {
			return
		}
		cut := m.Low + 1 + uint64(8*(maxAckRun-2-len(m.Route)-uvarintLen(m.Low)))
		for id := hi; id < cut; id++ {
			if u := covers(a, id) || covers(b, id); u != covers(m, id) {
				t.Fatalf("% x + % x = % x: says %v of id %d, the inputs %v", was, next, got, covers(m, id), id, u)
			}
		}
	})
}
