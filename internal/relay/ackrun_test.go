package relay

import (
	"bytes"
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"ghm/internal/metrics"
	"ghm/internal/netlink"
)

// ackState is the ack the destination of route writes from a ledger whose
// watermark is low and which holds the ids above besides.
func ackState(route []byte, low uint64, above ...uint64) []byte {
	led := idLedger{low: low}
	for _, id := range above {
		led.add(id)
	}
	return appendAck(nil, route, &led)
}

func mustMerge(t *testing.T, run, next []byte) []byte {
	t.Helper()
	got, ok := mergeAcks(bytes.Clone(run), next)
	if !ok {
		t.Fatalf("mergeAcks refused % x behind % x", next, run)
	}
	return got
}

// TestMergeAcksRoundTrip: the destination's successive ledger states,
// merged in the order they were written or newest first, come to the
// newest byte for byte — a later state covers every id an earlier one did
// — and each state is a frame back over the route reversed. Two states
// neither of which holds the other merge, in either order, to exactly the
// ids either covers, the watermark moving up past ids the other had.
func TestMergeAcksRoundTrip(t *testing.T) {
	route := []byte{0, 2, 3, 4}
	var led idLedger
	var states [][]byte
	for _, id := range rand.New(rand.NewSource(5)).Perm(400) {
		led.add(uint64(id))
		states = append(states, appendAck(nil, route, &led))
	}
	newest := states[len(states)-1]
	run, back := states[0], newest
	for i, s := range states {
		f, err := parseFrame(s)
		if err != nil || f.Kind != frameAck || f.src() != 4 || f.dst() != 0 || !bytes.Equal(f.Route, []byte{4, 3, 2, 0}) {
			t.Fatalf("state %d parses to %+v, %v", i, f, err)
		}
		if i > 0 {
			if run = mustMerge(t, run, s); !bytes.Equal(run, s) {
				t.Fatalf("states 0..%d merge to % x, not to the last of them, % x", i, run, s)
			}
		}
		if back = mustMerge(t, back, states[len(states)-1-i]); !bytes.Equal(back, newest) {
			t.Fatalf("the newest state behind state %d merges to % x, not to itself", len(states)-1-i, back)
		}
	}
	if f, _ := parseFrame(newest); f.Low != 400 || len(f.Bits) != 0 {
		t.Fatalf("400 ids leave the state %+v", f)
	}

	for _, c := range []struct{ a, b, want []byte }{
		// Each holds ids the other lacks, above the larger watermark.
		{ackState(route, 5, 7, 9), ackState(route, 3, 4, 6, 8), ackState(route, 5, 6, 7, 8, 9)},
		// The older state holds the newer one's watermark and the id above.
		{ackState(route, 5), ackState(route, 3, 5, 6, 9), ackState(route, 7, 9)},
		{ackState(route, 1<<40, 1<<40+3), ackState(route, 1<<40-2, 1<<40, 1<<40+1), ackState(route, 1<<40+2, 1<<40+3)},
		// The watermark moves past a uvarint byte boundary.
		{ackState(route, 127), ackState(route, 100, 127, 128, 200), ackState(route, 129, 200)},
	} {
		if got := mustMerge(t, c.a, c.b); !bytes.Equal(got, c.want) {
			t.Errorf("% x behind % x merges to % x, want % x", c.b, c.a, got, c.want)
		}
		if got := mustMerge(t, c.b, c.a); !bytes.Equal(got, c.want) {
			t.Errorf("% x behind % x merges to % x, want % x", c.a, c.b, got, c.want)
		}
	}
}

// TestMergeAcksRefuses: only two well-formed acks over one route merge,
// and only where the route leaves room for a watermark; a union past the
// budget is cut at it, like the destination's own acks. A refusal hands
// the run back as it was, and neither a refusal nor a merge into a buffer
// with room allocates.
func TestMergeAcksRefuses(t *testing.T) {
	route := []byte{0, 2, 4}
	ack := ackState(route, 5)
	data := appendFrame(nil, frame{ID: 5, Attempt: 1, Route: route, Payload: []byte("payload")})
	long := make([]byte, maxRouteLen)
	for i := range long {
		long[i] = byte(i)
	}
	longAck := ackState(long, 5)

	var odd, even idLedger
	odd.low, even.low = 5, 5
	for id := uint64(6); id < 6000; id++ {
		if id%2 == 1 {
			odd.add(id)
		} else {
			even.add(id)
		}
	}
	full := mustMerge(t, appendAck(nil, route, &odd), appendAck(nil, route, &even))
	f, err := parseFrame(full)
	if err != nil || len(full) != maxAckRun || f.Low != 5 {
		t.Fatalf("two full acks merge to %d bytes, low %d (%v); want %d bytes, low 5", len(full), f.Low, err, maxAckRun)
	}
	for i, c := range f.Bits {
		if c != 0xff {
			t.Fatalf("byte %d of the merged bitmap is %08b: the union of the odd and even ids has a hole", i, c)
		}
	}

	for name, c := range map[string][2][]byte{
		"data behind ack":          {ack, data},
		"ack behind data":          {data, ack},
		"data behind data":         {data, data},
		"another route":            {ack, ackState([]byte{0, 3, 4}, 6)},
		"a longer route":           {ack, ackState([]byte{0, 2, 3, 4}, 6)},
		"another source":           {ack, ackState([]byte{3, 2, 4}, 6)},
		"another dest":             {ack, ackState([]byte{0, 2, 1}, 6)},
		"no room for a watermark":  {longAck, longAck},
		"truncated next":           {ack, ack[:len(ack)-1]},
		"truncated run":            {ack[:4], ack},
		"torn watermark":           {ack, append(bytes.Clone(ack[:len(ack)-1]), 0x80)},
		"an old-layout ack":        {ack, oldFrame(2, []byte{4, 2, 0}, 6, 1, nil)},
		"behind an old-layout ack": {oldFrame(2, []byte{4, 2, 0}, 6, 1, nil), ack},
		"empty next":               {ack, nil},
		"empty run":                {nil, ack},
	} {
		run := bytes.Clone(c[0])
		got, ok := mergeAcks(run, c[1])
		if ok {
			t.Errorf("%s: merged to % x", name, got)
		}
		if !bytes.Equal(got, c[0]) {
			t.Errorf("%s: refused, but the run came back as % x, was % x", name, got, c[0])
		}
	}
	if mergeAcksAllocs(longAck, longAck) != 0 || mergeAcksAllocs(ack, data) != 0 {
		t.Error("a refusal allocates")
	}
	grown := append(make([]byte, 0, maxAckRun), ack...)
	if mergeAcksAllocs(grown, ackState(route, 9, 11)) != 0 {
		t.Error("a merge into a run buffer with room allocates")
	}
}

func mergeAcksAllocs(run, next []byte) float64 {
	return testing.AllocsPerRun(100, func() { mergeAcks(run, next) })
}

// ackRunMesh is a four-node diamond, 0–a–2 and 0–b–2, dispersing over one
// route whose first link carries nothing: submitted payloads sit in the
// source's table and no ack ever forms on its own. The other side of the
// diamond is live, so an ack frame written as if the payload had gone that
// way travels real hops — 2→via→0 — back to the source. The ack timeout
// and the watchdogs are an hour off: only an ack empties the table.
type ackRunMesh struct {
	*Mesh
	reg   *metrics.Registry
	tl    testLinks
	via   int          // the live side's relay
	route []byte       // 0, via, 2: the route the test's acks claim to answer
	in    *dedupWindow // the window of the hop the test's frames arrive on
}

func newAckRunMesh(t *testing.T, seed int64, payloads int) ackRunMesh {
	t.Helper()
	reg := metrics.New()
	topo := Topology{Nodes: 4, Links: []Link{{A: 0, B: 1}, {A: 1, B: 2}, {A: 0, B: 3}, {A: 3, B: 2}}}
	tl := buildLinks(topo, seed, reg, netlink.ImpairConfig{})
	m := newTestMesh(t, Config{
		Topology: topo, Links: tl.conns,
		Source: 0, Dest: 2, Routes: 1,
		AckTimeout: time.Hour, WatchdogWindow: time.Hour,
		Seed: seed, Metrics: reg,
	})
	used := m.Routes()[0][1]
	am := ackRunMesh{Mesh: m, reg: reg, tl: tl, via: 4 - used, in: new(dedupWindow)}
	am.route = []byte{0, byte(am.via), 2}
	am.blackout(0, used, true)
	for i := 0; i < payloads; i++ {
		if id, err := m.Submit([]byte("waits for its ack")); err != nil || id != uint64(i) {
			t.Fatalf("Submit %d = id %d, %v", i, id, err)
		}
	}
	return am
}

// blackout partitions, or heals, the link between nodes a and b.
func (am ackRunMesh) blackout(a, b int, on bool) {
	for li, l := range am.topo.Links {
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			am.tl.imps[li][0].SetBlackout(on)
			am.tl.imps[li][1].SetBlackout(on)
		}
	}
}

// arrive hands node id a frame as the test's hop receiver would.
func (am ackRunMesh) arrive(id int, p []byte) {
	am.nodes[id].handleFrame(am.in, bytes.Clone(p))
}

// acked waits — seconds, against an ack timeout of an hour — for the
// source to have retired n payloads.
func (am ackRunMesh) acked(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); am.Stats().Acked != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("source retired %d payloads, want %d (stats %+v)", am.Stats().Acked, n, am.Stats())
		}
	}
}

// retired waits for relay.acks to count n payloads retired, and checks it
// goes no further: the counter moves just after the retirements it counts.
func (am ackRunMesh) retired(t *testing.T, n int64) {
	t.Helper()
	acks := am.reg.Counter(mRelayAcks)
	for deadline := time.Now().Add(10 * time.Second); acks.Value() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			break
		}
	}
	if got := acks.Value(); got != n {
		t.Errorf("relay.acks counts %d payloads retired, want %d", got, n)
	}
}

func (am ackRunMesh) flushed(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := am.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v (stats %+v)", err, am.Stats())
	}
	if st := am.Stats(); st.Pending != 0 || st.Acked != st.Submitted {
		t.Errorf("after Flush: %+v", st)
	}
	requireCleanHops(t, am.Mesh)
}

// TestMeshAckRunDeliveredTwice: a relay forwards an ack frame whole, both
// times a hop delivers it — acks skip the per-hop dedup — and the source
// retires every payload the first covers and shrugs at the second:
// relay.acks counts each payload retired once.
func TestMeshAckRunDeliveredTwice(t *testing.T) {
	am := newAckRunMesh(t, 2121, 5)
	toSource := am.nodes[am.via].sessionTo(0)
	ack := ackState(am.route, 5)
	am.arrive(am.via, ack)
	am.arrive(am.via, ack)
	if got := toSource.Stats().Enqueued; got != 2 {
		t.Errorf("the relay forwarded %d of the two copies", got)
	}
	am.flushed(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := toSource.Flush(ctx); err != nil { // both copies are at the source
		t.Fatal(err)
	}
	am.retired(t, 5)
	// Two frames, or one if the second caught up with the first in the
	// relay's outbox and the two went on as one.
	if frames := am.reg.Counter(mRelayAckFrames).Value(); frames != 1 && frames != 2 {
		t.Errorf("%d ack frames reached the source, want 1 or 2", frames)
	}
	if dups := am.Stats().DupSuppressed; dups != 0 {
		t.Errorf("%d frames suppressed: an ack met the per-hop dedup window", dups)
	}
}

// TestMeshHopDedupWindow: a relay forwards a data frame its inbound hop
// delivers twice once, and counts the second copy once in
// relay.dup_suppressed, whether it comes back to back or dedupDepth−1 other
// data frames later. A copy from further back than the window is forwarded
// (the destination's ledger is the guarantee), and so are the same id with
// a bumped attempt — a re-dispatch — and an ack frame each time it comes.
// The relay's link to the destination is dark, so every data frame it
// forwards waits in its outbox, counted, and no ack or end-to-end
// duplicate comes back to move the counters.
func TestMeshHopDedupWindow(t *testing.T) {
	am := newAckRunMesh(t, 2323, 0)
	am.blackout(am.via, 2, true)
	toDest, toSource := am.nodes[am.via].sessionTo(2), am.nodes[am.via].sessionTo(0)
	data := func(id uint64, attempt uint32) []byte {
		return appendFrame(nil, frame{ID: id, Attempt: attempt, Route: am.route, Payload: []byte("hop")})
	}
	dups := am.reg.Counter(mRelayDupSuppressed)
	check := func(step string, wantData, wantAcks int, wantDups int64) {
		t.Helper()
		if got := toDest.Stats().Enqueued; got != wantData {
			t.Errorf("%s: %d data frames forwarded, want %d", step, got, wantData)
		}
		if got := toSource.Stats().Enqueued; got != wantAcks {
			t.Errorf("%s: %d ack frames forwarded, want %d", step, got, wantAcks)
		}
		if got := dups.Value(); got != wantDups {
			t.Errorf("%s: relay.dup_suppressed %d, want %d", step, got, wantDups)
		}
	}
	others := func(from uint64, n int) {
		for id := from; id < from+uint64(n); id++ {
			am.arrive(am.via, data(id, 1))
		}
	}

	am.arrive(am.via, data(1, 1))
	am.arrive(am.via, data(1, 1))
	check("back to back", 1, 0, 1)

	am.arrive(am.via, data(2, 1))
	others(100, dedupDepth-1)
	am.arrive(am.via, data(2, 1))
	check("dedupDepth-1 frames apart", 2+dedupDepth-1, 0, 2)

	am.arrive(am.via, data(3, 1))
	others(200, dedupDepth)
	am.arrive(am.via, data(3, 1))
	check("dedupDepth frames apart", 3+2*dedupDepth, 0, 2)

	am.arrive(am.via, data(1, 2))
	check("bumped attempt", 4+2*dedupDepth, 0, 2)

	ack := ackState(am.route, 2)
	am.arrive(am.via, ack)
	am.arrive(am.via, ack)
	check("ack twice", 4+2*dedupDepth, 2, 2)
}

// TestMeshAckRunFormedAgainAfterCrash: the ledger states after payloads
// 0, 1 and 2 queue on the dark hop 2→via, where its outbox's worker claims
// the state folded so far — {0}, {0,1} or {0,1,2} — and the rest fold
// behind it. The hop delivers state {0} (the test hands it to via, as if
// the exchange got that far) but its station crashes before the OK, with
// state {0..3} enqueued since. The outbox resubmits its claim, which may be
// the very frame the relay has already forwarded. Suppressed as a
// duplicate, it would leave payloads 1 and 2 to the ack timeout whenever
// the claim was the state that held them. Every payload's ack reaches the
// source, and each is retired once, counted once per message by the hop's
// outbox however the states folded.
func TestMeshAckRunFormedAgainAfterCrash(t *testing.T) {
	am := newAckRunMesh(t, 2222, 4)
	am.blackout(am.via, 2, true)
	sess := am.nodes[2].sessionTo(am.via)
	for id := uint64(0); id < 3; id++ {
		if _, err := sess.Enqueue(ackState(am.route, id+1)); err != nil {
			t.Fatal(err)
		}
	}
	am.arrive(am.via, ackState(am.route, 1)) // what the hop delivered before its station crashed
	am.acked(t, 1)

	if _, err := sess.Enqueue(ackState(am.route, 4)); err != nil {
		t.Fatal(err)
	}
	sess.Crash() // the claim is back in the queue, ahead of the slot state {0..3} folded into
	am.blackout(am.via, 2, false)
	am.flushed(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sess.Flush(ctx); err != nil { // the source has the states; the hop's OK is a packet behind
		t.Fatal(err)
	}
	if st := sess.Stats(); st.Resubmits == 0 || st.Sent != 4 {
		t.Errorf("hop 2→%d: %+v, want its four acks sent and some of them twice", am.via, st)
	}
	am.retired(t, 4)
	// State {0}, then the claim and the slot behind it, which the relay's
	// outbox may have folded into one on their way on.
	if frames := am.reg.Counter(mRelayAckFrames).Value(); frames < 2 || frames > 3 {
		t.Errorf("source saw %d ack frames, want state {0} and then one or two", frames)
	}
}

// countingConn counts the packets a link end sends, and their bytes.
type countingConn struct {
	netlink.PacketConn
	sent, bytes *atomic.Int64
}

func (c countingConn) Send(p []byte) error {
	c.sent.Add(1)
	c.bytes.Add(int64(len(p)))
	return c.PacketConn.Send(p)
}

// TestMeshPacketBill pins what the five-node mesh sends per payload:
// every packet on every link, and its bytes, 20 000 payloads at sixteen
// outstanding over perfect pipes, counted until the last ack is home. A
// payload's two hops cost four packets; what is left is acks, and they are
// cheap only when they fold: every ack leaves over one route, where it
// finds the ack queued ahead of it and folds into its frame as it is
// enqueued — an ack frame retires about four payloads, and the bill is
// 5.0–5.2 packets a payload. Acked over their own routes and merged only
// as a worker claimed them, they retired 1.5–1.7 a frame and the bill was
// 6.6–6.9. An ack is the destination's ledger, a watermark and a short
// bitmap, whatever it retires, and no frame names its endpoints apart from
// its route: about 235 bytes a payload, where acks that named their ids
// and attempts came to about 246. RETRY is paced at 20 ms, not 300 µs:
// the pipes lose nothing, so every RETRY is a slot that went quiet for a
// while, and under the race detector that is often enough to add a packet
// per payload.
func TestMeshPacketBill(t *testing.T) {
	if testing.Short() {
		t.Skip("20k payloads through a mesh")
	}
	var sent, wire atomic.Int64
	var links []LinkConns
	for _, lc := range pipeLinks(fiveNode(), 1111) {
		links = append(links, LinkConns{A: countingConn{lc.A, &sent, &wire}, B: countingConn{lc.B, &sent, &wire}})
	}
	reg := metrics.New()
	m := newTestMesh(t, Config{
		Topology: fiveNode(), Links: links,
		Source: 0, Dest: 4, Routes: 3, Seed: 1111, Epsilon: 1.0 / (1 << 40), Metrics: reg,
		RetryInterval: 20 * time.Millisecond,
	})
	const payloads = 20_000
	pump(t, m, payloads, 16, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v (stats %+v)", err, m.Stats())
	}
	pkts, octets := float64(sent.Load())/payloads, float64(wire.Load())/payloads
	run := float64(reg.Counter(mRelayAcks).Value()) / float64(reg.Counter(mRelayAckFrames).Value())
	t.Logf("%.2f packets and %.1f bytes per payload, %.2f payloads retired per ack frame", pkts, octets, run)
	if pkts > 5.8 {
		t.Errorf("%.2f packets per payload, want at most 5.8", pkts)
	}
	if octets > 244 {
		t.Errorf("%.1f bytes per payload, want at most 244", octets)
	}
	if run < 3 {
		t.Errorf("%.2f payloads retired per ack frame, want at least 3", run)
	}
	requireCleanHops(t, m)
}
