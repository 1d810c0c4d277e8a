package relay

import (
	"bytes"
	"context"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"ghm/internal/metrics"
	"ghm/internal/netlink"
)

// ackOf is the lone ack the destination of route writes for (id, attempt).
func ackOf(route []byte, id uint64, attempt uint32) []byte {
	f := frame{Kind: frameData, Src: route[0], Dst: route[len(route)-1], ID: id, Attempt: attempt, Route: route}
	return appendAck(nil, f, route)
}

// ackRun merges the lone acks of ids, attempt 1 each, into one frame.
func ackRun(t testing.TB, route []byte, ids ...uint64) []byte {
	t.Helper()
	run := ackOf(route, ids[0], 1)
	for _, id := range ids[1:] {
		var ok bool
		if run, ok = mergeAcks(run, ackOf(route, id, 1)); !ok {
			t.Fatalf("mergeAcks refused id %d behind % x", id, run)
		}
	}
	return run
}

// ackPairs lists every (id, attempt) an ack frame carries, its own first.
func ackPairs(f frame) (ids []uint64, attempts []uint32) {
	ids, attempts = append(ids, f.ID), append(attempts, f.Attempt)
	for tail := f.Payload; len(tail) > 0; {
		id, attempt, rest, ok := nextAck(tail)
		if !ok {
			return nil, nil
		}
		ids, attempts, tail = append(ids, id), append(attempts, attempt), rest
	}
	return ids, attempts
}

// TestMergeAcksRoundTrip: a run of n acks parses back to their ids and
// attempts in order, under the first one's endpoints and route; a run of
// one is the frame the destination wrote, byte for byte; and runs merge
// with runs.
func TestMergeAcksRoundTrip(t *testing.T) {
	route := []byte{0, 2, 3, 4}
	wantIDs := []uint64{7, 1 << 40, 0, 300, 8}
	wantAttempts := []uint32{1, 3, 1 << 31, 2, 1}
	var run []byte
	for i := range wantIDs {
		lone := ackOf(route, wantIDs[i], wantAttempts[i])
		if i == 0 {
			run = lone
			continue
		}
		before := bytes.Clone(run)
		var ok bool
		if run, ok = mergeAcks(run, lone); !ok {
			t.Fatalf("mergeAcks refused ack %d", i)
		}
		if !bytes.HasPrefix(run, before) {
			t.Fatalf("merging ack %d rewrote the run: % x, was % x", i, run, before)
		}
		f, err := parseFrame(run)
		if err != nil {
			t.Fatalf("run of %d: %v", i+1, err)
		}
		ids, attempts := ackPairs(f)
		if f.Kind != frameAck || f.Src != 4 || f.Dst != 0 || !bytes.Equal(f.Route, []byte{4, 3, 2, 0}) ||
			!slices.Equal(ids, wantIDs[:i+1]) || !slices.Equal(attempts, wantAttempts[:i+1]) {
			t.Fatalf("run of %d parses to %+v carrying %v / %v", i+1, f, ids, attempts)
		}
	}

	a, b := ackRun(t, route, 1, 2, 3), ackRun(t, route, 4, 5)
	ab, ok := mergeAcks(a, b)
	if !ok {
		t.Fatal("mergeAcks refused a run behind a run")
	}
	if !bytes.Equal(ab, ackRun(t, route, 1, 2, 3, 4, 5)) {
		t.Errorf("two runs merge to % x, not to the run of their ids", ab)
	}
}

// TestMergeAcksRefuses: only two well-formed acks for one source over one
// route merge, and only within the byte budget. A refusal hands the run
// back as it was.
func TestMergeAcksRefuses(t *testing.T) {
	route := []byte{0, 2, 4}
	ack := ackOf(route, 5, 1)
	data := appendFrame(nil, frame{Kind: frameData, Src: 0, Dst: 4, ID: 5, Attempt: 1, Route: route, Payload: []byte("payload")})
	otherSrc := appendFrame(nil, frame{Kind: frameAck, Src: 3, Dst: 0, ID: 6, Attempt: 1, Route: []byte{4, 2, 0}})
	otherDst := appendFrame(nil, frame{Kind: frameAck, Src: 4, Dst: 1, ID: 6, Attempt: 1, Route: []byte{4, 2, 0}})
	full := ackOf(route, 1<<60, 1)
	for n := uint64(1); ; n++ {
		next, ok := mergeAcks(full, ackOf(route, 1<<60+n, 1))
		if !ok {
			break
		}
		full = next
	}
	if len(full) > maxAckRun || len(full) < maxAckRun-16 {
		t.Errorf("a run filled to refusal is %d bytes, budget %d", len(full), maxAckRun)
	}
	if _, err := parseFrame(full); err != nil {
		t.Errorf("the full run does not parse: %v", err)
	}
	for name, c := range map[string][2][]byte{
		"data behind ack":  {ack, data},
		"ack behind data":  {data, ack},
		"data behind data": {data, data},
		"another route":    {ack, ackOf([]byte{0, 3, 4}, 6, 1)},
		"a longer route":   {ack, ackOf([]byte{0, 2, 3, 4}, 6, 1)},
		"another source":   {ack, otherSrc},
		"another dest":     {ack, otherDst},
		"over the budget":  {full, ackOf(route, 1<<62, 1)},
		"truncated next":   {ack, ack[:len(ack)-1]},
		"truncated run":    {ack[:4], ack},
		"torn tail":        {ack, append(bytes.Clone(ack), 0x80)},
		"empty next":       {ack, nil},
		"empty run":        {nil, ack},
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
	if mergeAcksAllocs(full, ackOf(route, 1<<62, 1)) != 0 || mergeAcksAllocs(ack, data) != 0 {
		t.Error("a refusal allocates")
	}
	grown := append(make([]byte, 0, maxAckRun), ack...)
	if mergeAcksAllocs(grown, ack) != 0 {
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

// TestMeshAckRunDeliveredTwice: a relay forwards an ack run whole, both
// times a hop delivers it — acks skip the per-hop dedup — and the source
// retires every id of the first and shrugs at the second.
func TestMeshAckRunDeliveredTwice(t *testing.T) {
	am := newAckRunMesh(t, 2121, 5)
	run := ackRun(t, am.route, 0, 1, 2, 3, 4)
	am.arrive(am.via, run)
	am.arrive(am.via, run)
	am.flushed(t)
	for deadline := time.Now().Add(10 * time.Second); am.reg.Counter(mRelayAcks).Value() != 10; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("source counted %d acked ids, want 5 twice", am.reg.Counter(mRelayAcks).Value())
		}
	}
	// Two frames, or one if the second caught up with the first in the
	// relay's outbox and the two went on as one run of ten.
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
		return appendFrame(nil, frame{Kind: frameData, Src: 0, Dst: 2, ID: id, Attempt: attempt, Route: am.route, Payload: []byte("hop")})
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

	ack := ackOf(am.route, 1, 1)
	am.arrive(am.via, ack)
	am.arrive(am.via, ack)
	check("ack twice", 4+2*dedupDepth, 2, 2)
}

// TestMeshAckRunFormedAgainAfterCrash: acks 0, 1 and 2 queue on the dark
// hop 2→via, where its outbox's worker claims the run they have formed so
// far — 0, 0,1 or 0,1,2 — and the rest form a run behind it. The hop
// delivers ack 0 (the test hands it to via, as if the exchange got that
// far) but its station crashes before the OK, with ack 3 enqueued since.
// The outbox resubmits its claim whole: a frame with the first id and
// attempt of one the relay has already forwarded, and, unless the claim
// was ack 0 alone, ids besides. A ledger keyed on those would drop it, and
// those payloads would wait out the ack timeout. Every ack reaches the
// source, counted once per message by the hop's outbox however they ran.
func TestMeshAckRunFormedAgainAfterCrash(t *testing.T) {
	am := newAckRunMesh(t, 2222, 4)
	am.blackout(am.via, 2, true)
	sess := am.nodes[2].sessionTo(am.via)
	for id := uint64(0); id < 3; id++ {
		if _, err := sess.Enqueue(ackOf(am.route, id, 1)); err != nil {
			t.Fatal(err)
		}
	}
	am.arrive(am.via, ackOf(am.route, 0, 1)) // what the hop delivered before its station crashed
	am.acked(t, 1)

	if _, err := sess.Enqueue(ackOf(am.route, 3, 1)); err != nil {
		t.Fatal(err)
	}
	sess.Crash() // the claimed run is back in the queue, ahead of the one ack 3 is in
	am.blackout(am.via, 2, false)
	am.flushed(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sess.Flush(ctx); err != nil { // the source has the runs; the hop's OK is a packet behind
		t.Fatal(err)
	}
	if st := sess.Stats(); st.Resubmits == 0 || st.Sent != 4 {
		t.Errorf("hop 2→%d: %+v, want its four acks sent and some of them twice", am.via, st)
	}
	// Ack 0, then the two runs, which the relay's outbox may have folded
	// into one on their way on.
	if frames, ids := am.reg.Counter(mRelayAckFrames).Value(), am.reg.Counter(mRelayAcks).Value(); frames < 2 || frames > 3 || ids != 5 {
		t.Errorf("source saw %d ids in %d ack frames, want 0 and then 0,1,2,3 in one or two", ids, frames)
	}
}

// countingConn counts the packets a link end sends.
type countingConn struct {
	netlink.PacketConn
	sent *atomic.Int64
}

func (c countingConn) Send(p []byte) error {
	c.sent.Add(1)
	return c.PacketConn.Send(p)
}

// TestMeshPacketBill pins what the five-node mesh sends per payload:
// every packet on every link, 20 000 payloads at sixteen outstanding over
// perfect pipes, counted until the last ack is home. A payload's two hops
// cost four packets; what is left is acks, and they are cheap only when
// they run: every ack leaves over one route, where it finds the acks
// queued ahead of it and folds into their frame as it is enqueued — about
// four ids a frame and 5.0–5.2 packets a payload. Acked over their own
// routes and merged only as a worker claimed them, they ran 1.5–1.7 ids a
// frame and the bill was 6.6–6.9. RETRY is paced at 20 ms, not 300 µs:
// the pipes lose nothing, so every RETRY is a slot that went quiet for a
// while, and under the race detector that is often enough to add a packet
// per payload.
func TestMeshPacketBill(t *testing.T) {
	if testing.Short() {
		t.Skip("20k payloads through a mesh")
	}
	var sent atomic.Int64
	var links []LinkConns
	for _, lc := range pipeLinks(fiveNode(), 1111) {
		links = append(links, LinkConns{A: countingConn{lc.A, &sent}, B: countingConn{lc.B, &sent}})
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
	pkts := float64(sent.Load()) / payloads
	run := float64(reg.Counter(mRelayAcks).Value()) / float64(reg.Counter(mRelayAckFrames).Value())
	t.Logf("%.2f packets per payload, %.2f ids per ack frame", pkts, run)
	if pkts > 5.8 {
		t.Errorf("%.2f packets per payload, want at most 5.8", pkts)
	}
	if run < 3 {
		t.Errorf("%.2f ids per ack frame, want at least 3", run)
	}
	requireCleanHops(t, m)
}
