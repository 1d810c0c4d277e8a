package relay

import (
	"bytes"
	"context"
	"crypto/sha256"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"ghm/internal/metrics"
	"ghm/internal/netlink"
	"ghm/internal/wire"
)

// stateOf is the ack a ledger whose watermark is low and which holds the
// ids above besides puts on a CTL.
func stateOf(low uint64, above ...uint64) []byte {
	led := idLedger{low: low}
	for _, id := range above {
		led.add(id)
	}
	return appendState(nil, led.low, led.bits)
}

// decoded is the state the ack a encodes.
func decoded(t *testing.T, a []byte) *idLedger {
	t.Helper()
	low, set, ok := parseState(a)
	if !ok {
		t.Fatalf("% x is not an ack", a)
	}
	s := new(idLedger)
	s.mergeAcks(low, set)
	return s
}

// merged is the ack of the union of the acks a and b, folded in that
// order.
func merged(t *testing.T, a, b []byte) []byte {
	t.Helper()
	s := decoded(t, a)
	low, set, ok := parseState(b)
	if !ok {
		t.Fatalf("% x is not an ack", b)
	}
	s.mergeAcks(low, set)
	return appendState(nil, s.low, s.bits)
}

// TestMergeAcksRoundTrip: the destination's successive ledger states,
// folded in the order they were written or newest first, come to the
// newest byte for byte — a later state covers every id an earlier one did.
// Two states neither of which holds the other fold, in either order, to
// exactly the ids either covers, the watermark moving up past ids the
// other had.
func TestMergeAcksRoundTrip(t *testing.T) {
	var led idLedger
	var states [][]byte
	for _, id := range rand.New(rand.NewSource(5)).Perm(400) {
		led.add(uint64(id))
		states = append(states, appendState(nil, led.low, led.bits))
	}
	newest := states[len(states)-1]
	run, back := states[0], newest
	for i, s := range states {
		if i > 0 {
			if run = merged(t, run, s); !bytes.Equal(run, s) {
				t.Fatalf("states 0..%d fold to % x, not to the last of them, % x", i, run, s)
			}
		}
		if back = merged(t, back, states[len(states)-1-i]); !bytes.Equal(back, newest) {
			t.Fatalf("the newest state behind state %d folds to % x, not to itself", len(states)-1-i, back)
		}
	}
	if s := decoded(t, newest); s.low != 400 || len(s.bits) != 0 {
		t.Fatalf("400 ids leave the state %d + % x", s.low, s.bits)
	}

	for _, c := range []struct{ a, b, want []byte }{
		// Each holds ids the other lacks, above the larger watermark.
		{stateOf(5, 7, 9), stateOf(3, 4, 6, 8), stateOf(5, 6, 7, 8, 9)},
		// The older state holds the newer one's watermark and the id above.
		{stateOf(5), stateOf(3, 5, 6, 9), stateOf(7, 9)},
		{stateOf(1<<40, 1<<40+3), stateOf(1<<40-2, 1<<40, 1<<40+1), stateOf(1<<40+2, 1<<40+3)},
		// The watermark moves past a uvarint byte boundary.
		{stateOf(127), stateOf(100, 127, 128, 200), stateOf(129, 200)},
	} {
		if got := merged(t, c.a, c.b); !bytes.Equal(got, c.want) {
			t.Errorf("% x folded into % x is % x, want % x", c.b, c.a, got, c.want)
		}
		if got := merged(t, c.b, c.a); !bytes.Equal(got, c.want) {
			t.Errorf("% x folded into % x is % x, want % x", c.a, c.b, got, c.want)
		}
	}
}

// TestMergeAcksRefuses: a trailer that is not an ack — a watermark that
// never ends, or nothing at all — is refused, counted in relay.dropped,
// and leaves what the node has heard as it was; a state the node has
// heard already, or one it covers, does not grow it. A union past the
// budget goes out cut at it, like the destination's own acks, and folding
// allocates nothing.
func TestMergeAcksRefuses(t *testing.T) {
	var odd, even idLedger
	odd.low, even.low = 5, 5
	for id := uint64(6); id < 6000; id++ {
		if id%2 == 1 {
			odd.add(id)
		} else {
			even.add(id)
		}
	}
	full := merged(t, appendState(nil, odd.low, odd.bits), appendState(nil, even.low, even.bits))
	s := decoded(t, full)
	if len(full) != netlink.MaxTrailer || s.low != 5 {
		t.Fatalf("two full states fold to %d bytes, low %d; want %d bytes, low 5", len(full), s.low, netlink.MaxTrailer)
	}
	full = appendState(nil, s.low, s.bits)
	if len(full) != netlink.MaxTrailer {
		t.Fatalf("the union goes out in %d bytes, want %d", len(full), netlink.MaxTrailer)
	}
	for i, c := range full[1:] {
		if c != 0xff {
			t.Fatalf("byte %d of the folded bitmap is %08b: the union of the odd and even ids has a hole", i, c)
		}
	}

	reg := metrics.New()
	n := &node{m: &Mesh{cfg: Config{Source: 0, Dest: 2}, mt: newRelayMetrics(reg)}, id: 1}
	n.onTrailer(stateOf(9, 11))
	heard := appendState(nil, n.heard.low, n.heard.bits)
	for name, tr := range map[string][]byte{
		"empty":          nil,
		"torn watermark": {0x80},
		"endless":        bytes.Repeat([]byte{0xff}, 12),
	} {
		n.onTrailer(tr)
		if got := appendState(nil, n.heard.low, n.heard.bits); !bytes.Equal(got, heard) {
			t.Errorf("%s: heard % x, was % x", name, got, heard)
		}
	}
	if got := reg.Counter(mRelayDropped).Value(); got != 3 {
		t.Errorf("relay.dropped %d for three refused trailers", got)
	}
	for _, old := range [][]byte{stateOf(9, 11), stateOf(9), stateOf(4, 7)} {
		low, set, _ := parseState(old)
		if n.heard.mergeAcks(low, set) {
			t.Errorf("% x grew heard % x", old, heard)
		}
	}
	if !n.heard.mergeAcks(9, []byte{0b100}) {
		t.Error("a state with a new id did not grow heard")
	}

	low, set, _ := parseState(appendState(nil, even.low, even.bits))
	if got := testing.AllocsPerRun(100, func() { s.mergeAcks(low, set) }); got != 0 {
		t.Errorf("a fold allocates %v times", got)
	}
}

// hopMesh is a four-node diamond, 0–a–2 and 0–b–2, dispersing over both
// sides. One route's first link carries nothing. The other side is live,
// so a frame handed to its relay travels real hops: stations run only on
// the hops a route uses. The ack timeout and the watchdogs are an hour
// off.
type hopMesh struct {
	*Mesh
	reg   *metrics.Registry
	tl    testLinks
	via   int          // the live side's relay
	route []byte       // 0, via, 2
	in    *dedupWindow // the window of the hop the test's frames arrive on
}

func newHopMesh(t *testing.T, seed int64) hopMesh {
	t.Helper()
	reg := metrics.New()
	topo := Topology{Nodes: 4, Links: []Link{{A: 0, B: 1}, {A: 1, B: 2}, {A: 0, B: 3}, {A: 3, B: 2}}}
	tl := buildLinks(topo, seed, reg, netlink.ImpairConfig{})
	m := newTestMesh(t, Config{
		Topology: topo, Links: tl.conns,
		Source: 0, Dest: 2, Routes: 2,
		AckTimeout: time.Hour, WatchdogWindow: time.Hour,
		Seed: seed, Metrics: reg,
	})
	dark := m.Routes()[0][1]
	hm := hopMesh{Mesh: m, reg: reg, tl: tl, via: 4 - dark, in: new(dedupWindow)}
	hm.route = []byte{0, byte(hm.via), 2}
	hm.blackout(0, dark, true)
	return hm
}

// blackout partitions, or heals, the link between nodes a and b.
func (hm hopMesh) blackout(a, b int, on bool) {
	for li, l := range hm.cfg.Topology.Links {
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			hm.tl.imps[li][0].SetBlackout(on)
			hm.tl.imps[li][1].SetBlackout(on)
		}
	}
}

// arrive hands node id a frame as the test's hop receiver would.
func (hm hopMesh) arrive(id int, p []byte) {
	hm.nodes[id].handleFrame(hm.in, bytes.Clone(p))
}

// TestMeshHopDedupWindow: a relay forwards a data frame its inbound hop
// delivers twice once, and counts the second copy once in
// relay.dup_suppressed, whether it comes back to back or dedupDepth−1 other
// data frames later. A copy from further back than the window is forwarded
// (the destination's ledger is the guarantee), and so is the same id with
// a bumped attempt — a re-dispatch. The relay's link to the destination is
// dark, so every data frame it forwards waits in its outbox, counted.
func TestMeshHopDedupWindow(t *testing.T) {
	hm := newHopMesh(t, 2323)
	hm.blackout(hm.via, 2, true)
	toDest := hm.nodes[hm.via].sessionTo(2)
	data := func(id uint64, attempt uint32) []byte {
		return appendFrame(nil, frame{ID: id, Attempt: attempt, Route: hm.route, Payload: []byte("hop")})
	}
	dups := hm.reg.Counter(mRelayDupSuppressed)
	check := func(step string, wantData int, wantDups int64) {
		t.Helper()
		if got := toDest.Stats().Enqueued; got != wantData {
			t.Errorf("%s: %d data frames forwarded, want %d", step, got, wantData)
		}
		if got := dups.Value(); got != wantDups {
			t.Errorf("%s: relay.dup_suppressed %d, want %d", step, got, wantDups)
		}
	}
	others := func(from uint64, n int) {
		for id := from; id < from+uint64(n); id++ {
			hm.arrive(hm.via, data(id, 1))
		}
	}

	hm.arrive(hm.via, data(1, 1))
	hm.arrive(hm.via, data(1, 1))
	check("back to back", 1, 1)

	hm.arrive(hm.via, data(2, 1))
	others(100, dedupDepth-1)
	hm.arrive(hm.via, data(2, 1))
	check("dedupDepth-1 frames apart", 2+dedupDepth-1, 2)

	hm.arrive(hm.via, data(3, 1))
	others(200, dedupDepth)
	hm.arrive(hm.via, data(3, 1))
	check("dedupDepth frames apart", 3+2*dedupDepth, 2)

	hm.arrive(hm.via, data(1, 2))
	check("bumped attempt", 4+2*dedupDepth, 2)
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
// payload's two hops cost four packets, and its ack costs none of its own:
// the destination's ledger rides the CTLs the hops send back anyway, a
// watermark and a short bitmap on each, sealed by an 8-byte check. What is
// left is RETRY: 4.00 packets and about 234 bytes a payload (240 while
// each hop packet carried an endpoint id and each CTL a trailer length,
// 224 before the check), where ack frames folded four payloads to a frame
// cost 5.0–5.2 packets and about 235 bytes. No payload is re-dispatched. RETRY is paced at 20 ms, not 300 µs: the
// pipes lose nothing, so every RETRY is a slot that went quiet for a
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
	t.Logf("%.2f packets and %.1f bytes per payload, %d ack states applied at the source", pkts, octets, reg.Counter(mRelayAckStates).Value())
	if pkts > 4.3 {
		t.Errorf("%.2f packets per payload, want at most 4.3", pkts)
	}
	if octets > 242 {
		t.Errorf("%.1f bytes per payload, want at most 242", octets)
	}
	if st := m.Stats(); st.Reroutes != 0 {
		t.Errorf("%d payloads re-dispatched: an ack did not come home in time", st.Reroutes)
	}
	requireCleanHops(t, m)
}

// TestMeshHopPacketLayout: a hop packet is the protocol's packet and, on
// a CTL, the ack trailer and the check that seals it — nothing the peer
// already knows. A link carries at most one route hop, so no endpoint id
// rides with them, and a CTL delimits itself, so no trailer length does.
// On each route hop's link of a five-node mesh, every packet the sending
// end puts on the wire is one DATA packet with no byte before or after
// it, and every packet the receiving end puts there is ctl ‖ trailer ‖
// check: a whole CTL, then the trailer, then the first TrailerCheck bytes
// of SHA-256 over both.
func TestMeshHopPacketLayout(t *testing.T) {
	topo := fiveNode()
	ends := make([][2]*recordingConn, len(topo.Links))
	var links []LinkConns
	for li, lc := range pipeLinks(topo, 1515) {
		ends[li] = [2]*recordingConn{{PacketConn: lc.A}, {PacketConn: lc.B}}
		links = append(links, LinkConns{A: ends[li][0], B: ends[li][1]})
	}
	m := newTestMesh(t, Config{
		Topology: topo, Links: links,
		Source: 0, Dest: 4, Routes: 3, Seed: 1515, Metrics: metrics.New(),
	})
	pump(t, m, 200, 16, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v (stats %+v)", err, m.Stats())
	}
	m.Close()
	for _, r := range m.Routes() {
		for j := 1; j < len(r); j++ {
			li, from := topo.linkIndex(r[j-1], r[j]), 0
			if topo.Links[li].A != r[j-1] {
				from = 1
			}
			data, ctls := ends[li][from].recorded(), ends[li][1-from].recorded()
			if len(data) == 0 || len(ctls) == 0 {
				t.Fatalf("hop %d->%d sent %d DATA and %d CTL packets", r[j-1], r[j], len(data), len(ctls))
			}
			for _, p := range data {
				if _, err := wire.DecodeData(p); err != nil {
					t.Fatalf("hop %d->%d sent % x, not one DATA packet: %v", r[j-1], r[j], p, err)
				}
			}
			for _, p := range ctls {
				ctl, _, check, ok := splitCTL(p)
				if !ok {
					t.Fatalf("hop %d->%d sent % x, not a CTL and %d bytes after it", r[j-1], r[j], p, netlink.TrailerCheck)
				}
				sum := sha256.Sum256(p[:len(p)-len(check)])
				if _, err := wire.DecodeCtl(ctl); err != nil || !bytes.Equal(check, sum[:netlink.TrailerCheck]) {
					t.Fatalf("hop %d->%d sent % x: CTL % x (%v), check % x, want % x", r[j-1], r[j], p, ctl, err, check, sum[:netlink.TrailerCheck])
				}
			}
		}
	}
}

// TestMeshIdleTailAcksRideRetries: after the last Submit nothing goes to
// the destination, so the acks of the last payloads have no reply to a
// DATA packet to ride; they come home on the RETRY CTLs of the idle hops,
// each within RetryBackoffMax, and Flush returns long before any ack
// timeout, at the default pacing, at TestMeshPacketBill's, and with a
// back-off cap so large that the default ack timeout has to grow past
// the routes' idle trip of 2 hops × RetryBackoffMax.
func TestMeshIdleTailAcksRideRetries(t *testing.T) {
	for name, pace := range map[string]struct{ retry, backoff time.Duration }{
		"default":     {},
		"20ms":        {retry: 20 * time.Millisecond},
		"backoff1.5s": {backoff: 1500 * time.Millisecond},
	} {
		t.Run(name, func(t *testing.T) {
			m := newTestMesh(t, Config{
				Topology: fiveNode(), Links: pipeLinks(fiveNode(), 1313),
				Source: 0, Dest: 4, Routes: 3, Seed: 1313, Metrics: metrics.New(),
				RetryInterval: pace.retry, RetryBackoffMax: pace.backoff,
			})
			if trip := 2 * m.cfg.RetryBackoffMax; m.cfg.AckTimeout < 2*trip {
				t.Fatalf("the default AckTimeout %v is not twice the idle trip %v", m.cfg.AckTimeout, trip)
			}
			pump(t, m, 200, 16, nil)
			start := time.Now()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := m.Flush(ctx); err != nil {
				t.Fatalf("Flush: %v (stats %+v)", err, m.Stats())
			}
			t.Logf("the idle tail's acks came home in %v", time.Since(start))
			if st := m.Stats(); st.Acked != 200 || st.Reroutes != 0 {
				t.Errorf("stats %+v, want 200 acked and none re-dispatched", st)
			}
			requireCleanHops(t, m)
		})
	}
}
