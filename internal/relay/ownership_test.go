package relay

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ghm/internal/clock"
	"ghm/internal/metrics"
	"ghm/internal/netlink"
	"ghm/internal/testutil"
)

// pipeLinks realizes a topology over perfect in-process pipes.
func pipeLinks(topo Topology, seed int64) []LinkConns {
	var conns []LinkConns
	for i := range topo.Links {
		a, b := netlink.Pipe(netlink.PipeConfig{Seed: seed + int64(i) + 1})
		conns = append(conns, LinkConns{A: a, B: b})
	}
	return conns
}

// stamped is payload i: its index, then bytes that follow from the index,
// so a payload can be checked against nothing but itself.
func stamped(buf []byte, i int) []byte {
	binary.LittleEndian.PutUint64(buf, uint64(i))
	for b := 8; b < len(buf); b++ {
		buf[b] = byte(i*31 + b)
	}
	return buf
}

func checkStamped(p []byte) (int, bool) {
	if len(p) < 8 {
		return 0, false
	}
	i := int(binary.LittleEndian.Uint64(p))
	for b := 8; b < len(p); b++ {
		if p[b] != byte(i*31+b) {
			return i, false
		}
	}
	return i, true
}

// TestMeshSubmitCopiesPayload: Submit copies in, so a caller that reuses
// its slice the moment Submit returns changes nothing that is sent — not
// the first dispatch and not a later re-dispatch, which reads the source's
// own copy in a recycled entry.
func TestMeshSubmitCopiesPayload(t *testing.T) {
	reg := metrics.New()
	topo := fiveNode()
	tl := buildLinks(topo, 707, reg, netlink.ImpairConfig{})
	m := newTestMesh(t, Config{
		Topology: topo, Links: tl.conns,
		Source: 0, Dest: 4, Routes: 3,
		AckTimeout: 30 * time.Millisecond, // short: some payloads go out twice
		// Idle acks come home within 2 hops × 10ms, inside the timeout.
		RetryBackoffMax: 10 * time.Millisecond,
		Seed:            707, Metrics: reg,
	})
	mu, got, done := drain(m)
	buf := make([]byte, 24)
	var want []string
	submit := func(from, to int) {
		for i := from; i < to; i++ {
			copy(buf, fmt.Sprintf("payload-%016d", i))
			want = append(want, string(buf))
			if _, err := m.Submit(buf); err != nil {
				t.Fatalf("Submit %d: %v", i, err)
			}
			clear(buf)
		}
	}
	submit(0, 100)
	// A blackout on one route holds its payloads past the ack timeout (and
	// well short of the hops' watchdog), so the router re-dispatches them
	// from the source's copy.
	tl.imps[0][0].SetBlackout(true)
	tl.imps[0][1].SetBlackout(true)
	submit(100, 200)
	time.Sleep(100 * time.Millisecond)
	tl.imps[0][0].SetBlackout(false)
	tl.imps[0][1].SetBlackout(false)
	submit(200, 300)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v (stats %+v)", err, m.Stats())
	}
	m.Close()
	<-done
	requireExactlyOnce(t, mu, got, want)
	requireCleanHops(t, m)
	if st := m.Stats(); st.Reroutes == 0 {
		t.Errorf("no payload was re-dispatched: %+v", st)
	}
}

// TestMeshDeliveredPayloadsStayIntact: what comes out of Delivered is the
// caller's for good. Payloads read and held stay byte-identical while ten
// thousand more go through the buffers every hop recycles; a hop that gave
// back the one frame it had handed to Delivered would show here as torn
// bytes, and under the race detector as a race.
func TestMeshDeliveredPayloadsStayIntact(t *testing.T) {
	if testing.Short() {
		t.Skip("10k payloads through a mesh")
	}
	reg := metrics.New()
	// ε = 2⁻⁴⁰: at the default 2⁻²⁰ a false OK is a 2⁻²⁵ event per hop message, and this test sends 40 000.
	m := newTestMesh(t, Config{
		Topology: fiveNode(), Links: pipeLinks(fiveNode(), 808),
		Source: 0, Dest: 4, Routes: 3, Seed: 808, Epsilon: 1.0 / (1 << 40), Metrics: reg,
	})
	const hold, total = 200, 10_200
	var held [][]byte
	seen := make([]bool, total)
	pump(t, m, total, 16, func(got int, p []byte) {
		i, ok := checkStamped(p)
		if !ok || len(p) != 64 || i >= total || seen[i] {
			t.Fatalf("delivery %d is %x: torn, foreign or a duplicate", got, p)
		}
		seen[i] = true
		if len(held) < hold {
			held = append(held, p)
		}
	})
	for _, p := range held {
		if i, ok := checkStamped(p); !ok {
			t.Errorf("held payload %d changed after it was delivered: %x", i, p)
		}
	}
	requireCleanHops(t, m)
}

// TestMeshPayloadAllocBudget pins what a delivered payload costs the whole
// mesh — source, two hops, the ack on their CTLs back, twelve stations and
// their checkers: the one copy the destination hands to Delivered, which
// the caller owns. The budget of 2 leaves room for the in-flight table's
// map, which grows now and then. The copy is the payload's own size, not
// the frame's: 72 bytes a payload leaves room for the map and nothing for
// a 64-byte payload kept in the 80-byte frame it arrived in.
func TestMeshPayloadAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	reg := metrics.New()
	m := newTestMesh(t, Config{
		Topology: fiveNode(), Links: pipeLinks(fiveNode(), 909),
		Source: 0, Dest: 4, Routes: 3, Seed: 909, Epsilon: 1.0 / (1 << 40), Metrics: reg,
	})
	buf := make([]byte, 64)
	n := 0
	watchdog := time.NewTimer(time.Minute) // one for the run: a time.After per round is three allocations
	defer watchdog.Stop()
	round := func() {
		if _, err := m.Submit(stamped(buf, n)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		n++
		select {
		case <-m.Delivered():
		case <-watchdog.C:
			t.Fatalf("payload %d not delivered (stats %+v)", n, m.Stats())
		}
	}
	for i := 0; i < 3000; i++ {
		round() // every route's rings, spare lists and checker tables filled
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	from := n
	got := testing.AllocsPerRun(3000, round)
	runtime.ReadMemStats(&after)
	perPayload := float64(after.TotalAlloc-before.TotalAlloc) / float64(n-from)
	t.Logf("%v allocs, %.1f bytes per delivered payload", got, perPayload)
	if got > 2 {
		t.Errorf("one payload through the five-node mesh: %v allocs, budget 2", got)
	}
	if perPayload > 72 {
		t.Errorf("one 64-byte payload through the five-node mesh: %.1f bytes allocated, budget 72", perPayload)
	}
	requireCleanHops(t, m)
}

// TestMeshDeliveredCountsWhatDeliveredGot: Stats().Delivered counts the
// payloads the higher layer can read from Delivered, not those a closing
// mesh dropped at the door. With room for one payload and no reader, the
// destination acks the second and waits; Close turns it away.
func TestMeshDeliveredCountsWhatDeliveredGot(t *testing.T) {
	reg := metrics.New()
	topo := Topology{Nodes: 2, Links: []Link{{A: 0, B: 1}}}
	m := newTestMesh(t, Config{
		Topology: topo, Links: pipeLinks(topo, 1111),
		Source: 0, Dest: 1, Routes: 1, DeliveryBuffer: 1, Seed: 1111, Metrics: reg,
	})
	for _, p := range []string{"read", "turned away"} {
		if _, err := m.Submit([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := m.Flush(ctx); err != nil { // both acked: the second waits at the full channel
		t.Fatalf("Flush: %v (stats %+v)", err, m.Stats())
	}
	m.Close()
	var got []string
	for p := range m.Delivered() {
		got = append(got, string(p))
	}
	if len(got) != 1 || got[0] != "read" {
		t.Fatalf("Delivered held %q, want the first payload alone", got)
	}
	if st := m.Stats(); st.Delivered != 1 {
		t.Errorf("Stats().Delivered = %d for one payload Delivered held", st.Delivered)
	}
	if c := reg.Counter(mRelayDelivered).Value(); c != 1 {
		t.Errorf("%s = %d for one payload Delivered held", mRelayDelivered, c)
	}
}

// deadConn is a link end that carries nothing: Send succeeds, Recv blocks
// until Close.
type deadConn struct{ stop chan struct{} }

func (c deadConn) Send([]byte) error { return nil }
func (c deadConn) Recv() ([]byte, error) {
	<-c.stop
	return nil, netlink.ErrClosed
}
func (c deadConn) Close() error {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	return nil
}

// TestMeshAckTimeoutOnInjectedClock: ack deadlines are minted on the
// mesh's clock, and the timer that enforces them must be armed on that
// clock too. The mesh rides a virtual clock set a thousand hours from the
// wall clock, over links that carry nothing, so every payload's only
// future is its ack timeout. Armed with time.Until — wall time — the timer
// of a clock ahead of the wall fired a thousand hours late, and that of a
// clock behind it every millisecond.
//
// The second payload is submitted into a table that is not empty, so
// Submit leaves the router asleep: it is re-dispatched at its own deadline
// only because the pass that re-dispatched the first re-armed for it.
func TestMeshAckTimeoutOnInjectedClock(t *testing.T) {
	for name, offset := range map[string]time.Duration{"ahead": 1000 * time.Hour, "behind": -1000 * time.Hour} {
		t.Run(name, func(t *testing.T) {
			clk := clock.NewVirtual(time.Now().Add(offset), 1)
			topo := Topology{Nodes: 2, Links: []Link{{A: 0, B: 1}}}
			m := newTestMesh(t, Config{
				Topology: topo,
				Links:    []LinkConns{{A: deadConn{make(chan struct{})}, B: deadConn{make(chan struct{})}}},
				Source:   0, Dest: 1, Routes: 1,
				AckTimeout:     time.Second,
				WatchdogWindow: time.Hour, // no hop is declared wedged: only the deadline re-dispatches
				RetryInterval:  100 * time.Millisecond, RetryBackoffMax: 100 * time.Millisecond,
				Clock: clk, Seed: 1, Metrics: metrics.New(),
			})
			start := clk.Now()
			// reroutes waits for the router to have made n re-dispatches,
			// then a little longer for one it must not make. The last
			// Stats call waits out a pass in progress (both take m.mu), so
			// on return the pass that made the n-th has re-armed the timer
			// — a timer is armed relative to the clock's now, and must not
			// be armed across the test's next advance.
			reroutes := func(n int64) {
				t.Helper()
				for deadline := time.Now().Add(10 * time.Second); m.Stats().Reroutes < n; {
					if time.Now().After(deadline) {
						t.Fatalf("%d re-dispatches at virtual +%v, want %d", m.Stats().Reroutes, clk.Now().Sub(start), n)
					}
					time.Sleep(time.Millisecond)
				}
				time.Sleep(30 * time.Millisecond)
				if got := m.Stats().Reroutes; got != n {
					t.Fatalf("%d re-dispatches at virtual +%v, want %d", got, clk.Now().Sub(start), n)
				}
			}

			if _, err := m.Submit([]byte("first")); err != nil { // deadline +1s
				t.Fatal(err)
			}
			// The table was empty, so Submit woke the router: let it arm
			// before the clock moves, for the same reason.
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				m.mu.Lock()
				armed := m.armed
				m.mu.Unlock()
				if armed {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the router never armed the ack timeout of a payload submitted into an empty table")
				}
			}
			clk.AdvanceBy(500 * time.Millisecond)
			if _, err := m.Submit([]byte("second")); err != nil { // deadline +1.5s
				t.Fatal(err)
			}
			// The margins below allow for a pass that read the clock when
			// its timer fired and armed the next one after the advance that
			// fired it had finished: the next firing is that much late.
			clk.AdvanceBy(400 * time.Millisecond) // +0.9s
			reroutes(0)
			clk.AdvanceBy(300 * time.Millisecond) // +1.2s: first re-dispatched, its next deadline +2.0s at the earliest
			reroutes(1)
			clk.AdvanceBy(200 * time.Millisecond) // +1.4s
			reroutes(1)
			clk.AdvanceBy(500 * time.Millisecond) // +1.9s: second re-dispatched, at +1.7s at the latest
			reroutes(2)
		})
	}
}

// newDeadLinkMesh is a two-node mesh, source 0 and destination 1, on a
// virtual clock over a link that carries nothing: the ack timeout is a
// second away in virtual time, which passes only when the test advances
// it, and what reaches either node comes from the test, handed to it as
// its hop receiver would.
func newDeadLinkMesh(t *testing.T) (*Mesh, *clock.Virtual, *metrics.Registry) {
	t.Helper()
	clk := clock.NewVirtual(time.Now(), 1)
	reg := metrics.New()
	m := newTestMesh(t, Config{
		Topology: Topology{Nodes: 2, Links: []Link{{A: 0, B: 1}}},
		Links:    []LinkConns{{A: deadConn{make(chan struct{})}, B: deadConn{make(chan struct{})}}},
		Source:   0, Dest: 1, Routes: 1,
		AckTimeout:     time.Second,
		WatchdogWindow: time.Hour, // the dead hop is not declared wedged
		RetryInterval:  100 * time.Millisecond, RetryBackoffMax: 100 * time.Millisecond,
		Clock: clk, Seed: 1, Metrics: reg,
	})
	return m, clk, reg
}

// TestMeshIdleSourceGivesBackSpares: the source keeps an acked entry for
// a later Submit while it holds fewer spares than its in-flight table held
// at its largest since the last ack-timeout pass, so a burst of 1 000
// payloads leaves it 1 000 spares; idle, it gives all but spareEntries
// back within two AckTimeouts. As in TestMeshAckTimeoutOnInjectedClock the
// mesh rides a virtual clock over links that carry nothing; the acks come
// from the test, handed to the source as its hop senders would hand them
// on. Half-way through them the test runs a router pass of its own, as a
// wake-up the burst's Submits queued would: such a pass once restarted the
// peak at the half-drained table, which capped the spares below the burst.
func TestMeshIdleSourceGivesBackSpares(t *testing.T) {
	m, clk, _ := newDeadLinkMesh(t)
	// locked reads the source's state as a router pass leaves it: a pass
	// holds m.mu from start to end.
	locked := func() (spares, peak int, armed bool) {
		m.mu.Lock()
		defer m.mu.Unlock()
		return len(m.spare), m.peak, m.armed
	}
	waitFor := func(what string, cond func(spares, peak int, armed bool) bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(locked()); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				spares, peak, armed := locked()
				t.Fatalf("%s: %d spares, in-flight peak %d, armed %v", what, spares, peak, armed)
			}
		}
	}

	const burst = 1000
	for i := 0; i < burst; i++ {
		if _, err := m.Submit([]byte("burst")); err != nil {
			t.Fatal(err)
		}
	}
	// The first Submit found the table empty and woke the router, which
	// arms the ack timeout; the clock must not move before it has.
	waitFor("no router pass armed the ack timeout", func(_, _ int, armed bool) bool { return armed })
	for id := uint64(0); id < burst; id++ {
		m.nodes[0].onTrailer(stateOf(id + 1))
		if id == burst/2 {
			ackedN(t, m, burst/2+1)
			m.reconcile()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v (stats %+v)", err, m.Stats())
	}
	if spares, _, _ := locked(); spares != burst {
		t.Fatalf("a burst of %d acked left the source %d spares, want all of them", burst, spares)
	}

	// The first ack timeout's pass keeps them — the table held 1 000 since
	// the pass before — restarts the peak at the empty table and arms once
	// more; the second gives back all but spareEntries.
	clk.AdvanceBy(time.Second)
	waitFor("after one ack timeout", func(spares, peak int, armed bool) bool { return peak == 0 && armed })
	if spares, _, _ := locked(); spares != burst {
		t.Errorf("one ack timeout on the source holds %d spares, want the %d its last interval needed", spares, burst)
	}
	clk.AdvanceBy(time.Second)
	waitFor("after two ack timeouts", func(spares, _ int, _ bool) bool { return spares <= spareEntries })
	if st := m.Stats(); st.Acked != burst || st.Reroutes != 0 {
		t.Errorf("stats %+v, want %d acked and none re-dispatched", st, burst)
	}
}

// ackedN waits for the source to have retired n payloads: the router
// retires what an ack covers after the hop sender hands it on.
func ackedN(t *testing.T, m *Mesh, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); m.Stats().Acked != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("source retired %d payloads, want %d (stats %+v)", m.Stats().Acked, n, m.Stats())
		}
	}
}

// TestMeshAckStateHealsLostAcks: every ack carries the destination's
// whole ledger, so acks lost on the way cost nothing once a later one
// arrives. Of 100 payloads' acks the source gets one late state — every id
// below 40 and a scatter above — and then the last; it retires what each
// covers as it arrives, and no payload waits for its ack timeout, which
// the virtual clock never reaches. A state heard again, or an older one,
// counts as applied and retires nothing.
func TestMeshAckStateHealsLostAcks(t *testing.T) {
	m, clk, reg := newDeadLinkMesh(t)
	start := clk.Now()
	for i := 0; i < 100; i++ {
		if _, err := m.Submit([]byte("its ack is lost")); err != nil {
			t.Fatal(err)
		}
	}
	late := stateOf(40, 99, 45, 64, 42, 63)
	m.nodes[0].onTrailer(late)
	ackedN(t, m, 45)
	if st := m.Stats(); st.Pending != 55 {
		t.Fatalf("one late state left %d pending; want 55", st.Pending)
	}
	m.nodes[0].onTrailer(late)
	m.nodes[0].onTrailer(stateOf(100))
	m.nodes[0].onTrailer(stateOf(3))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v (stats %+v)", err, m.Stats())
	}
	if st := m.Stats(); st.Acked != 100 || st.Reroutes != 0 {
		t.Errorf("stats %+v, want 100 acked and none re-dispatched", st)
	}
	if acks, states := reg.Counter(mRelayAcks).Value(), reg.Counter(mRelayAckStates).Value(); acks != 100 || states != 4 {
		t.Errorf("relay.acks %d in %d relay.ack_states, want 100 in 4", acks, states)
	}
	if clk.Now() != start {
		t.Errorf("the clock moved %v", clk.Now().Sub(start))
	}
}

// TestMeshRefusesOldLayoutFrames: a frame in the layout kinds 1, 2 and 4
// had — endpoints in bytes of their own, an ack naming (id, attempt), an
// ack frame carrying the ledger — from an older neighbour or an older
// forwarding WAL is dropped, not misread: the old data frame delivers
// nothing at the destination, the old acks retire nothing at the source,
// and relay.dropped counts all three. The payload's ack timeout
// re-dispatches it in the current layout.
func TestMeshRefusesOldLayoutFrames(t *testing.T) {
	m, _, reg := newDeadLinkMesh(t)
	id, err := m.Submit([]byte("in flight"))
	if err != nil {
		t.Fatal(err)
	}
	in := new(dedupWindow)
	m.nodes[1].handleFrame(in, oldFrame(1, []byte{0, 1}, id, 1, []byte("in flight")))
	m.nodes[0].handleFrame(in, oldFrame(2, []byte{1, 0}, id, 1, nil))
	m.nodes[0].handleFrame(in, append([]byte{4, 2, 1, 0}, stateOf(id+1)...))
	if st := m.Stats(); st.Delivered != 0 || st.Acked != 0 || st.Pending != 1 {
		t.Errorf("stats %+v after two old-layout frames, want nothing delivered or acked", st)
	}
	if got := reg.Counter(mRelayDropped).Value(); got != 3 {
		t.Errorf("relay.dropped %d, want 3", got)
	}
	select {
	case p := <-m.Delivered():
		t.Errorf("an old-layout data frame delivered %q", p)
	default:
	}
}

// TestMeshParkedResumesOnHopRecovery: a payload parked because its only
// route's hop went unhealthy resumes on the hop's recovery alone — the
// health transition wakes the router; nothing is submitted or acked in
// between, and the ack timeout is out of reach.
func TestMeshParkedResumesOnHopRecovery(t *testing.T) {
	reg := metrics.New()
	topo := Topology{Nodes: 3, Links: []Link{{A: 0, B: 1}, {A: 1, B: 2}}}
	tl := buildLinks(topo, 1010, reg, netlink.ImpairConfig{})
	m := newTestMesh(t, Config{
		Topology: topo, Links: tl.conns,
		Source: 0, Dest: 2, Routes: 1,
		WatchdogWindow: 60 * time.Millisecond,
		AckTimeout:     time.Hour,
		Seed:           1010, Metrics: reg,
	})
	mu, got, done := drain(m)

	tl.imps[0][0].SetBlackout(true)
	tl.imps[0][1].SetBlackout(true)
	if _, err := m.Submit([]byte("held up")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); m.Stats().Parked != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("payload never parked: %+v", m.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	tl.imps[0][0].SetBlackout(false)
	tl.imps[0][1].SetBlackout(false)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := m.Flush(ctx); err != nil {
		t.Fatalf("Flush after recovery: %v (stats %+v)", err, m.Stats())
	}
	m.Close()
	<-done
	requireExactlyOnce(t, mu, got, []string{"held up"})
	requireCleanHops(t, m)
}
