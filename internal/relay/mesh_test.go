package relay

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ghm/internal/metrics"
	"ghm/internal/netlink"
	"ghm/internal/testutil"
)

// testLinks realizes a topology in-process: one reordering pipe per
// link, both halves wrapped in controllable impairment stages.
type testLinks struct {
	conns []LinkConns
	// imps[i] are link i's two impairment stages: [0] wraps the A half,
	// [1] the B half.
	imps [][2]*netlink.ImpairedConn
}

func buildLinks(topo Topology, seed int64, reg *metrics.Registry, spec netlink.ImpairConfig) testLinks {
	return buildLinksPer(topo, seed, reg, func(int) netlink.ImpairConfig { return spec })
}

// buildLinksPer is buildLinks with a per-link impairment profile.
func buildLinksPer(topo Topology, seed int64, reg *metrics.Registry, specFor func(li int) netlink.ImpairConfig) testLinks {
	var tl testLinks
	for i := range topo.Links {
		a, b := netlink.Pipe(netlink.PipeConfig{Seed: seed + int64(3*i) + 1})
		spec := specFor(i)
		ica, icb := spec, spec
		ica.Seed, icb.Seed = seed+int64(3*i)+2, seed+int64(3*i)+3
		ica.Metrics, icb.Metrics = reg, reg
		la, lb := netlink.Impair(a, ica), netlink.Impair(b, icb)
		tl.conns = append(tl.conns, LinkConns{A: la, B: lb})
		tl.imps = append(tl.imps, [2]*netlink.ImpairedConn{la, lb})
	}
	return tl
}

// drain consumes a mesh's Delivered channel into a payload->count map
// until the channel closes.
func drain(m *Mesh) (*sync.Mutex, map[string]int, chan struct{}) {
	var mu sync.Mutex
	got := map[string]int{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range m.Delivered() {
			mu.Lock()
			got[string(p)]++
			mu.Unlock()
		}
	}()
	return &mu, got, done
}

func requireExactlyOnce(t *testing.T, mu *sync.Mutex, got map[string]int, want []string) {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()
	for _, w := range want {
		switch got[w] {
		case 1:
		case 0:
			t.Errorf("payload %q never delivered", w)
		default:
			t.Errorf("payload %q delivered %d times", w, got[w])
		}
	}
	if len(got) != len(want) {
		t.Errorf("delivered %d distinct payloads, want %d", len(got), len(want))
	}
}

func requireCleanHops(t *testing.T, m *Mesh) {
	t.Helper()
	for id, rep := range m.HopReports() {
		if !rep.Clean() {
			t.Errorf("hop %s conformance violations: %v", id, rep)
		}
	}
}

func newTestMesh(t *testing.T, cfg Config) *Mesh {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func TestMeshDelivery(t *testing.T) {
	reg := metrics.New()
	topo := fiveNode()
	tl := buildLinks(topo, 101, reg, netlink.ImpairConfig{})
	m := newTestMesh(t, Config{
		Topology: topo, Links: tl.conns,
		Source: 0, Dest: 4, Routes: 3,
		Seed: 101, Metrics: reg,
	})
	if got := len(m.Routes()); got != 3 {
		t.Fatalf("expected 3 routes, got %d", got)
	}

	mu, got, done := drain(m)
	var want []string
	for i := 0; i < 50; i++ {
		p := fmt.Sprintf("msg-%03d", i)
		if _, err := m.Submit([]byte(p)); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		want = append(want, p)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := m.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v (stats %+v)", err, m.Stats())
	}
	m.Close()
	<-done

	requireExactlyOnce(t, mu, got, want)
	requireCleanHops(t, m)
	st := m.Stats()
	if st.Acked != 50 || st.Delivered != 50 || st.Pending != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Hops < 50 {
		t.Fatalf("two-hop routes should forward every payload at least once: %+v", st)
	}
}

func TestMeshFailoverOnLinkBlackout(t *testing.T) {
	reg := metrics.New()
	topo := fiveNode()
	tl := buildLinks(topo, 202, reg, netlink.ImpairConfig{})
	m := newTestMesh(t, Config{
		Topology: topo, Links: tl.conns,
		Source: 0, Dest: 4, Routes: 3,
		WatchdogWindow: 80 * time.Millisecond,
		AckTimeout:     400 * time.Millisecond,
		Seed:           202, Metrics: reg,
	})

	mu, got, done := drain(m)
	var want []string
	for i := 0; i < 60; i++ {
		p := fmt.Sprintf("msg-%03d", i)
		if _, err := m.Submit([]byte(p)); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		want = append(want, p)
		if i == 10 {
			// Kill the route through node 1 in both directions; the mesh
			// must fail its traffic over to the other two routes.
			for _, li := range []int{0, 1} {
				tl.imps[li][0].SetBlackout(true)
				tl.imps[li][1].SetBlackout(true)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v (stats %+v)", err, m.Stats())
	}
	m.Close()
	<-done

	requireExactlyOnce(t, mu, got, want)
	requireCleanHops(t, m)
	// Acks ride each route's own CTLs, and each is the destination's whole
	// ledger, so the states on the other routes retire everything route 0's
	// lost acks covered: what is re-dispatched is the payloads route 0
	// swallowed, 9–13 in 20 runs. A lost ack that healed only at the ack
	// timeout would cost one re-dispatch each, over 30.
	st := m.Stats()
	t.Logf("%d reroutes for %d payloads", st.Reroutes, st.Submitted)
	if st.Reroutes > 20 {
		t.Errorf("%d reroutes for %d payloads, want at most 20: lost acks were not healed by later ones", st.Reroutes, st.Submitted)
	}
}

// TestMeshAllRoutesDownParkAndResume covers the only-route-lost edge:
// payloads submitted while every route is down must park (not fail) and
// resume the moment the route comes back.
func TestMeshAllRoutesDownParkAndResume(t *testing.T) {
	reg := metrics.New()
	topo := Topology{Nodes: 3, Links: []Link{{A: 0, B: 1}, {A: 1, B: 2}}}
	tl := buildLinks(topo, 303, reg, netlink.ImpairConfig{})
	m := newTestMesh(t, Config{
		Topology: topo, Links: tl.conns,
		Source: 0, Dest: 2, Routes: 1,
		WatchdogWindow: 60 * time.Millisecond,
		AckTimeout:     300 * time.Millisecond,
		Seed:           303, Metrics: reg,
	})
	mu, got, done := drain(m)

	if err := m.StopNode(1); err != nil {
		t.Fatalf("StopNode: %v", err)
	}
	if m.NodeUp(1) {
		t.Fatal("node 1 should be down")
	}
	var want []string
	for i := 0; i < 5; i++ {
		p := fmt.Sprintf("parked-%d", i)
		if _, err := m.Submit([]byte(p)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		want = append(want, p)
	}

	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Parked < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("payloads never parked: %+v", m.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := m.Stats(); st.RoutesUsable != 0 {
		t.Fatalf("no route should be usable: %+v", st)
	}

	if err := m.RestartNode(1); err != nil {
		t.Fatalf("RestartNode: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := m.Flush(ctx); err != nil {
		t.Fatalf("Flush after recovery: %v (stats %+v)", err, m.Stats())
	}
	m.Close()
	<-done

	requireExactlyOnce(t, mu, got, want)
	requireCleanHops(t, m)
	if st := m.Stats(); st.NodeRestarts != 1 {
		t.Fatalf("expected one node restart, got %+v", st)
	}
}

// TestMeshSlowRouteDuplicateSuppressed covers the reroute-overlap edge:
// a payload rerouted off a slow route is later also delivered by that
// slow route, and the destination must suppress the straggler.
func TestMeshSlowRouteDuplicateSuppressed(t *testing.T) {
	reg := metrics.New()
	topo := Topology{Nodes: 4, Links: []Link{
		{A: 0, B: 1}, {A: 1, B: 3}, // route 0, made slow below
		{A: 0, B: 2}, {A: 2, B: 3}, // route 1, fast
	}}
	// 300ms one-way latency on route 0's links: far beyond the ack
	// timeout, so the first dispatch always loses the race.
	tl := buildLinksPer(topo, 404, reg, func(li int) netlink.ImpairConfig {
		if li == 0 || li == 1 {
			return netlink.ImpairConfig{LinkModel: netlink.LinkModel{Latency: 300 * time.Millisecond}}
		}
		return netlink.ImpairConfig{}
	})
	m := newTestMesh(t, Config{
		Topology: topo, Links: tl.conns,
		Source: 0, Dest: 3, Routes: 2,
		AckTimeout: 100 * time.Millisecond,
		Seed:       404, Metrics: reg,
	})
	mu, got, done := drain(m)

	if _, err := m.Submit([]byte("raced")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := m.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v (stats %+v)", err, m.Stats())
	}
	if st := m.Stats(); st.Reroutes < 1 {
		t.Fatalf("expected at least one reroute, got %+v", st)
	}

	// Wait for the slow route's straggler to arrive and be suppressed.
	deadline := time.Now().Add(10 * time.Second)
	for m.Stats().DupSuppressed < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("straggler never suppressed: %+v", m.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	m.Close()
	<-done

	requireExactlyOnce(t, mu, got, []string{"raced"})
	if st := m.Stats(); st.Delivered != 1 {
		t.Fatalf("exactly one delivery expected: %+v", st)
	}
}

// TestMeshNodeRestartReplaysWAL covers the crash-recovery edge: a relay
// node that crashes with forwarding backlog in its WAL replays it on
// restart, and end-to-end dedup keeps the replay invisible above.
func TestMeshNodeRestartReplaysWAL(t *testing.T) {
	reg := metrics.New()
	dir := t.TempDir()
	topo := Topology{Nodes: 3, Links: []Link{{A: 0, B: 1}, {A: 1, B: 2}}}
	tl := buildLinks(topo, 505, reg, netlink.ImpairConfig{})
	m := newTestMesh(t, Config{
		Topology: topo, Links: tl.conns,
		Source: 0, Dest: 2, Routes: 1,
		WatchdogWindow: 80 * time.Millisecond,
		AckTimeout:     2 * time.Second,
		WALDir:         dir,
		Seed:           505, Metrics: reg,
	})
	mu, got, done := drain(m)

	var want []string
	for i := 0; i < 30; i++ {
		p := fmt.Sprintf("wal-%03d", i)
		if _, err := m.Submit([]byte(p)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		want = append(want, p)
		if i == 15 {
			if err := m.StopNode(1); err != nil {
				t.Fatalf("StopNode: %v", err)
			}
		}
		time.Sleep(time.Millisecond)
	}

	// The crashed relay's forwarding WAL must exist: that file is what
	// carries its accepted-but-unforwarded backlog across the restart.
	wal := filepath.Join(dir, "relay-n1-to-n2.wal")
	if fi, err := os.Stat(wal); err != nil || fi.Size() == 0 {
		t.Fatalf("forwarding WAL missing or empty: %v", err)
	}

	if err := m.RestartNode(1); err != nil {
		t.Fatalf("RestartNode: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Flush(ctx); err != nil {
		t.Fatalf("Flush after restart: %v (stats %+v)", err, m.Stats())
	}
	m.Close()
	<-done

	requireExactlyOnce(t, mu, got, want)
	requireCleanHops(t, m)
}

func TestMeshConfigErrors(t *testing.T) {
	topo := Topology{Nodes: 3, Links: []Link{{A: 0, B: 1}, {A: 1, B: 2}}}
	mk := func() []LinkConns {
		tl := buildLinks(topo, 1, metrics.New(), netlink.ImpairConfig{})
		return tl.conns
	}
	closeAll := func(cs []LinkConns) {
		for _, c := range cs {
			c.A.Close()
			c.B.Close()
		}
	}

	cases := []Config{
		{Topology: Topology{Nodes: 1}, Source: 0, Dest: 0},
		{Topology: topo, Links: nil, Source: 0, Dest: 2},
		{Topology: topo, Source: 0, Dest: 7},
		{Topology: topo, Source: 1, Dest: 1},
		{Topology: Topology{Nodes: 4, Links: []Link{{A: 0, B: 1}, {A: 2, B: 3}}}, Source: 0, Dest: 3},
	}
	for i, cfg := range cases {
		if len(cfg.Links) == 0 && cfg.Topology.Nodes == topo.Nodes {
			cfg.Links = nil
		} else if cfg.Topology.Nodes == topo.Nodes {
			cfg.Links = mk()
		}
		if cfg.Topology.Nodes == 4 {
			tl := buildLinks(cfg.Topology, 1, metrics.New(), netlink.ImpairConfig{})
			cfg.Links = tl.conns
		}
		m, err := New(cfg)
		if err == nil {
			m.Close()
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
		closeAll(cfg.Links)
	}

	// An ack timeout inside the idle trip, 2 hops × RetryBackoffMax, would
	// re-dispatch every idle tail.
	links := mk()
	defer closeAll(links)
	if m, err := New(Config{Topology: topo, Links: links, Source: 0, Dest: 2, AckTimeout: 64 * time.Millisecond, RetryBackoffMax: 32 * time.Millisecond}); err == nil {
		m.Close()
		t.Error("an AckTimeout of 2 hops × RetryBackoffMax was accepted")
	} else if !strings.Contains(err.Error(), "idle ack trip") {
		t.Errorf("AckTimeout inside the idle trip: %v", err)
	}
}

func TestMeshSubmitAfterClose(t *testing.T) {
	reg := metrics.New()
	topo := Topology{Nodes: 2, Links: []Link{{A: 0, B: 1}}}
	tl := buildLinks(topo, 606, reg, netlink.ImpairConfig{})
	m := newTestMesh(t, Config{
		Topology: topo, Links: tl.conns,
		Source: 0, Dest: 1,
		Seed: 606, Metrics: reg,
	})
	m.Close()
	if _, err := m.Submit([]byte("late")); err != ErrClosed {
		t.Fatalf("Submit after close: %v, want ErrClosed", err)
	}
}

// pump keeps `outstanding` payloads in flight through m until n have come
// out of Delivered, calling at(i, p) with the i-th delivery. Payload j is
// stamped(j), submitted from one buffer the loop overwrites each time.
func pump(t *testing.T, m *Mesh, n, outstanding int, at func(delivered int, p []byte)) {
	t.Helper()
	payload := make([]byte, 64)
	submit := func(i int) {
		if _, err := m.Submit(stamped(payload, i)); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	next := 0
	for ; next < outstanding && next < n; next++ {
		submit(next)
	}
	// One timer for the run: a time.After per delivery would be the heap
	// TestMeshBoundedHeap measures.
	watchdog := time.NewTimer(3 * time.Minute)
	defer watchdog.Stop()
	for got := 1; got <= n; got++ {
		var p []byte
		select {
		case p = <-m.Delivered():
		case <-watchdog.C:
			t.Fatalf("%d of %d payloads delivered in 3 minutes (stats %+v)", got-1, n, m.Stats())
		}
		if next < n {
			submit(next)
			next++
		}
		if at != nil {
			at(got, p)
		}
	}
}

// TestMeshCloseLeavesNoGoroutines: a process that builds, runs and closes
// seven meshes ends with the goroutines it started with. Every hop session
// used to start a timer wheel of its own that nothing stopped — twelve
// ticker goroutines a mesh — and the leak guard could not see them.
func TestMeshCloseLeavesNoGoroutines(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	settle := func() int {
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
			if now := runtime.NumGoroutine(); now < n {
				n = now
			} else if now == n {
				break
			}
		}
		return n
	}
	newTestMesh(t, Config{ // the process-wide wheel starts with the first mesh and stays
		Topology: fiveNode(), Links: buildLinks(fiveNode(), 1, metrics.New(), netlink.ImpairConfig{}).conns,
		Source: 0, Dest: 4, Routes: 3, Metrics: metrics.New(),
	}).Close()
	before := settle()
	for i := 0; i < 7; i++ {
		reg := metrics.New()
		m := newTestMesh(t, Config{
			Topology: fiveNode(), Links: buildLinks(fiveNode(), int64(200+i), reg, netlink.ImpairConfig{}).conns,
			Source: 0, Dest: 4, Routes: 3, Seed: int64(200 + i), Metrics: reg,
		})
		pump(t, m, 200, 16, nil)
		requireCleanHops(t, m)
		m.Close()
	}
	if after := settle(); after > before {
		t.Errorf("%d goroutines before seven meshes, %d after", before, after)
	}
}

// TestMeshBoundedHeap: what a mesh retains is a function of what is in
// flight, not of what it has carried. 50 000 payloads through the
// five-node mesh leave the heap within 256 KB of where it stood at 5 000;
// with a per-node dedup ledger of up to 4 096 keys it grew by 750 KB, and
// with a conformance checker per hop that kept every payload and a
// delivered set that kept every id it stood 170 MB higher.
func TestMeshBoundedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("50k payloads through a mesh")
	}
	reg := metrics.New()
	// ε = 2⁻⁴⁰: at the default 2⁻²⁰ a false OK is a 2⁻²⁵ event per hop message, and this test sends 200 000.
	m := newTestMesh(t, Config{
		Topology: fiveNode(), Links: buildLinks(fiveNode(), 77, reg, netlink.ImpairConfig{}).conns,
		Source: 0, Dest: 4, Routes: 3, Seed: 77, Epsilon: 1.0 / (1 << 40), Metrics: reg,
	})
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second empties what sync.Pool kept through the first
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	var early int64
	pump(t, m, 50_000, 16, func(delivered int, _ []byte) {
		if delivered == 5_000 {
			early = heap()
		}
	})
	late := heap()
	t.Logf("heap %d KB at 5k payloads, %d KB at 50k", early>>10, late>>10)
	if grew := late - early; grew > 256<<10 {
		t.Errorf("heap %d KB at 5k payloads, %d KB at 50k: grew %d KB, want under 256 KB", early>>10, late>>10, grew>>10)
	}
	requireCleanHops(t, m)
}

// TestMeshStationsOnlyOnRouteHops: frames travel only from source to
// destination along the routes, and acks ride those hops' CTLs, so the
// mesh runs stations and checkers on the hops a route uses and on no
// other. Dispersing over two of the five-node mesh's three routes, it
// reports exactly the four route hops, and the link no route uses sends
// not one packet either way, through 300 payloads and 100 ms idle after
// them. A frame that names a hop off the routes is dropped. A relay on a
// route and the relay off them, crashed and restarted, come back with
// their route hops' stations and no others, and while a relay is down no
// route through it is usable.
func TestMeshStationsOnlyOnRouteHops(t *testing.T) {
	topo := fiveNode()
	sent := make([]atomic.Int64, len(topo.Links))
	var wire atomic.Int64
	var links []LinkConns
	for li, lc := range pipeLinks(topo, 1414) {
		links = append(links, LinkConns{A: countingConn{lc.A, &sent[li], &wire}, B: countingConn{lc.B, &sent[li], &wire}})
	}
	reg := metrics.New()
	m := newTestMesh(t, Config{
		Topology: topo, Links: links,
		Source: 0, Dest: 4, Routes: 2, Seed: 1414, Metrics: reg,
	})
	routeHops := map[hopID]bool{}
	onRoute := map[int]bool{}
	for _, r := range m.Routes() {
		for j := 0; j+1 < len(r); j++ {
			routeHops[hopID{From: r[j], To: r[j+1]}] = true
			onRoute[r[j]] = true
		}
	}
	if len(routeHops) != 4 {
		t.Fatalf("routes %v have %d hops, want 4", m.Routes(), len(routeHops))
	}
	reports := m.HopReports()
	for h := range routeHops {
		if _, ok := reports[h.String()]; !ok {
			t.Errorf("no report for route hop %s", h)
		}
	}
	if len(reports) != len(routeHops) {
		t.Errorf("%d hop reports for %d route hops: %v", len(reports), len(routeHops), reports)
	}

	// stations checks that every node runs a session on each of its
	// outbound route hops and a receiver on each inbound one, and nothing
	// else; and that the mesh holds health only for route hops.
	stations := func(step string) {
		t.Helper()
		for _, n := range m.nodes {
			wantOut, wantIn := map[int]bool{}, 0
			for _, end := range n.ends {
				wantOut[end.peer] = routeHops[hopID{From: n.id, To: end.peer}]
				if routeHops[hopID{From: end.peer, To: n.id}] {
					wantIn++
				}
			}
			n.mu.Lock()
			for peer, want := range wantOut {
				if _, got := n.rt.sessions[peer]; got != want {
					t.Errorf("%s: node %d has a session to %d: %v, want %v", step, n.id, peer, got, want)
				}
			}
			if got := len(n.rt.receivers); got != wantIn {
				t.Errorf("%s: node %d runs %d receivers, want %d", step, n.id, got, wantIn)
			}
			n.mu.Unlock()
		}
		m.mu.Lock()
		for h := range m.hopHealth {
			if !routeHops[h] {
				t.Errorf("%s: the mesh holds health for %s, which no route uses", step, h)
			}
		}
		m.mu.Unlock()
	}
	idle := func(step string) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Flush(ctx); err != nil {
			t.Fatalf("%s: Flush: %v (stats %+v)", step, err, m.Stats())
		}
		time.Sleep(100 * time.Millisecond)
		for li, l := range topo.Links {
			used := routeHops[hopID{From: l.A, To: l.B}] || routeHops[hopID{From: l.B, To: l.A}]
			if got := sent[li].Load(); used != (got > 0) {
				t.Errorf("%s: link %d–%d (on a route: %v) sent %d packets", step, l.A, l.B, used, got)
			}
		}
	}

	stations("built")
	pump(t, m, 300, 16, nil)
	idle("300 payloads")

	relayOn := m.Routes()[0][1]
	relayOff := 6 - m.Routes()[0][1] - m.Routes()[1][1] // relays are 1, 2 and 3
	if onRoute[relayOff] {
		t.Fatalf("node %d is on a route %v", relayOff, m.Routes())
	}
	dropped := reg.Counter(mRelayDropped)
	was := dropped.Value()
	back := frame{ID: 1 << 40, Attempt: 1, Route: []byte{0, byte(relayOn), 0}, Payload: []byte("back")}
	m.nodes[relayOn].handleFrame(new(dedupWindow), appendFrame(nil, back))
	if got := dropped.Value() - was; got != 1 {
		t.Errorf("a frame for hop %d->0, which no route uses, counted %d in relay.dropped, want 1", relayOn, got)
	}
	for _, id := range []int{relayOn, relayOff} {
		if err := m.StopNode(id); err != nil {
			t.Fatal(err)
		}
		want := 0 // routes that avoid the stopped node
		for _, r := range m.Routes() {
			if !slices.Contains(r, id) {
				want++
			}
		}
		if got := m.Stats().RoutesUsable; got != want {
			t.Errorf("node %d stopped: %d routes usable, want the %d that avoid it", id, got, want)
		}
		if err := m.RestartNode(id); err != nil {
			t.Fatal(err)
		}
	}
	stations("restarted")
	pump(t, m, 100, 16, nil)
	idle("restarts and 100 more payloads")
	requireCleanHops(t, m)
}

// TestMeshRestingHeap: what a running mesh holds is what it has in flight.
// Built over perfect pipes and run through 5 000 payloads at 16
// outstanding, the five-node mesh — twelve pipe directions, a session, a
// receiver and a checker on each of its three routes' six hops, the
// source's table — leaves the heap at most 320 KB above where it stood
// before its pipes were made, with a warm-up mesh run and closed first:
// 140–168 KB idle (median 151 KB over 20 runs, each the first test of its
// process), 153–290 KB on two cores with the other one busy (40 runs).
// Without the warm-up the first test of a process counted once-per-process
// allocations as the mesh's and read 181–198 KB idle, up to 231 KB. With
// every free list a channel made at its bound it held a
// median of 152 KB idle; with stations on the six hops no route uses as
// well, 240–255 KB idle and 275–330 KB busy. With a 512-deep channel for each
// pipe direction, 88-byte checker records and deliveries that pinned the
// frame they came in, it held 610–670 KB; with checkers that kept two
// generations of 96 records (about 21 KB each) and a 64-deep mailbox on
// every station endpoint, which push-mode stations never read, it held
// 480–490 KB.
// The reading is clean only because the timer wheel lets go of the
// callbacks it has fired: before, the process-wide wheel kept a closed
// mesh of an earlier test alive until later timers overwrote them.
func TestMeshRestingHeap(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's shadow state and sync.Pool drops move the heap")
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second empties what sync.Pool kept through the first
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	cfg := func() Config {
		return Config{
			Topology: fiveNode(), Links: pipeLinks(fiveNode(), 1212),
			Source: 0, Dest: 4, Routes: 3, Seed: 1212, Epsilon: 1.0 / (1 << 40), Metrics: metrics.New(),
		}
	}
	// A warm-up mesh, run and closed before the first reading: what the
	// first mesh of a process allocates once and keeps must not count as
	// this one's.
	warm := newTestMesh(t, cfg())
	pump(t, warm, 200, 16, nil)
	warm.Close()
	before := heap()
	m := newTestMesh(t, cfg())
	pump(t, m, 5_000, 16, nil)
	grew := heap() - before
	t.Logf("a running mesh: %d KB", grew>>10)
	if grew > 320<<10 {
		t.Errorf("a mesh at rest after 5 000 payloads holds %d KB, want at most 320 KB", grew>>10)
	}
	requireCleanHops(t, m)
}
