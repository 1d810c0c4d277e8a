package relay

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ghm/internal/bitstr"
	"ghm/internal/metrics"
	"ghm/internal/netlink"
	"ghm/internal/wire"
)

// recordingConn keeps a copy of every packet its station end sends — the
// CTLs of the hop toward this link's A node, the one station on the link
// — and lets the test send packets of its own through it.
type recordingConn struct {
	netlink.PacketConn
	mu   sync.Mutex
	ctls [][]byte
}

func (c *recordingConn) Send(p []byte) error {
	c.mu.Lock()
	c.ctls = append(c.ctls, bytes.Clone(p))
	c.mu.Unlock()
	return c.PacketConn.Send(p)
}

// recorded returns the CTLs sent so far.
func (c *recordingConn) recorded() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.ctls...)
}

// inject puts ctl on the wire toward the source's sender, unrecorded.
func (c *recordingConn) inject(ctl []byte) { c.PacketConn.Send(ctl) }

// TestMeshAckTrailerAttacks is SECURITY_MODEL.md's V12: forged, corrupted
// or replayed ack trailers. A three-node line, source 0, relay 1,
// destination 2, delivers and acks 20 payloads while the test records
// every CTL the relay sends the source. Then the relay's link to the
// destination goes dark and 10 more payloads reach the relay and wait
// there, undelivered; the CTLs that ack them to the source, and the RETRYs
// that repeat the last one at rest, carry the sender's current or last
// tag, so they vouch. At the source's sender the test mounts, each with a
// trailer F that acks everything:
//   - a blind flood of CTL-shaped random packets, as long as the genuine
//     ones, each sealed with a check of its own — a forger that makes the
//     whole packet can do that, and only the vouch rule stops it;
//   - every recorded CTL replayed as it was;
//   - every recorded CTL with its trailer swapped for F, check kept;
//   - each CTL recorded since the relay got the 10 — they vouch — with one
//     byte appended after its check, for all 256 values of it, and with F
//     appended after its check under 16 guessed checks of F's own.
//
// None may retire a payload the destination has not got: Stats().Acked
// stays at 20, and every swapped or appended CTL fails its check and is
// dropped. When the link heals, the 10 are delivered and acked, and Acked
// is exactly 30.
func TestMeshAckTrailerAttacks(t *testing.T) {
	reg := metrics.New()
	a0, b0 := netlink.Pipe(netlink.PipeConfig{Seed: 41})
	rec := &recordingConn{PacketConn: b0}
	a1, b1 := netlink.Pipe(netlink.PipeConfig{Seed: 42})
	dark := [2]*netlink.ImpairedConn{netlink.Impair(a1, netlink.ImpairConfig{Seed: 43}), netlink.Impair(b1, netlink.ImpairConfig{Seed: 44})}
	m := newTestMesh(t, Config{
		Topology: Topology{Nodes: 3, Links: []Link{{A: 0, B: 1}, {A: 1, B: 2}}},
		Links:    []LinkConns{{A: a0, B: rec}, {A: dark[0], B: dark[1]}},
		Source:   0, Dest: 2, Routes: 1,
		AckTimeout: time.Hour, WatchdogWindow: time.Hour,
		Seed: 41, Metrics: reg,
	})
	mu, got, done := drain(m)
	var want []string
	submit := func(from, to int) {
		for i := from; i < to; i++ {
			p := fmt.Sprintf("payload-%02d", i)
			want = append(want, p)
			if _, err := m.Submit([]byte(p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	submit(0, 20)
	if err := m.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v (stats %+v)", err, m.Stats())
	}
	old := len(rec.recorded())

	dark[0].SetBlackout(true)
	dark[1].SetBlackout(true)
	submit(20, 30)
	if err := m.nodes[0].sessionTo(1).Flush(ctx); err != nil { // all ten are at the relay
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // a RETRY or two at rest
	all := rec.recorded()
	recent := all[old:]
	if len(recent) == 0 {
		t.Fatal("no CTL recorded since the relay got the ten")
	}
	holds := func(attack string) {
		t.Helper()
		time.Sleep(20 * time.Millisecond) // the router retires what a state covers after the pump hands it on
		if st := m.Stats(); st.Acked != 20 || st.Pending != 10 || st.Delivered != 20 {
			t.Fatalf("after %s: %+v, want 20 acked, 10 pending", attack, st)
		}
	}
	// refuses puts pkts on the wire, each of which the sender must drop,
	// a few at a time so the pipe's queue never overflows: the test waits
	// for tx.replay_rejections, which also counts CTLs the protocol ignores
	// on any hop, to grow by as many before it sends more.
	rejections := reg.Counter("tx.replay_rejections")
	refuses := func(attack string, pkts [][]byte) {
		t.Helper()
		for len(pkts) > 0 {
			n := min(len(pkts), 16)
			before := rejections.Value()
			for _, p := range pkts[:n] {
				rec.inject(p)
			}
			for deadline := time.Now().Add(10 * time.Second); rejections.Value()-before < int64(n); time.Sleep(50 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s: %d of %d CTLs refused", attack, rejections.Value()-before, n)
				}
			}
			pkts = pkts[n:]
		}
		holds(attack)
	}

	forged := appendState(nil, 1<<20, nil)
	genuine, _, _, ok := splitCTL(recent[len(recent)-1])
	if !ok {
		t.Fatalf("recorded CTL % x has no trailer", recent[len(recent)-1])
	}
	shape, err := wire.DecodeCtl(genuine)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(45))
	src := bitstr.NewMathSource(rng)
	flood := make([][]byte, 3000)
	for i := range flood {
		ctl := wire.AppendCtl(nil, wire.Ctl{Rho: src.Draw(shape.Rho.Len()), Tau: src.Draw(shape.Tau.Len()), I: shape.I + uint64(i%4)})
		flood[i] = seal(ctl, forged)
	}
	refuses("a blind flood", flood) // the sender is idle: its protocol ignores a CTL that does not vouch

	for _, p := range all {
		rec.inject(p)
	}
	holds("replayed CTLs")

	var swapped, appended [][]byte
	for _, p := range all {
		if ctl, _, check, ok := splitCTL(p); ok {
			swapped = append(swapped, append(append(bytes.Clone(ctl), forged...), check...))
		}
	}
	refuses("recorded CTLs with their trailers swapped", swapped)
	for _, p := range recent {
		for l := 0; l < 256; l++ {
			appended = append(appended, append(bytes.Clone(p), byte(l)))
		}
		for range 16 {
			guess := make([]byte, netlink.TrailerCheck)
			rng.Read(guess)
			appended = append(appended, append(append(bytes.Clone(p), forged...), guess...))
		}
	}
	refuses("vouching CTLs with bytes appended", appended)

	dark[0].SetBlackout(false)
	dark[1].SetBlackout(false)
	if err := m.Flush(ctx); err != nil {
		t.Fatalf("Flush after healing: %v (stats %+v)", err, m.Stats())
	}
	if st := m.Stats(); st.Acked != 30 || reg.Counter(mRelayAcks).Value() != 30 {
		t.Errorf("%+v, relay.acks %d: want exactly 30 acked", st, reg.Counter(mRelayAcks).Value())
	}
	m.Close()
	<-done
	requireExactlyOnce(t, mu, got, want)
	requireCleanHops(t, m)
}

// splitCTL splits a recorded CTL, ctl ‖ trailer ‖ check, into its parts
// without checking the check: the CTL ends where it parses.
func splitCTL(p []byte) (ctl, trailer, check []byte, ok bool) {
	_, rest, err := wire.ParseCtl(p)
	if err != nil || len(rest) < netlink.TrailerCheck {
		return nil, nil, nil, false
	}
	end := len(p) - netlink.TrailerCheck
	return p[:len(p)-len(rest)], p[len(p)-len(rest) : end], p[end:], true
}

// seal frames ctl with trailer tr as a hop receiver does — as any forger
// can for a CTL it makes whole.
func seal(ctl, tr []byte) []byte {
	p := append(bytes.Clone(ctl), tr...)
	sum := sha256.Sum256(p)
	return append(p, sum[:netlink.TrailerCheck]...)
}
