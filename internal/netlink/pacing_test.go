package netlink_test

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"ghm/internal/bitstr"
	"ghm/internal/clock"
	"ghm/internal/core"
	"ghm/internal/engine"
	"ghm/internal/fabric"
	"ghm/internal/metrics"
	"ghm/internal/netlink"
	"ghm/internal/trace"
	"ghm/internal/wire"
)

// The tests in this file pin when a receiving station puts a CTL on the
// wire: one per delivery on a busy link and no other, RETRY on a slot only
// when the slot has been quiet for its gap, at once when the slot extends
// its challenge, and never later because packets that earn no reply keep
// arriving. They run a real netlink.Receiver on a virtual clock over a
// fabric link, inside clock events and on the test's goroutine alone, so a
// seed is a schedule and every instant below is exact: no sleeps, no
// settling. The far end is the protocol's transmitter machine
// (core.WindowedTransmitter) driven the same way — netlink.Sender's Send
// blocks, which takes a goroutine per client and a clock that waits for
// them, and it adds nothing to the pacing under test: the machine is what
// decides every DATA packet.

// wheelTick is the engine wheel's tick: how late, at most, a due RETRY
// leaves.
const wheelTick = 100 * time.Microsecond

type pacingConfig struct {
	window   int
	link     netlink.LinkModel
	interval time.Duration
	backoff  time.Duration
	seed     int64
}

// ctlSeen is one CTL packet the receiver put on the wire.
type ctlSeen struct {
	at    time.Duration // since the rig was built
	slot  int
	retry bool // RETRY sent it: it is not the reply to a delivery
}

type pacingRig struct {
	t            *testing.T
	v            *clock.Virtual
	t0           time.Time
	k            int
	reg          *metrics.Registry
	wt           *core.WindowedTransmitter
	r            *netlink.Receiver
	tPort, rPort *fabric.Port

	withhold func(data []byte) bool // DATA packets the receiver never sees
	onOK     func(slot int)

	ctls      []ctlSeen
	lastCTL   []byte // the latest of them, as the station wrote it
	replies   []int  // per slot: deliveries whose CTL has yet to leave
	firstData []byte
	dataSent  int
	admitted  uint64
	confirmed int
	delivered int
}

// wireConn is the receiver's conn: what the station sends goes onto the
// fabric, noted, and nothing ever comes out of Recv — arrivals reach the
// station through HandlePacket, inside the clock event that lands them.
type wireConn struct {
	rig    *pacingRig
	closed chan struct{}
	once   sync.Once
}

func (c *wireConn) Send(p []byte) error {
	g := c.rig
	p = p[1:] // the engine's endpoint id; the wire carries the station's packet
	seen := ctlSeen{at: g.now(), slot: g.slotOf(p)}
	if g.replies[seen.slot] > 0 {
		g.replies[seen.slot]--
	} else {
		seen.retry = true
	}
	g.ctls = append(g.ctls, seen)
	g.lastCTL = append(g.lastCTL[:0], p...)
	return g.rPort.Send(p)
}

func (c *wireConn) Recv() ([]byte, error) {
	<-c.closed
	return nil, netlink.ErrClosed
}

func (c *wireConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func newPacingRig(t *testing.T, cfg pacingConfig) *pacingRig {
	t.Helper()
	v := clock.NewVirtual(time.Time{}, cfg.seed)
	g := &pacingRig{t: t, v: v, t0: v.Now(), k: cfg.window, reg: metrics.New(), replies: make([]int, cfg.window)}
	g.tPort, g.rPort = fabric.New(fabric.Config{Clock: v, Seed: cfg.seed}).Link(fabric.LinkConfig{LinkModel: cfg.link})
	var err error
	if g.wt, err = core.NewWindowedTransmitter(cfg.window, core.Params{Source: bitstr.NewSeededSource(cfg.seed)}); err != nil {
		t.Fatal(err)
	}
	eng := engine.New(&wireConn{rig: g, closed: make(chan struct{})}, engine.Config{MaxEndpoints: 1, Metrics: g.reg, Wheel: engine.NewWheelOn(v, 0, 0)})
	t.Cleanup(func() { eng.Close() })
	ep, err := eng.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	g.r, err = netlink.NewReceiver(ep, netlink.ReceiverConfig{
		Window:          cfg.window,
		Params:          core.Params{Source: bitstr.NewSeededSource(cfg.seed + 1)},
		RetryInterval:   cfg.interval,
		RetryBackoffMax: cfg.backoff,
		Metrics:         g.reg,
		Deliver:         func([]byte) { g.delivered++ },
		Tap: func(kind trace.Kind, _ []byte, slot int) {
			if kind == trace.KindReceiveMsg {
				g.replies[slot]++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.r.Close() })
	g.rPort.SetHandler(func(p []byte) {
		if g.withhold == nil || !g.withhold(p) {
			g.r.HandlePacket(p)
		}
	})
	g.tPort.SetHandler(func(p []byte) {
		pkt, slot, _ := g.wt.AppendReceivePacket(nil, p)
		g.transmit(pkt)
		if slot >= 0 {
			g.confirmed++
			if g.onOK != nil {
				g.onOK(slot)
			}
		}
	})
	return g
}

func (g *pacingRig) now() time.Duration { return g.v.Now().Sub(g.t0) }

// slotOf reads the slot id a framed window writes ahead of every packet.
func (g *pacingRig) slotOf(p []byte) int {
	if !core.Framed(g.k) {
		return 0
	}
	return int(p[0])
}

func (g *pacingRig) count(name string) int { return int(g.reg.Snapshot().Counters[name]) }

// send is send_msg on slot: a 64-byte message, behind the epoch and
// admission number a framed window's receiver releases by.
func (g *pacingRig) send(slot int) {
	g.t.Helper()
	var payload []byte
	if core.Framed(g.k) {
		payload = binary.AppendUvarint(binary.AppendUvarint(payload, 0), g.admitted)
	}
	payload = append(payload, make([]byte, 64)...)
	g.admitted++
	pkt, err := g.wt.AppendSendMsg(nil, slot, payload)
	if err != nil {
		g.t.Fatalf("send_msg on slot %d: %v", slot, err)
	}
	g.transmit(pkt)
}

func (g *pacingRig) transmit(pkt []byte) {
	if len(pkt) == 0 {
		return
	}
	if g.firstData == nil {
		g.firstData = pkt
	}
	g.dataSent++
	if err := g.tPort.Send(pkt); err != nil {
		g.t.Fatalf("transmitter send: %v", err)
	}
}

// runUntil steps the clock, one instant at a time, until done reports true.
func (g *pacingRig) runUntil(what string, done func() bool) {
	g.t.Helper()
	for limit := g.now() + time.Minute; !done(); {
		if g.now() > limit || !g.v.Step() {
			g.t.Fatalf("at %v: still waiting for %s", g.now(), what)
		}
	}
}

func (g *pacingRig) runFor(d time.Duration) { g.v.AdvanceBy(d) }

// forge builds a DATA packet no transmitter sent, for a depth-1 station:
// its challenge has the length of the receiver's current one, read off the
// latest CTL as an eavesdropper would, and other bits — the packet a replay
// adversary wishes it had a stock of, because the receiver must count it.
func (g *pacingRig) forge(src bitstr.Source) []byte {
	g.t.Helper()
	ctl, err := wire.DecodeCtl(g.lastCTL)
	if err != nil {
		g.t.Fatalf("latest CTL does not decode: %v", err)
	}
	rho := src.Draw(ctl.Rho.Len())
	for rho.Equal(ctl.Rho) {
		rho = src.Draw(ctl.Rho.Len())
	}
	return wire.AppendData(nil, wire.Data{Msg: []byte("forged"), Rho: rho, Tau: bitstr.One().Concat(src.Draw(24))})
}

// gaps returns the time from each CTL in seen to the next.
func gaps(seen []ctlSeen) []time.Duration {
	var out []time.Duration
	for i := 1; i < len(seen); i++ {
		out = append(out, seen[i].at-seen[i-1].at)
	}
	return out
}

// TestStationRetryOnlyWhenQuiet is the busy link: k messages kept
// outstanding over 2 ms + 2 ms of jitter each way, RETRY every 9 ms — the
// benchmark's link-wan. Every slot's next DATA arrives within 8 ms of the
// CTL that acknowledged the last one, so no slot is ever quiet for an
// interval and the receiver sends its one CTL per delivery and nothing
// else. (Firing every slot every interval, whatever it last sent, cost
// about 0.7 RETRY CTLs a message at depth 8, each answered by a duplicate
// DATA.) With 0.3 % loss the only extra packets are the lost ones' RETRYs.
func TestStationRetryOnlyWhenQuiet(t *testing.T) {
	const messages = 2000
	for _, k := range []int{1, 8} {
		for _, loss := range []float64{0, 0.003} {
			t.Run(fmt.Sprintf("depth=%d/loss=%v", k, loss), func(t *testing.T) {
				g := newPacingRig(t, pacingConfig{
					window:   k,
					link:     netlink.LinkModel{Latency: 2 * time.Millisecond, Jitter: 2 * time.Millisecond, Loss: loss},
					interval: 9 * time.Millisecond,
					seed:     7,
				})
				// A closed loop per slot, for as long as the clock runs: the
				// window never drains, so no slot falls quiet for want of work.
				oks := make([]int, k)
				g.onOK = func(slot int) { oks[slot]++; g.send(slot) }
				for slot := 0; slot < k; slot++ {
					g.send(slot)
				}
				// A fresh pair has to wait for the first RETRY to carry a
				// challenge over; the books open once every slot is past that.
				g.runUntil("every slot's first OK", func() bool {
					for _, n := range oks {
						if n == 0 {
							return false
						}
					}
					return true
				})
				confirmed, ctls, data := g.confirmed, len(g.ctls), g.dataSent
				delivered, retries, retryCTLs := g.count("rx.delivered"), g.count("rx.retries"), g.count("rx.retry_ctls")
				g.runUntil("2000 more OKs", func() bool { return g.confirmed >= confirmed+messages })

				ctls, data = len(g.ctls)-ctls, g.dataSent-data
				delivered, retries, retryCTLs = g.count("rx.delivered")-delivered, g.count("rx.retries")-retries, g.count("rx.retry_ctls")-retryCTLs
				pkts := float64(ctls+data) / messages
				t.Logf("%d OKs: %d DATA, %d CTL (%d by RETRY, in %d firings), %.3f packets a message", messages, data, ctls, retryCTLs, retries, pkts)
				if loss == 0 {
					if ctls != delivered || retries != 0 || retryCTLs != 0 {
						t.Errorf("%d deliveries drew %d CTLs, %d of them from %d RETRY firings; want one CTL a delivery and no RETRY", delivered, ctls, retryCTLs, retries)
					}
					return
				}
				if pkts > 2.1 {
					t.Errorf("%.3f packets a message, want <= 2.1", pkts)
				}
				if retryCTLs == 0 || g.tPort.Stats().DropIID+g.rPort.Stats().DropIID == 0 {
					t.Errorf("nothing was lost (%d RETRY CTLs): the lossy run proved nothing", retryCTLs)
				}
				if ctls != delivered+retryCTLs {
					t.Errorf("%d CTLs for %d deliveries and %d RETRYs", ctls, delivered, retryCTLs)
				}
				// Every message confirms: stop admitting and the window drains.
				g.onOK = nil
				g.runUntil("the window to drain", func() bool { return g.wt.InFlight() == 0 })
				if g.confirmed != int(g.admitted) {
					t.Errorf("%d messages admitted, %d confirmed", g.admitted, g.confirmed)
				}
			})
		}
	}
}

// TestStationQuietSlotStillRetries is liveness: a slot that hears nothing
// fires RETRY one interval after its last CTL, give or take a wheel tick,
// then at doubling gaps up to RetryBackoffMax, then once a cap for as long
// as the silence lasts; and in a deep window the quiet slot retries alone.
func TestStationQuietSlotStillRetries(t *testing.T) {
	t.Run("depth=1/backoff", func(t *testing.T) {
		const (
			interval = 950 * time.Microsecond // not a whole number of ticks
			backoff  = 8 * interval
		)
		g := newPacingRig(t, pacingConfig{window: 1, link: netlink.LinkModel{Latency: 200 * time.Microsecond}, interval: interval, backoff: backoff, seed: 3})
		g.send(0)
		g.runUntil("the first OK", func() bool { return g.confirmed == 1 })
		last := len(g.ctls) - 1 // the acknowledgement: the slot's last CTL before the silence
		g.runFor(interval + 2*interval + 4*interval + 11*backoff)
		want := []time.Duration{interval, 2 * interval, 4 * interval}
		for len(want) < 3+10 {
			want = append(want, backoff)
		}
		got := gaps(g.ctls[last:])
		if len(got) < len(want) {
			t.Fatalf("%d RETRYs in the silence, want at least %d: gaps %v", len(got), len(want), got)
		}
		for i, w := range want {
			if got[i] < w || got[i] > w+wheelTick {
				t.Errorf("RETRY %d left %v after the CTL before it, want within [%v, %v]", i+1, got[i], w, w+wheelTick)
			}
		}
		if n := g.count("rx.retry_ctls"); n != len(g.ctls)-1 {
			t.Errorf("rx.retry_ctls = %d, want every CTL but the acknowledgement: %d", n, len(g.ctls)-1)
		}
	})

	t.Run("depth=8/one slot withheld", func(t *testing.T) {
		const (
			interval = 9 * time.Millisecond
			quiet    = 3 // the slot whose DATA goes missing
		)
		g := newPacingRig(t, pacingConfig{window: 8, link: netlink.LinkModel{Latency: 2 * time.Millisecond, Jitter: 2 * time.Millisecond}, interval: interval, seed: 11})
		g.onOK = func(slot int) { g.send(slot) }
		for slot := 0; slot < 8; slot++ {
			g.send(slot)
		}
		g.runUntil("the window to warm up", func() bool { return g.confirmed >= 64 })
		from := len(g.ctls)
		g.withhold = func(data []byte) bool { return g.slotOf(data) == quiet }
		retriesOf := func() (n int) {
			for _, c := range g.ctls[from:] {
				if c.retry {
					n++
				}
			}
			return n
		}
		// Four is as long as the other seven may run on: their deliveries
		// park behind the missing one, and the window holds 128.
		g.runUntil("four RETRYs", func() bool { return retriesOf() >= 4 })
		var asked []ctlSeen // the quiet slot's last reply, then its RETRYs
		for i, c := range g.ctls {
			switch {
			case i < from || !c.retry:
				if c.slot == quiet {
					asked = append(asked[:0], c)
				}
			case c.slot != quiet:
				t.Errorf("at %v slot %d fired RETRY; only slot %d is quiet", c.at, c.slot, quiet)
			default:
				asked = append(asked, c)
			}
		}
		for i, gap := range gaps(asked) {
			if gap < interval || gap > interval+wheelTick {
				t.Errorf("slot %d's RETRY %d left %v after its CTL before, want within [%v, %v]", quiet, i+1, gap, interval, interval+wheelTick)
			}
		}
		if n := g.count("rx.retries"); n != len(asked) { // the firing that opened the link, and one a RETRY
			t.Errorf("rx.retries = %d, want %d: a firing for each RETRY CTL and no other", n, len(asked))
		}
		// The slot's next RETRY gets through, and everything confirms.
		g.withhold, g.onOK = nil, nil
		g.runUntil("the window to drain", func() bool { return g.wt.InFlight() == 0 })
		if g.confirmed != int(g.admitted) || g.delivered != g.confirmed {
			t.Errorf("%d admitted, %d confirmed, %d released in order", g.admitted, g.confirmed, g.delivered)
		}
	})
}

// TestStationReplayFloodCannotStarveRetry: an adversary who wants the
// transmitter never to learn the receiver's challenge keeps the receiver
// busy with packets that earn no reply — here the worst of them, forged at
// the current challenge's length so that each is counted, four an interval
// for a hundred intervals, with the transmitter's own DATA withheld. RETRY
// still leaves once an interval: only a CTL the slot sent moves its due
// time later. The extensions the flood buys add CTLs of their own, a
// number logarithmic in the flood, and none replaces a due one.
func TestStationReplayFloodCannotStarveRetry(t *testing.T) {
	const (
		interval  = 2 * time.Millisecond
		intervals = 100
		forged    = 4 * intervals
	)
	for _, backoff := range []time.Duration{0, 16 * interval} {
		t.Run(fmt.Sprintf("backoff=%v", backoff), func(t *testing.T) {
			g := newPacingRig(t, pacingConfig{window: 1, link: netlink.LinkModel{Latency: 100 * time.Microsecond}, interval: interval, backoff: backoff, seed: 5})
			g.send(0)
			g.runUntil("the first OK", func() bool { return g.confirmed == 1 })
			g.withhold = func([]byte) bool { return true }
			g.send(0) // the message the flood is there to stall

			src := bitstr.NewSeededSource(99)
			for i := 0; i < forged; i++ {
				g.v.AfterFunc(time.Duration(i)*interval/4, func() { g.r.HandlePacket(g.forge(src)) })
			}
			from := len(g.ctls) - 1
			errors, extensions := g.count("rx.errors_counted"), g.count("rx.challenge_extensions")
			g.runFor(intervals * interval)

			seen := g.ctls[from:]
			for i, gap := range gaps(seen) {
				if gap > interval+wheelTick {
					t.Errorf("at %v: %v since the last CTL, want at most %v", seen[i+1].at, gap, interval+wheelTick)
				}
			}
			errors, extensions = g.count("rx.errors_counted")-errors, g.count("rx.challenge_extensions")-extensions
			t.Logf("%d forged packets in %d intervals: %d counted, %d extensions, %d CTLs", forged, intervals, errors, extensions, len(seen)-1)
			if errors != forged {
				t.Errorf("the receiver counted %d of %d forged packets: the flood did not keep it busy", errors, forged)
			}
			// bound(t) doubles: 1 + 1 + 2 + 4 + ... packets buy one extension each.
			if extensions < 5 || extensions > 10 {
				t.Errorf("%d forged packets bought %d extensions, want about log2", forged, extensions)
			}
			if early := g.count("rx.retry_early"); early > extensions {
				t.Errorf("%d early firings for %d extensions", early, extensions)
			}
			// A CTL of either kind restarts the slot's interval, so the count is
			// bounded both ways: no gap longer than an interval and a tick, no
			// CTL that is neither due nor bought by an extension.
			if n, least := len(seen)-1, int(intervals*interval/(interval+wheelTick)); n < least || n > intervals+extensions {
				t.Errorf("%d CTLs in %d intervals with %d extensions, want %d to %d", n, intervals, extensions, least, intervals+extensions)
			}
			if g.confirmed != 1 {
				t.Fatalf("the withheld message confirmed")
			}
		})
	}
}

// TestStationExtensionAsksAtOnce: a stale DATA of the right length extends
// the receiver's challenge (bound(1) = 0), and the transmitter's DATA
// already on its way answers a challenge that no longer exists. The
// receiver says so at once, not a retry interval — here a second — later;
// and what it says is bounded: one CTL an extension, extensions logarithmic
// in the replays.
func TestStationExtensionAsksAtOnce(t *testing.T) {
	const (
		interval = time.Second
		flight   = 200 * time.Microsecond
	)
	g := newPacingRig(t, pacingConfig{window: 1, link: netlink.LinkModel{Latency: flight}, interval: interval, seed: 13})
	g.send(0)
	g.runUntil("the first OK", func() bool { return g.confirmed == 1 }) // waits out the first interval
	g.send(0)
	g.runUntil("the second OK", func() bool { return g.confirmed == 2 })
	// The first DATA answers the challenge two exchanges back: same length,
	// other bits, and too old to pass for a late answer to the last one.
	stale := g.firstData

	g.send(0) // DATA for the current challenge is in flight
	sent := g.now()
	g.r.HandlePacket(stale)
	g.runUntil("the third OK", func() bool { return g.confirmed == 3 })
	// A tick for the RETRY, its flight, the DATA's, the acknowledgement's.
	if took := g.now() - sent; took > wheelTick+3*flight {
		t.Errorf("the message confirmed %v after the extension, want within %v (the retry interval is %v)", took, wheelTick+3*flight, interval)
	}
	// The first interval's one due RETRY, three deliveries, one extension:
	// five CTLs.
	for name, want := range map[string]int{
		"rx.packets_sent": 5, "rx.delivered": 3, "rx.challenge_extensions": 1,
		"rx.retries": 2, "rx.retry_ctls": 2, "rx.retry_early": 1,
	} {
		if got := g.count(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if len(g.ctls) != 5 {
		t.Errorf("%d CTLs on the wire, want 5", len(g.ctls))
	}

	// No amplification: 64 forged packets, each counted, more than a tick
	// apart so that no two extensions can share a CTL, buy 1+1+2+4+8+16+32 =
	// 64 packets' worth of extensions — seven — and seven CTLs.
	src := bitstr.NewSeededSource(17)
	for i := 0; i < 64; i++ {
		g.r.HandlePacket(g.forge(src))
		g.runFor(wheelTick + wheelTick/2)
	}
	if ext, ctls, early := g.count("rx.challenge_extensions")-1, len(g.ctls)-5, g.count("rx.retry_early")-1; ext != 7 || ctls != ext || early != ext {
		t.Errorf("64 forged packets: %d extensions, %d CTLs in %d early firings; want 7 of each", ext, ctls, early)
	}
}

// TestStationCrashOnIdleLinkRecovers: after crash^T or crash^R between
// messages the next message still confirms within about an interval — the
// crashed side's memory comes back with the idle link's next RETRY.
func TestStationCrashOnIdleLinkRecovers(t *testing.T) {
	const (
		interval = 9 * time.Millisecond
		flight   = 2 * time.Millisecond
	)
	idle := func(t *testing.T, quiet time.Duration) *pacingRig {
		g := newPacingRig(t, pacingConfig{window: 1, link: netlink.LinkModel{Latency: flight}, interval: interval, seed: 21})
		g.send(0)
		g.runUntil("the first OK", func() bool { return g.confirmed == 1 })
		g.runFor(quiet)
		return g
	}
	t.Run("crash^T", func(t *testing.T) {
		g := idle(t, 5*interval+interval/3)
		g.wt.Crash()
		g.send(0) // knows no challenge: nothing leaves until a RETRY brings one
		sent := g.now()
		g.runUntil("the OK after crash^T", func() bool { return g.confirmed == 2 })
		// The wait for the slot's next RETRY, then CTL, DATA, CTL.
		if took := g.now() - sent; took > interval+wheelTick+3*flight {
			t.Errorf("confirmed %v after the send, want within %v", took, interval+wheelTick+3*flight)
		}
	})
	t.Run("crash^R", func(t *testing.T) {
		// Straight after an exchange: the transmitter's throttle stands at 1,
		// and the reborn receiver counts its RETRYs from 1 again, so its
		// first CTL — the one the extension sends at once — is throttled and
		// the second, an interval later, gets through.
		g := idle(t, interval/3)
		g.r.Crash()
		g.send(0) // answers the challenge the crash erased
		sent := g.now()
		g.runUntil("the OK after crash^R", func() bool { return g.confirmed == 2 })
		// DATA, the extension's CTL a tick later, an interval, then CTL, DATA, CTL.
		if took := g.now() - sent; took > interval+2*wheelTick+4*flight {
			t.Errorf("confirmed %v after the send, want within %v", took, interval+2*wheelTick+4*flight)
		}
	})
}
