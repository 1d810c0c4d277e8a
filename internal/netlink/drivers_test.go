package netlink_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"ghm/internal/clock"
	"ghm/internal/metrics"
	"ghm/internal/netlink"
)

// arrival is one packet reaching the far end of a link, on virtual time.
type arrival struct {
	at  time.Duration
	pkt byte
}

func sortArrivals(a []arrival) {
	sort.Slice(a, func(i, j int) bool {
		if a[i].at != a[j].at {
			return a[i].at < a[j].at
		}
		return a[i].pkt < a[j].pkt
	})
}

// inlineConn is a perfect Pipe end: SetHandler gives it inline ingress.
type inlineConn interface{ SetHandler(fn func(p []byte)) }

// driverModels are the link models the driver differential runs. The
// first and third have Fates that read no clock: no bandwidth, and a
// queue cap the test's 40 packets never reach.
var driverModels = []struct {
	name      string
	model     netlink.LinkModel
	clockless bool
}{
	{"loss, dup, latency, jitter", netlink.LinkModel{Loss: 0.2, DupProb: 0.3, Latency: 700 * time.Microsecond, Jitter: 900 * time.Microsecond}, true},
	{"burst, bandwidth, short queue", netlink.LinkModel{
		Burst:     &netlink.GilbertElliott{PGoodBad: 0.2, PBadGood: 0.3, LossBad: 0.9},
		Bandwidth: 150_000, Queue: 6,
	}, false},
	{"reorder, dup", netlink.LinkModel{ReorderProb: 0.5, ReleaseEvery: 400 * time.Microsecond, DupProb: 0.2}, true},
	{"everything", netlink.LinkModel{
		Loss: 0.1, DupProb: 0.2, ReorderProb: 0.3, Latency: 300 * time.Microsecond, Jitter: 500 * time.Microsecond, Bandwidth: 400_000, Queue: 12,
		Burst: &netlink.GilbertElliott{PGoodBad: 0.1, PBadGood: 0.4, LossGood: 0.05, LossBad: 0.8},
	}, false},
}

const (
	driverPackets = 40
	driverGap     = 250 * time.Microsecond // between the feed's pairs of packets
)

// driverFeed is packet i of the differential: its size varies, its first
// byte names it, and packets 20 to 23 go into a blackout.
func driverFeed(i int) (pkt []byte, dark bool) {
	pkt = make([]byte, 20+i%6*20)
	pkt[0] = byte(i)
	return pkt, i >= 20 && i < 24
}

// TestLinkDriversAgree is the differential of the two clocks under the
// one driver of netlink.Link, the impairment stage. Each of 4 models × 20
// seeds is fed 40 packets, two at a time, with a blackout switched on and
// off in the middle.
//
// On a virtual clock the stage's delays are clock events: every packet
// must reach the far end of a perfect Pipe at the exact instant a bare
// Link, fed the same packets at the same instants and landed at the same
// instants, says, and the Stats of the two must be equal. On the wall
// clock the stage's delays are its goroutine's timer: for the models whose
// Fate reads no clock it must deliver the same multiset of packets, with
// equal Stats.
func TestLinkDriversAgree(t *testing.T) {
	for _, tc := range driverModels {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				t.Run("virtual", func(t *testing.T) { virtualDriverAgrees(t, tc.model, seed) })
				if tc.clockless {
					t.Run("wall", func(t *testing.T) { wallDriverAgrees(t, tc.model, seed) })
				}
			})
		}
	}
}

func virtualDriverAgrees(t *testing.T, model netlink.LinkModel, seed int64) {
	v := clock.NewVirtual(time.Time{}, seed)
	start := v.Now()
	a, b := netlink.Pipe(netlink.PipeConfig{Clock: v})
	var got []arrival
	b.(inlineConn).SetHandler(func(p []byte) { got = append(got, arrival{v.Now().Sub(start), p[0]}) })
	imp := netlink.Impair(a, netlink.ImpairConfig{LinkModel: model, Seed: seed, Clock: v, Metrics: metrics.New()})
	defer imp.Close()

	// The reference: a bare Link fed the same packets at the same instants.
	// The feed's events are armed first, so at an instant where a feed and
	// a landing meet the feed goes first; a copy due at once lands in its
	// Send.
	var (
		ref     netlink.Link
		want    []arrival
		pending []time.Duration // instants of the copies still in flight
	)
	ref.Init(model, seed)
	landBefore := func(at time.Duration) {
		kept := pending[:0]
		for _, p := range pending {
			if p < at {
				ref.Land()
			} else {
				kept = append(kept, p)
			}
		}
		pending = kept
	}
	for i := 0; i < driverPackets; i++ {
		pkt, dark := driverFeed(i)
		at := time.Duration(i/2) * driverGap
		v.AfterFunc(at, func() {
			imp.SetBlackout(dark)
			if err := imp.Send(pkt); err != nil {
				t.Errorf("Send: %v", err)
			}
		})
		landBefore(at)
		ref.SetBlackout(dark)
		f := ref.Fate(start.Add(at), len(pkt))
		for _, d := range f.Delay[:f.N] {
			want = append(want, arrival{at + d, pkt[0]})
			if d <= 0 {
				ref.Land()
			} else {
				pending = append(pending, at+d)
			}
		}
	}
	landBefore(time.Hour)
	v.AdvanceBy(time.Second)

	sortArrivals(got)
	sortArrivals(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("deliveries differ:\n stage %v\n Link  %v", got, want)
	}
	if len(got) == 0 {
		t.Error("nothing was delivered")
	}
	if gs, ws := imp.Stats(), ref.Stats(); gs != ws {
		t.Errorf("stats differ:\n stage %+v\n Link  %+v", gs, ws)
	}
}

func wallDriverAgrees(t *testing.T, model netlink.LinkModel, seed int64) {
	a, b := netlink.Pipe(netlink.PipeConfig{})
	imp := netlink.Impair(a, netlink.ImpairConfig{LinkModel: model, Seed: seed, Metrics: metrics.New()})
	defer imp.Close()

	var ref netlink.Link
	ref.Init(model, seed)
	want := map[byte]int{}
	for i := 0; i < driverPackets; i++ {
		pkt, dark := driverFeed(i)
		imp.SetBlackout(dark)
		if err := imp.Send(pkt); err != nil {
			t.Fatalf("Send: %v", err)
		}
		ref.SetBlackout(dark)
		f := ref.Fate(time.Time{}, len(pkt))
		for range f.Delay[:f.N] {
			want[pkt[0]]++
			ref.Land()
		}
	}
	got := map[byte]int{}
	for n := ref.Stats().Delivered; n > 0; n-- {
		p, err := b.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		got[p[0]]++
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("deliveries differ:\n stage %v\n Link  %v", got, want)
	}
	// The last Recv can come before the stage counts the landing it took.
	for deadline := time.Now().Add(5 * time.Second); imp.Stats() != ref.Stats(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("stats differ:\n stage %+v\n Link  %+v", imp.Stats(), ref.Stats())
		}
	}
}
