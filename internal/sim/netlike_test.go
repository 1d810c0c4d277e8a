package sim

import (
	"fmt"
	"math"
	"testing"
	"time"

	"ghm/internal/adversary"
	"ghm/internal/clock"
	"ghm/internal/core"
	"ghm/internal/netlink"
	"ghm/internal/trace"
)

// step is one simulator step of NetLike's link time.
const step = time.Second

// delivery is one copy NetLike released: when, on which channel, which packet.
type delivery struct {
	step int
	dir  trace.Dir
	id   int64
}

// TestNetLikeAgreesWithLink is the differential test of NetLike against the
// model it drives: two directly driven netlink.Links, seeded as NetLike
// seeds its own, judge the same packets at the same link instants, and
// NetLike must release every copy at its send step plus its Fate delay
// rounded up to whole steps — no sooner, no later — and leave its links
// with the same Stats.
func TestNetLikeAgreesWithLink(t *testing.T) {
	models := map[string]netlink.LinkModel{
		"loss":      {Loss: 0.3},
		"dup":       {DupProb: 0.4, Latency: 2 * step},
		"jitter":    {Latency: step, Jitter: 5 * step},
		"bandwidth": {Bandwidth: 100, Latency: step},
		"everything": {
			Loss: 0.1, DupProb: 0.3, ReorderProb: 0.3, ReleaseEvery: 2 * step, Latency: step,
			Jitter: 3 * step, Bandwidth: 400, Queue: 8,
			Burst: &netlink.GilbertElliott{PGoodBad: 0.1, PBadGood: 0.4, LossBad: 0.8},
		},
	}
	for name, m := range models {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				adv := NewNetLike(m, seed).(*netLike)
				links := map[trace.Dir]*netlink.Link{trace.DirTR: {}, trace.DirRT: {}}
				links[trace.DirTR].Init(m, clock.MixSeed(seed, 1))
				links[trace.DirRT].Init(m, clock.MixSeed(seed, 2))
				want := map[int][]delivery{}
				send := func(base int, dir trace.Dir, id int64, size int) {
					f := links[dir].Fate(time.Time{}.Add(time.Duration(base)*step), size)
					for _, d := range f.Delay[:f.N] {
						at := base + int(math.Ceil(d.Seconds()))
						want[at] = append(want[at], delivery{at, dir, id})
					}
					adv.OnNewPacket(dir, id, size)
				}
				var got, exp []delivery
				id := int64(0)
				for s := 0; s < 200; s++ {
					// Sent before the adversary's turn: stamped s.
					for k := 0; k < 1+s%3; k++ {
						send(s, trace.Dir(1+k%2), id, 20+int(id%5)*20)
						id++
					}
					for _, a := range adv.Next(s) {
						got = append(got, delivery{s, a.Dir, a.ID})
					}
					for _, d := range want[s] {
						links[d.dir].Land()
					}
					exp = append(exp, want[s]...)
					// Sent after it, in reply to a delivery: stamped s+1.
					if s%4 == 0 {
						send(s+1, trace.DirRT, id, 30)
						id++
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(exp) {
					t.Errorf("deliveries differ:\n netlike %v\n link    %v", got, exp)
				}
				if len(got) == 0 {
					t.Error("nothing was delivered")
				}
				for dir, l := range links {
					if a, b := adv.link(dir).Stats(), l.Stats(); a != b {
						t.Errorf("%v stats differ:\n netlike %+v\n link    %+v", dir, a, b)
					}
				}
			})
		}
	}
}

// TestNetLikeNeverDeliversEarly runs GHM over NetLike and checks every
// deliver_pkt against its send_pkt: no copy arrives sooner than Latency
// steps after it was sent, whether it was sent before the adversary's
// turn (submit, RETRY) or after it (a reply), and a jitter-free link
// delivers some copy exactly on time.
func TestNetLikeNeverDeliversEarly(t *testing.T) {
	for _, lat := range []int{1, 3} {
		t.Run(fmt.Sprintf("latency=%d", lat), func(t *testing.T) {
			res, err := RunGHM(Config{
				Messages:  30,
				MaxSteps:  100_000,
				Adversary: NewNetLike(netlink.LinkModel{Latency: time.Duration(lat) * step, Loss: 0.2, DupProb: 0.2}, 1),
				KeepTrace: true,
			}, core.Params{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Done || !res.Report.Clean() {
				t.Fatalf("done=%v report=%v", res.Done, res.Report)
			}
			sent := map[[2]int64]int{}
			minGap := math.MaxInt
			for _, e := range res.Events {
				key := [2]int64{int64(e.Dir), e.PktID}
				switch e.Kind {
				case trace.KindSendPkt:
					sent[key] = e.Step
				case trace.KindDeliverPkt:
					minGap = min(minGap, e.Step-sent[key])
				}
			}
			if minGap != lat {
				t.Errorf("smallest send-to-deliver gap %d steps, want the latency, %d", minGap, lat)
			}
		})
	}
}

func TestNetLikeZeroJitterIsFIFO(t *testing.T) {
	n := NewNetLike(netlink.LinkModel{Latency: 3 * step}, 2)
	for i := int64(0); i < 10; i++ {
		n.OnNewPacket(trace.DirTR, i, 10)
	}
	for s := 0; s < 3; s++ {
		if acts := n.Next(s); len(acts) != 0 {
			t.Fatalf("step %d delivered %+v, before the 3-step latency", s, acts)
		}
	}
	acts := n.Next(3)
	if len(acts) != 10 {
		t.Fatalf("delivered %d", len(acts))
	}
	for i, a := range acts {
		if a.ID != int64(i) {
			t.Fatalf("order broken: %+v", acts)
		}
	}
}

func TestNetLikeLossAndDupRates(t *testing.T) {
	const packets = 4000
	for _, tc := range []struct {
		m    netlink.LinkModel
		want float64 // copies delivered per packet sent
	}{
		{netlink.LinkModel{Loss: 1}, 0},
		{netlink.LinkModel{Loss: 0.3}, 0.7},
		{netlink.LinkModel{DupProb: 0.25}, 1.25},
		{netlink.LinkModel{Loss: 0.2, DupProb: 0.5}, 0.8 * 1.5},
	} {
		n := NewNetLike(tc.m, 5)
		copies := 0
		for s := 0; s < packets; s++ {
			n.OnNewPacket(trace.DirTR, int64(s), 10)
			copies += len(n.Next(s))
		}
		if got := float64(copies) / packets; math.Abs(got-tc.want) > 0.04 {
			t.Errorf("%+v: %.3f copies per packet, want %.2f", tc.m, got, tc.want)
		}
	}
}

func TestNetLikeBandwidthSerializes(t *testing.T) {
	// 30 bytes per step, 10-byte packets: three a step, per direction.
	n := NewNetLike(netlink.LinkModel{Bandwidth: 30}, 3)
	for i := int64(0); i < 8; i++ {
		n.OnNewPacket(trace.DirTR, i, 10)
	}
	for i := int64(0); i < 3; i++ {
		n.OnNewPacket(trace.DirRT, i, 10)
	}
	for s, want := range []map[trace.Dir]int{
		{},
		{trace.DirTR: 3, trace.DirRT: 3},
		{trace.DirTR: 3},
		{trace.DirTR: 2},
	} {
		got := map[trace.Dir]int{}
		for _, a := range n.Next(s) {
			got[a.Dir]++
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("step %d delivered %v, want %v", s, got, want)
		}
	}
}

// TestGHMOverNetLike runs the protocol over links with latency, jitter,
// loss, duplication and a bandwidth cap all at once, first alone and then
// with crash^T and crash^R on a loop.
func TestGHMOverNetLike(t *testing.T) {
	for _, crashes := range []*adversary.CrashLoop{nil, {EveryT: 97, EveryR: 151}} {
		var adv adversary.Adversary = NewNetLike(netlink.LinkModel{
			Latency: 4 * step, Jitter: 6 * step, Loss: 0.2, DupProb: 0.2,
			Bandwidth: 80, // about four 20-byte packets a step
		}, 7)
		if crashes != nil {
			adv = adversary.Compose(adv, crashes)
		}
		res, err := RunGHM(Config{
			Messages:   40,
			MaxSteps:   500_000,
			RetryEvery: 12, // pace retries past the ~8-step RTT
			Adversary:  adv,
		}, core.Params{}, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Done {
			t.Fatalf("crashes %+v: did not complete: %+v", crashes, res.Report)
		}
		if crashes != nil && (res.Report.CrashT == 0 || res.Report.CrashR == 0) {
			t.Fatalf("crash loop never fired: %v", res.Report)
		}
		if !res.Report.Clean() {
			t.Fatalf("crashes %+v: violations over NetLike: %v", crashes, res.Report)
		}
	}
}
