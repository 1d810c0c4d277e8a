package netlink_test

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"ghm/internal/clock"
	"ghm/internal/fabric"
	"ghm/internal/metrics"
	"ghm/internal/netlink"
)

// arrival is one packet reaching the far end of a link, on virtual time.
type arrival struct {
	at  time.Duration
	pkt byte
}

// stampConn notes the virtual instant of every packet sent through it.
type stampConn struct {
	netlink.PacketConn
	now  func() time.Duration
	mu   sync.Mutex
	seen []arrival
}

func (c *stampConn) Send(p []byte) error {
	c.mu.Lock()
	c.seen = append(c.seen, arrival{c.now(), p[0]})
	c.mu.Unlock()
	return c.PacketConn.Send(p)
}

func sortArrivals(a []arrival) {
	sort.Slice(a, func(i, j int) bool {
		if a[i].at != a[j].at {
			return a[i].at < a[j].at
		}
		return a[i].pkt < a[j].pkt
	})
}

// TestLinkDriversAgree is the differential test of the two drivers of
// netlink.Link: an ImpairedConn over a perfect Pipe (a goroutine, a
// flight heap and one timer) and a fabric link (a clock event a flight),
// on one virtual clock with the same resolved seed, are fed the same
// packets at the same instants — with a blackout switched on and off in
// the middle — and must deliver the same packets at the same virtual
// instants and report equal Stats.
func TestLinkDriversAgree(t *testing.T) {
	const (
		us      = time.Microsecond
		packets = 40
	)
	models := map[string]netlink.LinkModel{
		"loss, dup, latency, jitter": {Loss: 0.2, DupProb: 0.3, Latency: 700 * us, Jitter: 900 * us},
		"burst, bandwidth, short queue": {
			Burst:     &netlink.GilbertElliott{PGoodBad: 0.2, PBadGood: 0.3, LossBad: 0.9},
			Bandwidth: 150_000, Queue: 6,
		},
		"reorder, dup": {ReorderProb: 0.5, ReleaseEvery: 400 * us, DupProb: 0.2},
		"everything": {
			Loss: 0.1, DupProb: 0.2, ReorderProb: 0.3, Latency: 300 * us, Jitter: 500 * us, Bandwidth: 400_000, Queue: 12,
			Burst: &netlink.GilbertElliott{PGoodBad: 0.1, PBadGood: 0.4, LossGood: 0.05, LossBad: 0.8},
		},
	}
	for name, model := range models {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				v := clock.NewVirtual(time.Time{}, seed)
				v.SetSettle(1) // the pipe's reader is a goroutine: wait on the barrier
				start := v.Now()

				port, far := fabric.New(fabric.Config{Clock: v, Seed: seed}).Link(fabric.LinkConfig{LinkModel: model})
				var viaFabric []arrival
				far.SetHandler(func(p []byte) { viaFabric = append(viaFabric, arrival{v.Now().Sub(start), p[0]}) })

				// The pipe holds the clock still from Send to Recv, so a packet
				// is read at the instant it is stamped going in — which is
				// where it is stamped: a reader's own look at the clock would
				// come after its Recv let go of the barrier.
				a, b := netlink.Pipe(netlink.PipeConfig{Clock: v})
				stamp := &stampConn{PacketConn: a, now: func() time.Duration { return v.Now().Sub(start) }}
				imp := netlink.Impair(stamp, netlink.ImpairConfig{LinkModel: model, Seed: port.Seed(), Clock: v, Metrics: metrics.New()})
				read := make(chan int)
				go func() {
					n := 0
					for {
						if _, err := b.Recv(); err != nil {
							read <- n
							return
						}
						n++
					}
				}()

				// The feed is itself clock events, so the clock cannot move
				// on before both links have taken each packet in.
				for i := 0; i < packets; i++ {
					pkt := make([]byte, 20+i%6*20)
					pkt[0] = byte(i)
					v.AfterFunc(time.Duration(i/2)*250*us, func() {
						port.SetBlackout(pkt[0] >= 20 && pkt[0] < 24)
						imp.SetBlackout(pkt[0] >= 20 && pkt[0] < 24)
						if err := port.Send(pkt); err != nil {
							t.Errorf("fabric Send: %v", err)
						}
						if err := imp.Send(pkt); err != nil {
							t.Errorf("impaired Send: %v", err)
						}
					})
				}
				// The impaired side's goroutine is woken by its timer holding
				// nothing, so step instant by instant: wait until it has
				// forwarded what the fabric has delivered by now, then for it to
				// let go of the barrier (a no-op instant returns once nothing
				// holds the clock), which it does with its timer set again.
				for end := start.Add(time.Second); v.Now().Before(end) && v.Step(); {
					for deadline := time.Now().Add(5 * time.Second); imp.Stats().Delivered != port.Stats().Delivered; {
						if time.Now().After(deadline) {
							t.Fatalf("at %v the fabric has delivered %d packets, the impaired conn %d",
								v.Now().Sub(start), port.Stats().Delivered, imp.Stats().Delivered)
						}
						runtime.Gosched()
					}
					v.AfterFunc(0, func() {})
					v.Step()
				}
				imp.Close()
				port.Close()
				viaPipe := stamp.seen
				if n := <-read; n != len(viaPipe) {
					t.Errorf("%d packets went into the pipe, %d came out", len(viaPipe), n)
				}

				sortArrivals(viaFabric)
				sortArrivals(viaPipe)
				if fmt.Sprint(viaFabric) != fmt.Sprint(viaPipe) {
					t.Errorf("deliveries differ:\n fabric   %v\n impaired %v", viaFabric, viaPipe)
				}
				if len(viaFabric) == 0 {
					t.Error("nothing was delivered")
				}
				if fs, is := port.Stats(), imp.Stats(); fs != is {
					t.Errorf("stats differ:\n fabric   %+v\n impaired %+v", fs, is)
				}
			})
		}
	}
}
