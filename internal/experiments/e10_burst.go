package experiments

import (
	"fmt"
	"time"

	"ghm/internal/bitstr"
	"ghm/internal/clock"
	"ghm/internal/core"
	"ghm/internal/metrics"
	"ghm/internal/netlink"
	"ghm/internal/stats"
)

// E10Row is one mean-burst-length setting of the burst-loss experiment.
type E10Row struct {
	BurstLen        int // mean Bad-state run length, in packets
	Messages        int
	Completed       int
	DataPerMsg      float64 // DATA packets per completed message
	CtlPerMsg       float64 // control packets per completed message
	ElapsedPerMsgMs float64 // virtual time
}

// E10Result holds the burst-loss comparison.
type E10Result struct {
	Rows []E10Row
}

// E10 measures what loss *correlation* costs the protocol: each row keeps
// the stationary loss rate fixed (20% of packets see the Bad state, which
// drops 80%) while the Gilbert–Elliott mean burst length grows from 1
// packet (memoryless) to 64. The paper's cost claims (§1, Theorem 9) are
// stated against per-packet loss rates; bursts with the same average
// rate concentrate the loss into outage windows that stall whole
// handshake rounds, so retry traffic and delivery latency climb with
// burst length even though the long-run loss rate never changes.
//
// The run is a discrete-event one: the protocol machines exchange packets
// over an impaired link on a virtual clock, the receiver's RETRY on a
// virtual timer, everything inline on this goroutine. A row is therefore
// a function of the seed alone — the same table on a loaded CI box as on
// an idle one — and its ms/msg is protocol time: latency, jitter and
// retry intervals waited out. (Live stations over the same burst regime
// run under conformance checking in the chaos soaks.)
func E10(o Options) E10Result {
	o = o.norm()
	messages := o.scaled(2000, 300)

	var res E10Result
	for _, bl := range []int{1, 4, 16, 64} {
		res.Rows = append(res.Rows, runE10Burst(o, bl, messages))
	}
	return res
}

func runE10Burst(o Options, burstLen, messages int) E10Row {
	// Fix the stationary Bad probability at 0.2 and vary only the mean
	// Bad-state run length: pBadGood = 1/len, pGoodBad chosen to keep the
	// Good/Bad balance.
	const (
		piBad         = 0.2
		retryInterval = 300 * time.Microsecond
	)
	pBadGood := 1.0 / float64(burstLen)
	pGoodBad := piBad / (1 - piBad) * pBadGood
	seed := o.Seed*61 + int64(burstLen)

	v := clock.NewVirtual(time.Time{}, seed)
	tx, err := core.NewTransmitter(core.Params{Source: bitstr.NewSeededSource(seed + 1)})
	if err != nil {
		panic(fmt.Sprintf("E10: %v", err))
	}
	rx, err := core.NewReceiver(core.Params{Source: bitstr.NewSeededSource(seed + 2)})
	if err != nil {
		panic(fmt.Sprintf("E10: %v", err))
	}
	// A full link queue drops the packet; that is loss like any other.
	send := func(p *netlink.ImpairedConn, pkt []byte) {
		if len(pkt) > 0 {
			_ = p.Send(pkt)
		}
	}

	var (
		tPort, rPort *netlink.ImpairedConn
		completed    int
	)
	submit := func() {
		pkt, err := tx.AppendSendMsg(nil, []byte(fmt.Sprintf("e10-%d-%d", burstLen, completed)))
		if err != nil {
			panic(fmt.Sprintf("E10: %v", err)) // submitted only after the previous OK
		}
		send(tPort, pkt)
	}
	tPort, rPort = virtualLink(v, seed, 0, netlink.LinkModel{
		Burst:   &netlink.GilbertElliott{PGoodBad: pGoodBad, PBadGood: pBadGood, LossBad: 0.8},
		Latency: 100 * time.Microsecond,
		Jitter:  200 * time.Microsecond,
	}, func(p []byte) {
		pkt, ok := tx.AppendReceivePacket(nil, p)
		send(tPort, pkt)
		if ok {
			if completed++; completed < messages {
				submit()
			}
		}
	}, func(p []byte) {
		pkt, _, _ := rx.AppendReceivePacket(nil, p)
		send(rPort, pkt)
	})
	var retry clock.Timer
	retry = v.AfterFunc(retryInterval, func() {
		send(rPort, rx.AppendRetry(nil))
		retry.Reset(retryInterval)
	})

	start := v.Now()
	submit()
	// Theorem 9 promises every message completes; the horizon only ends a
	// run in which that failed, and the row then says so.
	for horizon := start.Add(time.Hour); completed < messages && v.Now().Before(horizon) && v.Step(); {
	}
	elapsed := v.Now().Sub(start)

	row := E10Row{BurstLen: burstLen, Messages: messages, Completed: completed}
	if completed > 0 {
		row.DataPerMsg = float64(tx.Stats().PacketsSent) / float64(completed)
		row.CtlPerMsg = float64(rx.Stats().PacketsSent) / float64(completed)
		row.ElapsedPerMsgMs = float64(elapsed.Microseconds()) / 1000 / float64(completed)
	}
	return row
}

// inlineConn is a perfect netlink.Pipe end: SetHandler gives it inline
// ingress (see netlink.Pipe).
type inlineConn interface{ SetHandler(fn func(p []byte)) }

// virtualLink builds link i of a discrete-event run on v: a perfect
// netlink.Pipe with model on an impairment stage at each end, so every
// delayed packet is one event on v and nothing runs off the caller's
// goroutine. What arrives at end a runs atA, inside the clock event that
// lands it, and at end b atB. Direction a→b draws its fates from
// clock.MixSeed(clock.MixSeed(base, i+1), 1) and b→a from the same with
// 2, so no two directions of a run share a stream.
func virtualLink(v *clock.Virtual, base int64, i int, model netlink.LinkModel, atA, atB func(p []byte)) (a, b *netlink.ImpairedConn) {
	pa, pb := netlink.Pipe(netlink.PipeConfig{Clock: v})
	pa.(inlineConn).SetHandler(atA)
	pb.(inlineConn).SetHandler(atB)
	seed := clock.MixSeed(base, int64(i)+1)
	cfg := netlink.ImpairConfig{LinkModel: model, Seed: clock.MixSeed(seed, 1), Clock: v, Metrics: metrics.New()}
	a = netlink.Impair(pa, cfg)
	cfg.Seed = clock.MixSeed(seed, 2)
	return a, netlink.Impair(pb, cfg)
}

// LatencyClimbs reports the claim's shape: the longest bursts cost more
// time per message than memoryless loss at the same average rate.
func (r E10Result) LatencyClimbs() bool {
	if len(r.Rows) < 2 {
		return false
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	return last.ElapsedPerMsgMs > first.ElapsedPerMsgMs
}

// Table renders the result.
func (r E10Result) Table() *stats.Table {
	t := &stats.Table{
		Title:   "E10: burst loss — cost vs mean burst length at a fixed average loss rate",
		Note:    "Gilbert–Elliott link, stationary 20% Bad state dropping 80%; protocol machines on a virtual clock",
		Headers: []string{"mean burst (pkts)", "messages", "completed", "DATA/msg", "CTL/msg", "ms/msg"},
	}
	for _, row := range r.Rows {
		t.AddRow(itoa(row.BurstLen), itoa(row.Messages), itoa(row.Completed),
			stats.F(row.DataPerMsg), stats.F(row.CtlPerMsg), stats.F(row.ElapsedPerMsgMs))
	}
	return t
}
