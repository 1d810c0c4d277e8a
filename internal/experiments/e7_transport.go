package experiments

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"ghm/internal/bitstr"
	"ghm/internal/clock"
	"ghm/internal/core"
	"ghm/internal/fabric"
	"ghm/internal/netlink"
	"ghm/internal/relay"
	"ghm/internal/stats"
)

// E7Row is one relay mode of the transport experiment.
type E7Row struct {
	Mode            string // "flooding" or "path-routing"
	Messages        int
	Completed       int
	TraversalsPer   float64 // link traversals per completed message
	LostTraversals  int
	NoRouteDrops    int
	ElapsedPerMsgMs float64 // virtual time
	Misdelivered    int     // deliveries that were not the next message; not in the table
}

// E7Result holds the transport-layer comparison.
type E7Result struct {
	Rows []E7Row
}

// E7 runs GHM end to end over a 3x3 grid of relay nodes whose links lose
// packets, fail and recover, comparing the trivial flooding relay with the
// [HK89]-style path-routing relay. The paper's Section 1 claim is the cost
// contrast: flooding pays O(|E|) traversals per packet, path routing pays
// O(path), and both compose with GHM into a reliable transport.
//
// Like E10 the run is discrete-event: the grid's links are fabric links on
// a virtual clock, each relay node forwards inline from its ports'
// handlers, and the end stations are the protocol machines with RETRY on a
// virtual timer. A row is a function of the seed alone, and its ms/msg is
// virtual time.
func E7(o Options) E7Result {
	o = o.norm()
	messages := o.scaled(25, 5)
	return E7Result{Rows: []E7Row{
		runE7Mode(o.Seed*59+1, "flooding", messages),
		runE7Mode(o.Seed*59+2, "path-routing", messages),
	}}
}

// e7Grid is the 3x3 grid's links, nodes numbered row-major.
var e7Grid = []relay.Link{
	{A: 0, B: 1}, {A: 0, B: 3}, {A: 1, B: 2}, {A: 1, B: 4}, {A: 2, B: 5}, {A: 3, B: 4},
	{A: 3, B: 6}, {A: 4, B: 5}, {A: 4, B: 7}, {A: 5, B: 8}, {A: 6, B: 7}, {A: 7, B: 8},
}

func runE7Mode(seed int64, mode string, messages int) E7Row {
	const (
		src, dst      = 0, 8 // the end stations, at opposite corners
		hop           = 20 * time.Microsecond
		retryInterval = 300 * time.Microsecond
		failProb      = 0.001 // per up link per hop time
		repairProb    = 0.1   // per down link per hop time
	)
	flood := mode == "flooding"
	v := clock.NewVirtual(time.Time{}, seed)
	fab := fabric.New(fabric.Config{Clock: v, Seed: seed})
	tx, err := core.NewTransmitter(core.Params{Source: bitstr.NewSeededSource(seed + 1)})
	if err != nil {
		panic(fmt.Sprintf("E7: %v", err))
	}
	rx, err := core.NewReceiver(core.Params{Source: bitstr.NewSeededSource(seed + 2)})
	if err != nil {
		panic(fmt.Sprintf("E7: %v", err))
	}

	// A packet on a link is a frame: a 4-byte id, a route length k, k node
	// numbers ending with the destination, then the end station's packet.
	// A flooding frame's route is the destination alone; a path-routing
	// frame's route starts at the node it arrives at.
	var (
		ports     [9][9]*fabric.Port // ports[a][b]: node a's end of the link to b
		down      = make([]bool, len(e7Grid))
		seen      = make(map[[2]uint32]bool) // (node, frame id) a flooding relay forwarded
		nextID    uint32
		delivered int
		row       = E7Row{Mode: mode, Messages: messages}
		arrive    func(node, from int, frame []byte)
	)
	msg := func(i int) string { return fmt.Sprintf("e7-%s-%d", mode, i) }
	// inject puts an end station's packet on the network at node at, bound
	// for the other end. A path-routing packet's route is chosen here over
	// the links up now: the [HK89] scheme, with an oracle standing in for
	// its error detection.
	inject := func(at int, pkt []byte) {
		if len(pkt) == 0 {
			return
		}
		nextID++
		route := []byte{byte(src + dst - at)}
		if !flood {
			var up []relay.Link
			for i, l := range e7Grid {
				if !down[i] {
					up = append(up, l)
				}
			}
			routes := relay.Topology{Nodes: 9, Links: up}.DisjointRoutes(at, int(route[0]), 1)
			if routes == nil {
				row.NoRouteDrops++
				return
			}
			route = route[:0]
			for _, n := range routes[0] {
				route = append(route, byte(n))
			}
		}
		arrive(at, -1, e7Frame(nextID, route, pkt))
	}
	submit := func() {
		pkt, err := tx.AppendSendMsg(nil, []byte(msg(row.Completed)))
		if err != nil {
			panic(fmt.Sprintf("E7: %v", err)) // submitted only after the previous OK
		}
		inject(src, pkt)
	}
	// arrive handles a frame at node, from neighbour from (-1 at injection).
	// Send fails only on a closed port; a full link queue is a drop the
	// link counts, loss like any other.
	arrive = func(node, from int, frame []byte) {
		id, k := binary.BigEndian.Uint32(frame), int(frame[4])
		route, pkt := frame[5:5+k], frame[5+k:]
		if flood {
			if seen[[2]uint32{uint32(node), id}] {
				return
			}
			seen[[2]uint32{uint32(node), id}] = true
		}
		switch {
		case int(route[k-1]) != node && flood:
			for peer, p := range ports[node] {
				if p != nil && peer != from {
					_ = p.Send(frame)
				}
			}
		case int(route[k-1]) != node:
			// route[0] is this node: strip it off and go on to route[1].
			_ = ports[node][route[1]].Send(e7Frame(id, route[1:], pkt))
		case node == dst:
			out, m, ok := rx.AppendReceivePacket(nil, pkt)
			if ok {
				if string(m) != msg(delivered) {
					row.Misdelivered++
				}
				delivered++
			}
			inject(dst, out)
		default:
			out, ok := tx.AppendReceivePacket(nil, pkt)
			inject(src, out)
			if ok {
				if row.Completed++; row.Completed < messages {
					submit()
				}
			}
		}
	}

	for _, l := range e7Grid {
		a, b := fab.Link(fabric.LinkConfig{LinkModel: netlink.LinkModel{Loss: 0.05, Latency: hop}})
		a.SetHandler(func(f []byte) { arrive(l.A, l.B, f) })
		b.SetHandler(func(f []byte) { arrive(l.B, l.A, f) })
		ports[l.A][l.B], ports[l.B][l.A] = a, b
	}
	rng := rand.New(rand.NewSource(seed))
	var tick, retry clock.Timer
	tick = v.AfterFunc(hop, func() {
		for i, l := range e7Grid {
			p := failProb
			if down[i] {
				p = repairProb
			}
			if rng.Float64() < p {
				down[i] = !down[i]
				ports[l.A][l.B].SetBlackout(down[i])
				ports[l.B][l.A].SetBlackout(down[i])
			}
		}
		tick.Reset(hop)
	})
	retry = v.AfterFunc(retryInterval, func() {
		inject(dst, rx.AppendRetry(nil))
		retry.Reset(retryInterval)
	})

	start := v.Now()
	submit()
	// As in E10, the horizon only ends a run in which liveness failed.
	for horizon := start.Add(time.Minute); row.Completed < messages && v.Now().Before(horizon) && v.Step(); {
	}
	elapsed := v.Now().Sub(start)

	var sent int64
	for _, l := range e7Grid {
		for _, p := range []*fabric.Port{ports[l.A][l.B], ports[l.B][l.A]} {
			st := p.Stats()
			sent += st.Sent
			row.LostTraversals += int(st.DropIID + st.DropBlackout + st.DropQueue)
		}
	}
	if row.Completed > 0 {
		row.TraversalsPer = float64(sent) / float64(row.Completed)
		row.ElapsedPerMsgMs = float64(elapsed.Microseconds()) / 1000 / float64(row.Completed)
	}
	return row
}

func e7Frame(id uint32, route, pkt []byte) []byte {
	f := binary.BigEndian.AppendUint32(make([]byte, 0, 5+len(route)+len(pkt)), id)
	f = append(f, byte(len(route)))
	return append(append(f, route...), pkt...)
}

// FloodingCostlier reports the claim's shape: flooding (the first row)
// spends more link traversals per message than path routing.
func (r E7Result) FloodingCostlier() bool {
	return len(r.Rows) == 2 && r.Rows[0].TraversalsPer > r.Rows[1].TraversalsPer
}

// Table renders the result.
func (r E7Result) Table() *stats.Table {
	t := &stats.Table{
		Title:   "E7: GHM over a 3x3 relay grid — flooding vs path routing (Section 1, [HK89])",
		Note:    "5% per-link loss, links fail and recover; source corner to opposite corner; virtual clock",
		Headers: []string{"relay mode", "messages", "completed", "traversals/msg", "lost traversals", "no-route drops", "ms/msg"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Mode, itoa(row.Messages), itoa(row.Completed),
			stats.F1(row.TraversalsPer), itoa(row.LostTraversals),
			itoa(row.NoRouteDrops), stats.F(row.ElapsedPerMsgMs))
	}
	return t
}
