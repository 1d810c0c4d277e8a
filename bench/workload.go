package main

import (
	"fmt"
	"net"
	"time"

	"ghm"
)

// spec is one named workload. The names are fixed: later issues and
// BENCHMARK.json refer to them.
type spec struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	payload int  // message size in bytes
	clients int  // link: concurrent closed-loop Send callers; mesh: payloads kept outstanding
	mesh    bool // ghm.NewMesh instead of one Sender/Receiver pair
	crashes bool // alternate Sender.Crash / Receiver.Crash while running

	// warm is how many messages the weigh phase confirms before it reads
	// the live heap: live_heap_mb is compared at this message count.
	warm int64
	// traceEvery samples one message in traceEvery in the traced run,
	// keeping its memory and lock traffic bounded at 100k msgs/s.
	traceEvery uint64

	// link builds the two conns of a link workload.
	link func(in *instance, seed int64) (a, b ghm.PacketConn, err error)
	opts func() (tx, rx []ghm.Option)
}

// crashEvery paces the injected station crashes of link-adversary.
const crashEvery = 250 * time.Millisecond

// replayProb is the per-packet probability that the replay shim injects a
// stale same-length packet.
const replayProb = 0.1

func perfectPipe(_ *instance, seed int64) (ghm.PacketConn, ghm.PacketConn, error) {
	a, b := ghm.Pipe(ghm.PipeFaults{Seed: seed})
	return a, b, nil
}

// epsilon is the per-message error probability every workload runs at:
// 2^-40, not the default 2^-20. At the default a fresh tag is 25 bits, and
// the protocol's own permitted error — a new message's tag equal to the last
// delivered one, so that a CTL in flight confirms a message nobody received —
// has probability 2^-25 per message: one confirmed-but-lost message in about
// 17 runs of 2M messages, seen three times in 120 runs while this was sized.
// A benchmark must not fail by design, so its strings are 20 bits longer.
const epsilon = 1.0 / (1 << 40)

func baseOpts() (tx, rx []ghm.Option) {
	return []ghm.Option{ghm.WithEpsilon(epsilon)}, []ghm.Option{ghm.WithEpsilon(epsilon)}
}

var workloads = []spec{
	{
		name:    "link-perfect",
		why:     "1 closed-loop client, 64 B, window 1, perfect in-process pipe: the CPU-bound fast path through bitstr/wire/core/engine/netlink",
		payload: 64, clients: 1, warm: 20000, traceEvery: 16,
		link: perfectPipe, opts: baseOpts,
	},
	{
		name:    "link-wan",
		why:     "8 closed-loop clients, 64 B, window 8, pipe with 2 ms latency, 2 ms jitter, 0.3 % loss: latency-bound, window depth and retry pacing decide; a core speed-up must not show here",
		payload: 64, clients: 8, warm: 200, traceEvery: 1,
		link: func(_ *instance, seed int64) (ghm.PacketConn, ghm.PacketConn, error) {
			a, b := ghm.Pipe(ghm.PipeFaults{Latency: 2 * time.Millisecond, Jitter: 2 * time.Millisecond, Loss: 0.003, Seed: seed})
			return a, b, nil
		},
		opts: func() (tx, rx []ghm.Option) {
			// Retry pacing sits just above the pipe's worst-case round trip,
			// as in the BENCH_window_8.json run this workload supersedes.
			tx, rx = baseOpts()
			return append(tx, ghm.WithWindow(8)), append(rx, ghm.WithWindow(8), ghm.WithRetryInterval(9*time.Millisecond))
		},
	},
	{
		name:    "link-udp",
		why:     "1 closed-loop client, 1 KiB, window 1, two UDP sockets on host loopback: syscall- and copy-bound, the only place batched socket I/O can show",
		payload: 1024, clients: 1, warm: 8000, traceEvery: 8,
		link: loopbackUDP, opts: baseOpts,
	},
	{
		name:    "link-adversary",
		why:     "link-perfect plus 10 % same-length stale replays both ways and a station crash every 250 ms: error counting, string extension and crash reset; goodput is set by retries, not CPU",
		payload: 64, clients: 1, crashes: true, warm: 600, traceEvery: 1,
		link: func(in *instance, seed int64) (ghm.PacketConn, ghm.PacketConn, error) {
			a, b := ghm.Pipe(ghm.PipeFaults{Seed: seed})
			ra, rb := newReplayConn(a, replayProb, seed+101), newReplayConn(b, replayProb, seed+102)
			in.replays = []*replayConn{ra, rb}
			return ra, rb, nil
		},
		opts: baseOpts,
	},
	{
		name:    "mesh-steady",
		why:     "5-node mesh, 3 two-hop routes over perfect pipes, 16 payloads kept outstanding: capacity of relay + session + outbox + supervise",
		payload: 64, clients: 16, mesh: true, warm: 4000, traceEvery: 4,
	},
	{
		name:    "mesh-pingpong",
		why:     "same mesh, 1 payload outstanding: goodput is 1/(submit to deliver), so it prices hop forwarding and ack hand-off that batching would lengthen",
		payload: 64, clients: 1, mesh: true, warm: 3000, traceEvery: 4,
	},
}

func findWorkload(name string) *spec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// loopbackUDP binds two sockets on 127.0.0.1 and points them at each
// other through ghm.DialUDP. The ports are found by binding port 0 first;
// losing the race for a port between the probe and the bind is retried.
func loopbackUDP(in *instance, _ int64) (ghm.PacketConn, ghm.PacketConn, error) {
	var err error
	for try := 0; try < 5; try++ {
		var pa, pb string
		if pa, err = freeUDPAddr(); err != nil {
			continue
		}
		if pb, err = freeUDPAddr(); err != nil {
			continue
		}
		var a, b ghm.PacketConn
		if a, err = ghm.DialUDP(pa, pb); err != nil {
			continue
		}
		if b, err = ghm.DialUDP(pb, pa); err != nil {
			a.Close()
			continue
		}
		in.loopback = true
		return a, b, nil
	}
	return nil, nil, fmt.Errorf("bind UDP loopback: %w", err)
}

func freeUDPAddr() (string, error) {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return "", err
	}
	defer c.Close()
	return c.LocalAddr().String(), nil
}

// The benchmark mesh: source 0, destination 4, three link-disjoint two-hop
// routes 0-1-4, 0-2-4, 0-3-4.
var meshTopology = ghm.Topology{
	Nodes: 5,
	Links: []ghm.Link{{A: 0, B: 1}, {A: 1, B: 4}, {A: 0, B: 2}, {A: 2, B: 4}, {A: 0, B: 3}, {A: 3, B: 4}},
}

const meshSrc, meshDst = 0, 4
