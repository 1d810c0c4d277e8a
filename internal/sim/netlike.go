package sim

import (
	"time"

	"ghm/internal/adversary"
	"ghm/internal/clock"
	"ghm/internal/netlink"
	"ghm/internal/trace"
)

// netLike carries the two channels over one netlink.Link per direction:
// the runtime's link model, asked the same Fate and told the same Land as
// under ImpairedConn and fabric.Port, with the delays rounded up to steps.
type netLike struct {
	tr, rt netlink.Link
	// next is the step of the adversary's next turn, and the send step of
	// every packet it learns of before that turn. A packet sent after the
	// turn at step s (a reply to a delivery) is stamped s+1: the later of
	// the two steps it could belong to, so no copy arrives sooner than the
	// model's latency after its send_pkt.
	next int
	due  map[int][]adversary.Action // step -> the copies arriving then
}

// NewNetLike returns an adversary that delivers what links of model m
// deliver, when they deliver it: loss, duplication, latency, jitter,
// reordering and a bandwidth cap, each direction on its own stream
// derived from seed. One step is one second of link time, so m's
// durations count steps and its Bandwidth is bytes per step. Blackouts
// are the simulator's ActBlackout, composed in like any other schedule.
func NewNetLike(m netlink.LinkModel, seed int64) adversary.Adversary {
	n := &netLike{due: make(map[int][]adversary.Action)}
	n.tr.Init(m, clock.MixSeed(seed, 1))
	n.rt.Init(m, clock.MixSeed(seed, 2))
	return n
}

func (n *netLike) link(dir trace.Dir) *netlink.Link {
	if dir == trace.DirTR {
		return &n.tr
	}
	return &n.rt
}

// OnNewPacket implements adversary.Adversary: it files every copy the
// link releases under its send step plus its delay in whole steps.
func (n *netLike) OnNewPacket(dir trace.Dir, id int64, length int) {
	f := n.link(dir).Fate(time.Time{}.Add(time.Duration(n.next)*time.Second), length)
	for _, d := range f.Delay[:f.N] {
		at := n.next + int((d+time.Second-1)/time.Second)
		n.due[at] = append(n.due[at], adversary.Action{Kind: adversary.ActDeliver, Dir: dir, ID: id})
	}
}

// Next implements adversary.Adversary: it releases the copies due at
// step, landing each on its link.
func (n *netLike) Next(step int) []adversary.Action {
	out := n.due[step]
	delete(n.due, step)
	for _, a := range out {
		n.link(a.Dir).Land()
	}
	n.next = step + 1
	return out
}
