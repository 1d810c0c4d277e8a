// Package fabric is an in-memory packet network for virtual-time
// simulation: any number of bidirectional links, each direction a
// netlink.Link — the same seeded fate function netlink.Impair drives, so
// a chaos scenario tuned against impaired pipes drives a fabric link
// unchanged, and one seed yields one schedule on either.
//
// The difference from netlink.Pipe/Impair is the driver: a fabric link
// has no goroutines and no channels of its own. A Send asks the link for
// the packet's fate inline (drop, duplicate, delay) and schedules each
// surviving copy as a clock event; at the release deadline the packet
// lands in the destination port's mailbox — or directly in its inline
// handler, the mode experiments E7 and E10 use to run their stations on
// one goroutine. Under a *clock.Virtual the whole network therefore costs
// exactly one heap event per packet in flight, and a seeded run replays
// identically.
package fabric

import (
	"sync"

	"ghm/internal/clock"
	"ghm/internal/netlink"
)

// Config parameterizes a Fabric.
type Config struct {
	// Clock schedules every delivery (nil = wall clock; simulation wants
	// a *clock.Virtual).
	Clock clock.Clock
	// Seed is the base of every link's fault schedule: link i's
	// directions derive their RNG streams from it deterministically.
	// 0 draws from Clock.Seed; the resolved value is readable via Seed.
	Seed int64
}

// Fabric is a collection of links sharing a clock and a seed stream.
type Fabric struct {
	clk  clock.Clock
	virt *clock.Virtual // non-nil when clk is virtual
	seed int64

	mu    sync.Mutex
	links int // links created so far (seed derivation)
}

// New builds a fabric.
func New(cfg Config) *Fabric {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System()
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = clk.Seed()
	}
	f := &Fabric{clk: clk, seed: seed}
	f.virt, _ = clk.(*clock.Virtual)
	return f
}

// Clock returns the fabric's clock.
func (f *Fabric) Clock() clock.Clock { return f.clk }

// Seed returns the fabric's resolved base seed — the configured one, or
// the clock-drawn default — for the run's repro output.
func (f *Fabric) Seed() int64 { return f.seed }

// LinkConfig is one bidirectional link: a model applied independently
// per direction, with decorrelated seed streams. The link's fault schedule
// derives from the fabric seed and the link's index, so a fabric is fully
// reproducible from its single base seed.
type LinkConfig struct {
	// LinkModel is what each direction does to packets. Its Queue also
	// caps each port's undrained mailbox; overflow there counts as
	// DropQueue too, as a full router queue would.
	netlink.LinkModel
}

// Link creates one bidirectional link and returns its two ports. Each
// port's Send traverses the link toward the other port, through this
// link's model — a Port is exactly ImpairedConn-shaped: PacketConn plus
// SetBlackout/SetLoss/Stats/Seed.
func (f *Fabric) Link(cfg LinkConfig) (*Port, *Port) {
	f.mu.Lock()
	idx := f.links
	f.links++
	f.mu.Unlock()
	seed := clock.MixSeed(f.seed, int64(idx)+1)
	a := newPort(f, cfg.LinkModel, clock.MixSeed(seed, 1))
	b := newPort(f, cfg.LinkModel, clock.MixSeed(seed, 2))
	a.peer, b.peer = b, a
	return a, b
}
