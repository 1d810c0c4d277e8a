package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"ghm/internal/clock"
	"ghm/internal/metrics"
	"ghm/internal/netlink"
	"ghm/internal/relay"
	"ghm/internal/verify"
)

// MeshSpec is the relay topology a multi-hop scenario runs over; it
// serializes into the scenario JSON so a mesh run is reproducible from
// the emitted file alone.
type MeshSpec struct {
	Topology relay.Topology `json:"topology"`
	Source   int            `json:"source"`
	Dest     int            `json:"dest"`
	Routes   int            `json:"routes"`
}

// MeshGenConfig bounds the randomized mesh scenario generator. Zero
// fields take the defaults noted on each.
type MeshGenConfig struct {
	// Duration is the timeline length (default 2s).
	Duration time.Duration
	// LinkBlackouts is how many single-link blackout windows to schedule
	// (default 1). Each targets one link adjacent to the crashed node, so
	// the set of fully dead links stays a minority even while the node is
	// down.
	LinkBlackouts int
	// MaxBlackout caps each blackout window (default 60ms).
	MaxBlackout time.Duration
	// LossRamps is how many times every link's i.i.d. loss is re-drawn
	// (default 2); nominal loss is restored near the end.
	LossRamps int
	// MaxRampLoss caps ramped loss probabilities (default 0.3 — losses
	// compound across hops, so the mesh ramps gentler than the
	// single-hop generator).
	MaxRampLoss float64
	// NodeCrashes is how many crash+restart pairs to schedule against
	// one intermediate relay node (default 1).
	NodeCrashes int
}

func (c MeshGenConfig) withDefaults() MeshGenConfig {
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.LinkBlackouts == 0 {
		c.LinkBlackouts = 1
	}
	if c.MaxBlackout <= 0 {
		c.MaxBlackout = 60 * time.Millisecond
	}
	if c.LossRamps == 0 {
		c.LossRamps = 2
	}
	if c.MaxRampLoss <= 0 {
		c.MaxRampLoss = 0.3
	}
	if c.NodeCrashes == 0 {
		c.NodeCrashes = 1
	}
	return c
}

// GenerateMesh draws a randomized multi-hop scenario over the canonical
// five-node mesh: source 0 and destination 4 joined through three
// intermediaries, six links, three link-disjoint routes. The timeline
// impairs a minority of links and crashes one intermediate node outright
// (restarting it before the tail), so every generated scenario keeps at
// least one route alive. A pure function of seed and cfg, like Generate.
func GenerateMesh(seed int64, cfg MeshGenConfig) Scenario {
	cfg = cfg.withDefaults()
	sc := Generate(seed, GenConfig{
		Duration:       cfg.Duration,
		CrashesPerSide: -1, // station-level crashes don't apply to a mesh
		Blackouts:      -1, // scheduled below, per link
		LossRamps:      cfg.LossRamps,
		MaxRampLoss:    cfg.MaxRampLoss,
	})
	sc.Name = fmt.Sprintf("mesh-random-%d", seed)
	sc.Mesh = &MeshSpec{
		Topology: relay.Topology{
			Nodes: 5,
			Links: []relay.Link{
				{A: 0, B: 1}, {A: 1, B: 4},
				{A: 0, B: 2}, {A: 2, B: 4},
				{A: 0, B: 3}, {A: 3, B: 4},
			},
		},
		Source: 0,
		Dest:   4,
		Routes: 3,
	}

	// Re-derive randomness for the mesh-only actions from the same seed,
	// on an independent stream: Generate consumed its own fixed draw
	// sequence above.
	rng := rand.New(rand.NewSource(seed ^ 0x6d657368)) // "mesh"
	d := cfg.Duration
	mid := func() time.Duration { return d/4 + time.Duration(rng.Int63n(int64(d/2))) }

	// One intermediate node dies completely and comes back: the headline
	// fault a single-hop scenario cannot express.
	victim := 1 + int(rng.Int63n(3))
	for i := 0; i < cfg.NodeCrashes; i++ {
		crashAt := mid()
		downFor := 80*time.Millisecond + time.Duration(rng.Int63n(int64(120*time.Millisecond)))
		restartAt := crashAt + downFor
		if restartAt > d*9/10 {
			restartAt = d * 9 / 10
		}
		sc.Actions = append(sc.Actions,
			Action{At: crashAt, Kind: CrashNode, Node: victim},
			Action{At: restartAt, Kind: RestartNode, Node: victim})
	}

	// Link blackouts target the victim's own links, so the dead-link set
	// never exceeds that node's minority share.
	victimLinks := []int{2*victim - 1, 2 * victim} // 1-based: links (0,v) and (v,4)
	for i := 0; i < cfg.LinkBlackouts; i++ {
		start := mid()
		length := cfg.MaxBlackout/4 + time.Duration(rng.Int63n(int64(3*cfg.MaxBlackout/4)))
		li := victimLinks[int(rng.Int63n(int64(len(victimLinks))))]
		sc.Actions = append(sc.Actions,
			Action{At: start, Kind: BlackoutStart, Link: li},
			Action{At: start + length, Kind: BlackoutEnd, Link: li})
	}
	sort.SliceStable(sc.Actions, func(i, j int) bool { return sc.Actions[i].At < sc.Actions[j].At })
	return sc
}

// MeshSoakConfig parameterizes one multi-hop chaos soak.
type MeshSoakConfig struct {
	// Scenario is the fault schedule; its Mesh spec is required
	// (GenerateMesh emits one).
	Scenario Scenario
	// Messages is how many unique payloads to push end to end (default
	// 200). Filler payloads keep flowing until the timeline completes,
	// exactly as in SupervisedSoak.
	Messages int
	// RetryInterval / RetryBackoffMax pace every hop's receiver
	// (defaults 300µs / 32ms).
	RetryInterval   time.Duration
	RetryBackoffMax time.Duration
	// Epsilon is the per-hop per-message error probability (0 = protocol
	// default).
	Epsilon float64
	// WatchdogWindow is each hop session's no-progress window (default
	// 250ms).
	WatchdogWindow time.Duration
	// AckTimeout is the mesh's end-to-end re-dispatch backstop (default
	// 1s).
	AckTimeout time.Duration
	// WALDir, when set, gives every directed hop a forwarding WAL so
	// crashed relay nodes replay their accepted backlog on restart.
	WALDir string
	// Metrics receives the whole run's counters, including the relay.*
	// family. Nil uses metrics.Default().
	Metrics *metrics.Registry
	// Clock virtualizes the soak: link schedules, hop sessions, ack
	// deadlines, the submission pace and the fault timeline all ride it
	// (nil = wall clock). A *clock.Virtual needs a driver goroutine
	// advancing it (clock.Virtual.Run).
	Clock clock.Clock
}

// MeshResult summarizes a multi-hop chaos soak.
type MeshResult struct {
	// Enqueued counts unique payloads submitted at the source; Delivered
	// counts distinct payloads the destination's higher layer saw.
	// Missing lists enqueued payloads that never arrived and Duplicates
	// counts extra deliveries of the same payload — both empty/zero on
	// success, Duplicates being the exactly-once claim.
	Enqueued   int
	Delivered  int
	Missing    []string
	Duplicates int
	// HopReports is every directed hop's live Section-2.6 conformance
	// report, keyed "from->to"; HopViolations totals their violations.
	HopReports    map[string]verify.Report
	HopViolations int
	// Stats is the mesh's final counter snapshot.
	Stats relay.Stats
	// Elapsed is the wall-clock soak time.
	Elapsed time.Duration
}

// meshNode adapts one relay node plus its adjacent impaired links into a
// chaos NodeTarget.
type meshNode struct {
	mesh  *relay.Mesh
	id    int
	links []*netlink.ImpairedConn // both halves of every adjacent link
}

func (n *meshNode) CrashNode()   { _ = n.mesh.StopNode(n.id) }
func (n *meshNode) RestartNode() { _ = n.mesh.RestartNode(n.id) }
func (n *meshNode) SetNodeBlackout(on bool) {
	for _, l := range n.links {
		l.SetBlackout(on)
	}
}

// meshLink presents one undirected link (both impaired halves) as a
// single chaos Controllable, so a scheduled blackout kills the link in
// both directions at once.
type meshLink struct {
	a, b *netlink.ImpairedConn
}

func (l *meshLink) SetBlackout(on bool) { l.a.SetBlackout(on); l.b.SetBlackout(on) }
func (l *meshLink) SetLoss(p float64)   { l.a.SetLoss(p); l.b.SetLoss(p) }

// MeshSoak runs a relay.Mesh against the scenario's fault timeline:
// every topology link is a seeded impaired pipe carrying one supervised
// session per direction, and the scheduled faults — single-link
// blackouts, loss ramps, whole-node crashes and restarts — must all be
// absorbed with every payload still delivered exactly once end to end
// and every hop's live conformance clean.
func MeshSoak(ctx context.Context, cfg MeshSoakConfig) (MeshResult, error) {
	sc := cfg.Scenario
	if sc.Mesh == nil {
		return MeshResult{}, fmt.Errorf("chaos: scenario %q has no mesh spec", sc.Name)
	}
	if cfg.Messages <= 0 {
		cfg.Messages = 200
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default()
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System()
	}
	start := time.Now()

	// Realize the topology: per link one impaired pipe, both halves
	// controllable, all seeded off the scenario.
	topo := sc.Mesh.Topology
	var (
		conns []relay.LinkConns
		ctls  []Controllable
		imps  [][2]*netlink.ImpairedConn
	)
	for li := range topo.Links {
		la, lb := impairedPipe(sc.Link, sc.Seed+int64(2*li)+1, reg, cfg.Clock)
		conns = append(conns, relay.LinkConns{A: la, B: lb})
		ctls = append(ctls, &meshLink{a: la, b: lb})
		imps = append(imps, [2]*netlink.ImpairedConn{la, lb})
	}

	mesh, err := relay.New(relay.Config{
		Topology:        topo,
		Links:           conns,
		Source:          sc.Mesh.Source,
		Dest:            sc.Mesh.Dest,
		Routes:          sc.Mesh.Routes,
		Epsilon:         cfg.Epsilon,
		RetryInterval:   cfg.RetryInterval,
		RetryBackoffMax: cfg.RetryBackoffMax,
		WatchdogWindow:  cfg.WatchdogWindow,
		AckTimeout:      cfg.AckTimeout,
		WALDir:          cfg.WALDir,
		Seed:            sc.Seed + 1000,
		Clock:           cfg.Clock,
		Metrics:         reg,
	})
	if err != nil {
		for _, c := range conns {
			c.A.Close()
			c.B.Close()
		}
		return MeshResult{}, fmt.Errorf("chaos: %w", err)
	}
	defer mesh.Close()

	// Node targets: each node controls itself and both halves of every
	// adjacent link.
	nodes := make([]NodeTarget, topo.Nodes)
	for id := range nodes {
		mn := &meshNode{mesh: mesh, id: id}
		for li, l := range topo.Links {
			if l.A == id || l.B == id {
				mn.links = append(mn.links, imps[li][0], imps[li][1])
			}
		}
		nodes[id] = mn
	}

	// Drain deliveries counting repeats: the destination channel must
	// yield every payload exactly once — a repeat is a mesh-dedup bug,
	// not a tolerable artifact.
	var (
		mu        sync.Mutex
		delivered = map[string]int{}
	)
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		for p := range mesh.Delivered() {
			mu.Lock()
			delivered[string(p)]++
			mu.Unlock()
		}
	}()

	timeline := make(chan error, 1)
	go func() {
		timeline <- Run(ctx, sc, Targets{
			Links:   ctls,
			Nodes:   nodes,
			Clock:   cfg.Clock,
			Metrics: reg,
		})
	}()

	// Steady-paced submissions across the timeline, filler past Messages
	// until every scheduled fault has fired.
	var res MeshResult
	pace := sc.Duration / time.Duration(cfg.Messages)
	if pace <= 0 {
		pace = time.Millisecond
	}
	var enqueued []string
	timelineDone := false
	pt := clk.NewTimer(pace)
	defer pt.Stop()
	for i := 0; i < cfg.Messages || !timelineDone; i++ {
		msg := fmt.Sprintf("mesh-%08d", i)
		if _, err := mesh.Submit([]byte(msg)); err != nil {
			return res, fmt.Errorf("chaos: mesh submit %d: %w", i, err)
		}
		enqueued = append(enqueued, msg)
		if !timelineDone {
			select {
			case err := <-timeline:
				if err != nil {
					return res, fmt.Errorf("chaos: timeline: %w", err)
				}
				timelineDone = true
			case <-pt.C():
				pt.Reset(pace)
			}
		}
	}
	res.Enqueued = len(enqueued)

	// Self-healing is the claim: wait for every end-to-end ack.
	if err := mesh.Flush(ctx); err != nil {
		return res, fmt.Errorf("chaos: mesh flush: %w (stats %+v)", err, mesh.Stats())
	}

	// Flush returns on the last ack at the source; give the delivery
	// drain a moment to pick the tail out of the channel buffer.
	for {
		mu.Lock()
		n := 0
		for _, m := range enqueued {
			if delivered[m] > 0 {
				n++
			}
		}
		mu.Unlock()
		if n == len(enqueued) || ctx.Err() != nil {
			break
		}
		// Clock-driven wait: under a virtual clock this poll consumes
		// virtual time only, instead of busy-spinning real CPU.
		clock.Wait(clk, 2*time.Millisecond, ctx.Done())
	}

	res.Stats = mesh.Stats()
	res.HopReports = mesh.HopReports()
	for _, rep := range res.HopReports {
		res.HopViolations += rep.Violations()
	}
	mesh.Close()
	<-drainDone

	mu.Lock()
	res.Delivered = len(delivered)
	for _, m := range enqueued {
		switch delivered[m] {
		case 0:
			res.Missing = append(res.Missing, m)
		case 1:
		default:
			res.Duplicates += delivered[m] - 1
		}
	}
	mu.Unlock()
	res.Elapsed = time.Since(start)
	return res, nil
}
