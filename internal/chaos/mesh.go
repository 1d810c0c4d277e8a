package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

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

// MeshGenConfig bounds the randomized mesh scenario generator.
type MeshGenConfig struct {
	// Duration is the timeline length (default 2s).
	Duration time.Duration
}

// GenerateMesh draws a randomized multi-hop scenario over the canonical
// five-node mesh: source 0 and destination 4 joined through three
// intermediaries, six links, three link-disjoint routes. The timeline
// re-draws every link's i.i.d. loss twice (up to 0.3 — losses compound
// across hops, so the mesh ramps gentler than the single-hop generator),
// blacks out one link adjacent to one intermediate node and crashes that
// node outright (restarting it before the tail), so the set of fully dead
// links stays a minority and every generated scenario keeps at least one
// route alive. A pure function of seed and cfg, like Generate.
func GenerateMesh(seed int64, cfg MeshGenConfig) Scenario {
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	sc := Generate(seed, GenConfig{
		Duration:       cfg.Duration,
		CrashesPerSide: -1, // station-level crashes don't apply to a mesh
		Blackouts:      -1, // scheduled below, per link
		LossRamps:      2,
		MaxRampLoss:    0.3,
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
	crashAt := mid()
	downFor := 80*time.Millisecond + time.Duration(rng.Int63n(int64(120*time.Millisecond)))
	restartAt := crashAt + downFor
	if restartAt > d*9/10 {
		restartAt = d * 9 / 10
	}
	sc.Actions = append(sc.Actions,
		Action{At: crashAt, Kind: CrashNode, Node: victim},
		Action{At: restartAt, Kind: RestartNode, Node: victim})

	// The link blackout targets the victim's own links, so the dead-link
	// set never exceeds that node's minority share.
	victimLinks := []int{2*victim - 1, 2 * victim} // 1-based: links (0,v) and (v,4)
	start := mid()
	length := maxBlackout/4 + time.Duration(rng.Int63n(int64(3*maxBlackout/4)))
	li := victimLinks[int(rng.Int63n(int64(len(victimLinks))))]
	sc.Actions = append(sc.Actions,
		Action{At: start, Kind: BlackoutStart, Link: li},
		Action{At: start + length, Kind: BlackoutEnd, Link: li})
	sort.SliceStable(sc.Actions, func(i, j int) bool { return sc.Actions[i].At < sc.Actions[j].At })
	return sc
}

// meshSystem is a mesh scenario's live system: a relay.Mesh over one
// built link per topology link, each carrying one supervised session per
// direction.
type meshSystem struct {
	mesh  *relay.Mesh
	topo  relay.Topology
	links []SoakLinks // by topology link

	stats relay.Stats // recorded by close, before the mesh dies
	hops  map[string]verify.Report
}

func newMeshSystem(sc Scenario, env Env) (_ *meshSystem, err error) {
	m := &meshSystem{topo: sc.Mesh.Topology}
	defer func() {
		if err != nil {
			m.close()
		}
	}()
	conns := make([]relay.LinkConns, len(m.topo.Links))
	for li := range m.topo.Links {
		// Link li is seeded as its own scenario two seeds further on, so
		// no two links (nor a link's two directions) share a stream.
		lsc := sc
		lsc.Seed += int64(2 * li)
		l, err := env.Links(lsc, env.Metrics, env.Clock)
		if err != nil {
			return nil, fmt.Errorf("links: %w", err)
		}
		m.links = append(m.links, l)
		conns[li] = relay.LinkConns{A: l.TR, B: l.RT}
	}
	m.mesh, err = relay.New(relay.Config{
		Topology: m.topo,
		Links:    conns,
		Source:   sc.Mesh.Source,
		Dest:     sc.Mesh.Dest,
		Routes:   sc.Mesh.Routes,
		Epsilon:  env.Epsilon,
		WALDir:   env.WALDir,
		Seed:     sc.Seed + 1000,
		Clock:    env.Clock,
		Metrics:  env.Metrics,
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

func (m *meshSystem) send(_ context.Context, payload []byte) error {
	_, err := m.mesh.Submit(payload)
	return err
}

func (m *meshSystem) queued() bool { return true }

func (m *meshSystem) flush(ctx context.Context) error {
	if err := m.mesh.Flush(ctx); err != nil {
		return fmt.Errorf("%w (mesh %+v)", err, m.mesh.Stats())
	}
	return nil
}

// recv drains the destination. Its channel yields every payload exactly
// once; a repeat is a mesh dedup bug, which the ledger counts.
func (m *meshSystem) recv() ([]byte, bool) {
	p, ok := <-m.mesh.Delivered()
	return p, ok
}

func (m *meshSystem) apply(a Action) {
	// validate rules out a node out of range. A restart that fails (the
	// node is up, or would not start) leaves the node as it was, which
	// Result.Mesh.NodeRestarts shows.
	switch a.Kind {
	case CrashNode:
		_ = m.mesh.StopNode(a.Node)
	case RestartNode:
		_ = m.mesh.RestartNode(a.Node)
	case NodeBlackoutStart, NodeBlackoutEnd:
		// The node stays alive but unreachable: every adjacent link
		// goes dark in both directions.
		for li, l := range m.topo.Links {
			if l.A == a.Node || l.B == a.Node {
				m.links[li].TR.SetBlackout(a.Kind == NodeBlackoutStart)
				m.links[li].RT.SetBlackout(a.Kind == NodeBlackoutStart)
			}
		}
	case BlackoutStart, BlackoutEnd, SetLoss:
		for li, l := range m.links {
			if a.Link != 0 && a.Link != li+1 {
				continue
			}
			for _, d := range []SoakLink{l.TR, l.RT} {
				if a.Kind == SetLoss {
					d.SetLoss(a.Loss)
				} else {
					d.SetBlackout(a.Kind == BlackoutStart)
				}
			}
		}
	}
}

func (m *meshSystem) close() {
	if m.mesh != nil {
		m.stats, m.hops = m.mesh.Stats(), m.mesh.HopReports()
		m.mesh.Close()
	}
	// The mesh closed its conns; a mesh that never came up did not.
	for _, l := range m.links {
		l.TR.Close()
		l.RT.Close()
	}
}

func (m *meshSystem) result(res *Result) {
	res.Mesh, res.HopReports = m.stats, m.hops
	for _, rep := range m.hops {
		res.HopViolations += rep.Violations()
	}
}
