package ghm

import (
	"context"
	"fmt"
	"time"

	"ghm/internal/relay"
)

// Link names one undirected edge of a relay topology by its two node ids.
type Link struct {
	A, B int
}

// Topology is a relay graph: Nodes numbered 0..Nodes-1 joined by
// undirected Links. Once a Mesh realizes it, each hop a route uses runs
// one supervised protocol session, in the route's direction; a link no
// route uses carries nothing.
type Topology struct {
	Nodes int
	Links []Link
}

// LinkConns is the pair of PacketConn halves realizing one topology
// link: A belongs to the node Link.A, B to Link.B. The mesh owns both
// and closes them with Mesh.Close. Pipe builds a matched pair; wrap the
// halves with Impair for chaos testing.
type LinkConns struct {
	A, B PacketConn
}

// MeshConfig parameterizes NewMesh. Topology, Links, Source and Dest are
// required; zero values elsewhere mean sensible defaults.
type MeshConfig struct {
	// Topology is the relay graph; Links realizes it, one conn pair per
	// topology link, in the same order.
	Topology Topology
	Links    []LinkConns
	// Source and Dest are the end-to-end endpoints: Submit injects at
	// Source, Delivered drains at Dest.
	Source, Dest int
	// Routes is how many link-disjoint routes to disperse over (default
	// 2, clamped to what the topology offers; at least one must exist).
	Routes int

	// Options configure every hop's stations (WithEpsilon, WithSeed,
	// WithRetryInterval, WithRetryBackoff), exactly as for NewSender and
	// NewReceiver. WithSeed additionally fixes hop-supervisor jitter, so
	// a seeded mesh is reproducible end to end.
	Options []Option

	// WatchdogWindow is each hop session's no-progress window (default
	// 250ms); hop health transitions drive route failover.
	WatchdogWindow time.Duration
	// AckTimeout is the end-to-end re-dispatch backstop: a payload whose
	// acknowledgment has not returned within it is re-sent, possibly over
	// another route. The destination deduplicates, so the backstop never
	// causes a double delivery. The acknowledgment is the destination's
	// record of what it delivered, riding the control packets every hop
	// sends back anyway; on an idle mesh those are retries, so it returns
	// within about the longest route's hops × the retry back-off cap
	// (WithRetryBackoff, 32ms by default). NewMesh refuses an AckTimeout
	// inside that trip; the default is 1s, or twice the trip when longer.
	AckTimeout time.Duration
	// MaxAttempts bounds dispatch attempts per payload (0 = unlimited);
	// exhausting it is a sticky fatal error.
	MaxAttempts int
	// WALDir, when set, gives every hop a route uses a forwarding
	// write-ahead log so a crashed relay node replays the frames it had
	// accepted but not yet pushed onward.
	WALDir string
	// DeliveryBuffer is the Delivered channel capacity (default 256).
	DeliveryBuffer int
}

// MeshStats snapshots a Mesh's counters.
type MeshStats struct {
	Submitted     int   // payloads accepted at the source
	Acked         int   // payloads confirmed end-to-end
	Pending       int   // submitted but not yet acked
	Parked        int   // pending with no usable route right now
	Delivered     int64 // distinct payloads handed to the destination
	Hops          int64 // frames forwarded by intermediate nodes
	Reroutes      int64 // re-dispatches (failover + ack timeouts)
	DupSuppressed int64 // duplicates suppressed per hop and end-to-end
	NodeRestarts  int64 // relay-node incarnations rebuilt
	RoutesUsable  int   // routes currently fully healthy
	Routes        int   // link-disjoint routes the mesh dispersed over
}

// HopReport is one directed hop's live conformance report: the counts of
// protocol actions observed on that hop and of violations of the paper's
// Section 2.6 correctness conditions. All-zero violation counts mean the
// hop's execution so far provably conforms.
type HopReport struct {
	Sent, Delivered, OKs, CrashT, CrashR int
	// Causality, Order, Duplication and Replay count condition
	// violations; see the package documentation for their statements.
	Causality, Order, Duplication, Replay int
}

// Violations totals the report's condition violations.
func (r HopReport) Violations() int {
	return r.Causality + r.Order + r.Duplication + r.Replay
}

// Clean reports whether the hop's observed execution conforms.
func (r HopReport) Clean() bool { return r.Violations() == 0 }

// Mesh relays messages from a source node to a destination node across a
// network of unreliable links and crash-prone intermediate relay nodes.
// Every hop a route uses runs the paper's protocol under a self-healing
// supervised session; the source disperses payloads over link-disjoint
// routes and fails them over when a route degrades; intermediate nodes
// forward hop by hop with per-hop deduplication; the destination
// deduplicates end to end and acknowledges back. The result is
// exactly-once, source-to-destination delivery that survives any faulty
// minority of links and whole relay-node crashes, per the paper's
// Theorems 7 and 8 composed over the multi-hop chain.
//
// Create with NewMesh; always Close.
type Mesh struct {
	m *relay.Mesh
}

// NewMesh validates the topology, computes the link-disjoint routes,
// starts every node's per-hop sessions and receivers, and starts the
// source's routing loop.
func NewMesh(cfg MeshConfig) (*Mesh, error) {
	o := applyOptions(cfg.Options)
	topo := relay.Topology{Nodes: cfg.Topology.Nodes}
	for _, l := range cfg.Topology.Links {
		topo.Links = append(topo.Links, relay.Link{A: l.A, B: l.B})
	}
	links := make([]relay.LinkConns, len(cfg.Links))
	for i, lc := range cfg.Links {
		links[i] = relay.LinkConns{A: lc.A, B: lc.B}
	}
	var seed int64
	if o.hasSeed {
		seed = o.seed + 1
	}
	m, err := relay.New(relay.Config{
		Topology:        topo,
		Links:           links,
		Source:          cfg.Source,
		Dest:            cfg.Dest,
		Routes:          cfg.Routes,
		Epsilon:         o.epsilon,
		RetryInterval:   o.retryInterval,
		RetryBackoffMax: o.retryBackoff,
		WatchdogWindow:  cfg.WatchdogWindow,
		AckTimeout:      cfg.AckTimeout,
		MaxAttempts:     cfg.MaxAttempts,
		WALDir:          cfg.WALDir,
		DeliveryBuffer:  cfg.DeliveryBuffer,
		Seed:            seed,
	})
	if err != nil {
		return nil, fmt.Errorf("ghm: %w", err)
	}
	return &Mesh{m: m}, nil
}

// Submit accepts a payload at the source for end-to-end delivery and
// returns its mesh id. The mesh copies payload, so the caller may reuse it
// at once. The payload is dispatched immediately over a usable route, or
// parked until one recovers.
func (m *Mesh) Submit(payload []byte) (uint64, error) { return m.m.Submit(payload) }

// Delivered is the destination's higher layer: distinct payloads, each
// exactly once, in arrival order, each the receiver's to keep. Close
// closes the channel.
func (m *Mesh) Delivered() <-chan []byte { return m.m.Delivered() }

// Flush blocks until every submitted payload is acknowledged end-to-end,
// the mesh fails fatally, or ctx ends. Link faults, failovers and node
// crashes are not fatal: Flush rides through them.
func (m *Mesh) Flush(ctx context.Context) error { return m.m.Flush(ctx) }

// Err returns the mesh's sticky fatal error, if any (MaxAttempts
// exhausted).
func (m *Mesh) Err() error { return m.m.Err() }

// Routes returns the link-disjoint node paths the mesh disperses over.
func (m *Mesh) Routes() [][]int { return m.m.Routes() }

// StopNode crashes a relay node for fault injection: its sessions,
// receivers and in-memory forwarding state are torn down; the links stay
// up for the next incarnation. In-flight payloads routed through it fail
// over; with no surviving route they park until RestartNode.
func (m *Mesh) StopNode(id int) error { return m.m.StopNode(id) }

// RestartNode rebuilds a crashed relay node; with a WALDir its hop
// sessions replay the forwarding backlog the crash interrupted.
func (m *Mesh) RestartNode(id int) error { return m.m.RestartNode(id) }

// NodeUp reports whether node id is currently running.
func (m *Mesh) NodeUp(id int) bool { return m.m.NodeUp(id) }

// Stats snapshots the mesh's counters.
func (m *Mesh) Stats() MeshStats {
	st := m.m.Stats()
	return MeshStats{
		Submitted:     st.Submitted,
		Acked:         st.Acked,
		Pending:       st.Pending,
		Parked:        st.Parked,
		Delivered:     st.Delivered,
		Hops:          st.Hops,
		Reroutes:      st.Reroutes,
		DupSuppressed: st.DupSuppressed,
		NodeRestarts:  st.NodeRestarts,
		RoutesUsable:  st.RoutesUsable,
		Routes:        st.Routes,
	}
}

// HopReports returns the live conformance report of every hop a route
// uses, keyed "from->to" (e.g. "0->1").
func (m *Mesh) HopReports() map[string]HopReport {
	in := m.m.HopReports()
	out := make(map[string]HopReport, len(in))
	for id, r := range in {
		out[id] = HopReport{
			Sent:        r.Sent,
			Delivered:   r.Delivered,
			OKs:         r.OKs,
			CrashT:      r.CrashT,
			CrashR:      r.CrashR,
			Causality:   r.Causality,
			Order:       r.Order,
			Duplication: r.Duplication,
			Replay:      r.Replay,
		}
	}
	return out
}

// Close stops the mesh: the router, every node, every link conn, and the
// Delivered channel.
func (m *Mesh) Close() error { return m.m.Close() }
