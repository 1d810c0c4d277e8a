package relay

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"ghm/internal/clock"
	"ghm/internal/engine"
	"ghm/internal/metrics"
	"ghm/internal/netlink"
	"ghm/internal/supervise"
	"ghm/internal/verify"
)

// ErrClosed reports use of a closed Mesh.
var ErrClosed = errors.New("relay: mesh closed")

// The relay.* metric family, declared constants per the metricname
// invariant.
const (
	mRelayHops          = "relay.hops"           // frames forwarded by intermediate nodes
	mRelayDelivered     = "relay.delivered"      // distinct payloads delivered at the destination
	mRelayDupSuppressed = "relay.dup_suppressed" // duplicates suppressed (per-hop and end-to-end)
	mRelayReroutes      = "relay.reroutes"       // health- or timeout-driven re-dispatches
	mRelayAcks          = "relay.acks"           // payloads an ack retired at the source
	mRelayAckStates     = "relay.ack_states"     // vouched ledger states applied at the source (one per CTL that carried one)
	mRelayAckLatencyMS  = "relay.ack_latency_ms" // dispatch to ack at the source, first dispatches only
	mRelayDropped       = "relay.dropped"        // frames dropped (decode/route errors, dying hops)
	mRelayParked        = "relay.parked"         // gauge: payloads parked with no usable route
	mRelayRoutesUsable  = "relay.routes_usable"  // gauge: routes with every hop healthy
	mRelayNodeRestarts  = "relay.node_restarts"  // relay-node incarnations rebuilt
)

// relayMetrics is the registry hookup for the relay.* family.
type relayMetrics struct {
	hops          *metrics.Counter
	delivered     *metrics.Counter
	dupSuppressed *metrics.Counter
	reroutes      *metrics.Counter
	acks          *metrics.Counter
	ackStates     *metrics.Counter
	ackLatencyMS  *metrics.Histogram
	dropped       *metrics.Counter
	parked        *metrics.Gauge
	routesUsable  *metrics.Gauge
	nodeRestarts  *metrics.Counter
}

func newRelayMetrics(r *metrics.Registry) relayMetrics {
	return relayMetrics{
		hops:          r.Counter(mRelayHops),
		delivered:     r.Counter(mRelayDelivered),
		dupSuppressed: r.Counter(mRelayDupSuppressed),
		reroutes:      r.Counter(mRelayReroutes),
		acks:          r.Counter(mRelayAcks),
		ackStates:     r.Counter(mRelayAckStates),
		ackLatencyMS:  r.Histogram(mRelayAckLatencyMS),
		dropped:       r.Counter(mRelayDropped),
		parked:        r.Gauge(mRelayParked),
		routesUsable:  r.Gauge(mRelayRoutesUsable),
		nodeRestarts:  r.Counter(mRelayNodeRestarts),
	}
}

// LinkConns is the pair of PacketConn halves realizing one topology
// link; A belongs to Link.A's node, B to Link.B's. The mesh owns both:
// Mesh.Close closes them.
type LinkConns struct {
	A, B netlink.PacketConn
}

// Config parameterizes a Mesh. Topology, Links, Source and Dest are
// required; everything else defaults sanely.
type Config struct {
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

	// Epsilon is the per-hop per-message error probability (0 = protocol
	// default).
	Epsilon float64
	// RetryInterval / RetryBackoffMax pace each hop's receiver (defaults
	// 300µs / 32ms — in-process scale; raise them for real networks).
	RetryInterval   time.Duration
	RetryBackoffMax time.Duration
	// WatchdogWindow is each hop session's no-progress window (default
	// 250ms); a hop leaving Healthy drives failover.
	WatchdogWindow time.Duration

	// AckTimeout is the end-to-end re-dispatch backstop: a payload whose
	// ack has not returned within it is re-dispatched. This is what
	// survives a relay-node crash that swallowed a frame between hop
	// delivery and next-hop enqueue. An ack rides the CTL packets the hops
	// send anyway, so on an idle mesh it comes home on RETRY CTLs, within
	// about the longest route's hops × RetryBackoffMax of the delivery —
	// the idle trip. New refuses an AckTimeout inside the idle trip, which
	// would re-dispatch every idle tail; the default is 1s, or twice the
	// idle trip when that is longer.
	AckTimeout time.Duration
	// MaxAttempts bounds dispatch attempts per payload (0 = unlimited);
	// exhausting it is a sticky fatal error, like an outbox giving up.
	MaxAttempts int
	// WALDir, when set, gives every hop a route uses a forwarding WAL so a
	// restarted node resubmits the frames its previous incarnation had
	// accepted but not yet pushed onward.
	WALDir string
	// DeliveryBuffer is the Delivered channel capacity (default 256).
	DeliveryBuffer int

	// Seed fixes hop-session jitter for reproducible tests (0 = clock).
	Seed int64
	// Clock is the mesh's time source: ack deadlines, hop supervisors
	// and every engine's wheel ride it (nil = wall clock via the shared
	// default wheel).
	Clock clock.Clock
	// Metrics receives the relay.* family plus every hop's session.*,
	// tx.*, rx.* and link.* counters; nil uses metrics.Default().
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.Routes <= 0 {
		c.Routes = 2
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 300 * time.Microsecond
	}
	if c.RetryBackoffMax <= 0 {
		c.RetryBackoffMax = 32 * time.Millisecond
	}
	if c.WatchdogWindow <= 0 {
		c.WatchdogWindow = 250 * time.Millisecond
	}
	if c.DeliveryBuffer <= 0 {
		c.DeliveryBuffer = 256
	}
	return c
}

// meshWheel picks the mesh's timer wheel: the process-wide default on
// the wall clock, or a wheel riding the injected clock (costless for a
// virtual clock — virtual wheels have no goroutine).
func meshWheel(clk clock.Clock) *engine.Wheel {
	if clk == nil {
		return engine.DefaultWheel()
	}
	return engine.NewWheelOn(clk, 0, 0)
}

// hopID names a directed hop.
type hopID struct {
	From, To int
}

// String renders "0->1" for reports and logs.
func (h hopID) String() string { return fmt.Sprintf("%d->%d", h.From, h.To) }

// spareEntries is the number of acked entries an idle source keeps for
// Submit to refill, and maxKeptPayload the payload buffer an entry may keep
// with it: what an idle source holds is at most their product (128 KiB),
// whatever it carried. A busy one keeps as many as its in-flight table
// held at its largest since the last ack-timeout pass (see reconcile).
const (
	spareEntries   = 64
	maxKeptPayload = 2 << 10
)

// entry is one in-flight end-to-end payload at the source router.
type entry struct {
	id       uint64
	payload  []byte // the entry's own copy, in a buffer the entry keeps when it is recycled
	attempt  uint32
	routeIdx int
	sent     time.Time // the last dispatch
	deadline time.Time
	parked   bool
}

// Stats snapshots a Mesh's counters.
type Stats struct {
	Submitted     int   // payloads accepted at the source
	Acked         int   // payloads confirmed end-to-end
	Pending       int   // submitted but not yet acked
	Parked        int   // pending with no usable route right now
	Delivered     int64 // distinct payloads handed to the destination's higher layer
	Hops          int64 // frames forwarded by intermediate nodes
	Reroutes      int64 // re-dispatches (health-driven failover + ack timeouts)
	DupSuppressed int64 // duplicates suppressed per hop and at the destination
	NodeRestarts  int64 // node incarnations rebuilt
	RoutesUsable  int   // routes currently fully healthy
	Routes        int   // link-disjoint routes the mesh dispersed over
}

// Mesh is a multi-hop relay network: a supervised session on every hop a
// route uses, source routing over link-disjoint routes, per-hop dedup,
// end-to-end acks and health-driven failover. See the package comment
// for the guarantee layering. Create with New; always Close.
type Mesh struct {
	cfg    Config
	reg    *metrics.Registry
	mt     relayMetrics
	routes [][]int
	routeB [][]byte // routes as frame bytes, encoded once
	wheel  *engine.Wheel

	engines []*engine.Engine // one per conn half, mesh-owned
	nodes   []*node
	hops    map[hopID]*verify.Live // every route hop's conformance checker, shared across node incarnations

	deliveredCh chan []byte

	mu         sync.Mutex
	cond       *sync.Cond
	inflight   map[uint64]*entry
	spare      []*entry // acked entries for Submit to refill, at most max(spareEntries, peak)
	peak       int      // the largest in-flight table since the last ack-timeout pass
	armed      bool     // the last router pass left the ack-timeout timer armed
	ackedBelow uint64   // every id below it has been retired by an ack
	usable     []int    // usableRoutesLocked's result, reused
	frameBuf   []byte   // dispatchLocked's encode buffer, reused
	hopHealth  map[hopID]supervise.Health
	nodeUp     []bool
	nextID     uint64
	rr         int // round-robin route cursor
	parked     int
	err        error // sticky fatal (MaxAttempts exhausted)
	closed     bool

	st struct { // Stats' counters, the mesh's own: a registry may serve several meshes
		submitted, acked                atomic.Int64
		delivered, hops, dups, reroutes atomic.Int64
		nodeRestarts                    atomic.Int64
	}

	// The destination's exactly-once ledger, under a leaf lock of its own:
	// its hop receivers read it for every CTL on the engine pumps, which
	// must not wait for m.mu (dispatchLocked holds it across a WAL write).
	ledMu  sync.Mutex
	ledger idLedger

	heard      idLedger      // the router's copy of the source's union (retireHeard)
	acked      chan struct{} // the source heard a state that covers more: retire it
	expired    atomic.Bool   // the ack-timeout timer fired since the last pass
	wake       chan struct{}
	stop       chan struct{}
	routerDone chan struct{}
	timer      *engine.Timer
	closeOnce  sync.Once
}

// New validates the topology, computes the link-disjoint routes, builds
// the engines and the route hops' stations, and starts the router.
func New(cfg Config) (*Mesh, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Links) != len(cfg.Topology.Links) {
		return nil, fmt.Errorf("relay: %d conn pairs for %d topology links", len(cfg.Links), len(cfg.Topology.Links))
	}
	if cfg.Source < 0 || cfg.Source >= cfg.Topology.Nodes || cfg.Dest < 0 || cfg.Dest >= cfg.Topology.Nodes {
		return nil, fmt.Errorf("relay: source %d / dest %d out of range [0, %d)", cfg.Source, cfg.Dest, cfg.Topology.Nodes)
	}
	if cfg.Source == cfg.Dest {
		return nil, fmt.Errorf("relay: source and dest are both node %d", cfg.Source)
	}
	routes := cfg.Topology.DisjointRoutes(cfg.Source, cfg.Dest, cfg.Routes)
	if len(routes) == 0 {
		return nil, fmt.Errorf("relay: no route from %d to %d", cfg.Source, cfg.Dest)
	}
	// Frames, and the acks on their CTLs, travel only along the routes: only
	// a hop of one gets stations and a checker. A link carries at most one
	// route hop, so its ends need no endpoint ids: their engines are raw.
	hopSet := make(map[hopID]*verify.Live)
	routeB := make([][]byte, len(routes))
	for ri, r := range routes {
		routeB[ri] = make([]byte, len(r))
		for i, n := range r {
			routeB[ri][i] = byte(n)
			if i == 0 {
				continue
			}
			h := hopID{From: r[i-1], To: n}
			if hopSet[h] != nil || hopSet[hopID{From: n, To: h.From}] != nil {
				return nil, fmt.Errorf("relay: link %d-%d carries two route hops", h.From, n)
			}
			hopSet[h] = &verify.Live{}
		}
	}
	hops := len(routes[len(routes)-1]) - 1 // shortest first
	switch trip := time.Duration(hops) * cfg.RetryBackoffMax; {
	case cfg.AckTimeout <= 0:
		cfg.AckTimeout = max(time.Second, 2*trip)
	case cfg.AckTimeout <= trip:
		return nil, fmt.Errorf("relay: AckTimeout %v is inside the idle ack trip, %d hops × RetryBackoffMax %v", cfg.AckTimeout, hops, cfg.RetryBackoffMax)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default()
	}

	m := &Mesh{
		cfg:         cfg,
		reg:         reg,
		mt:          newRelayMetrics(reg),
		routes:      routes,
		wheel:       meshWheel(cfg.Clock),
		routeB:      routeB,
		hops:        hopSet,
		deliveredCh: make(chan []byte, cfg.DeliveryBuffer),
		inflight:    make(map[uint64]*entry),
		spare:       make([]*entry, 0, spareEntries),
		hopHealth:   make(map[hopID]supervise.Health),
		nodeUp:      make([]bool, cfg.Topology.Nodes),
		acked:       make(chan struct{}, 1),
		wake:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
		routerDone:  make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)

	// Permanent per-node link ends: one raw engine per conn half.
	nodes := make([]*node, cfg.Topology.Nodes)
	for i := range nodes {
		nodes[i] = &node{m: m, id: i}
	}
	for li, l := range cfg.Topology.Links {
		engA := engine.New(cfg.Links[li].A, engine.Config{Raw: true, Metrics: reg, Wheel: m.wheel})
		engB := engine.New(cfg.Links[li].B, engine.Config{Raw: true, Metrics: reg, Wheel: m.wheel})
		m.engines = append(m.engines, engA, engB)
		nodes[l.A].ends = append(nodes[l.A].ends, nodeEnd{peer: l.B, eng: engA})
		nodes[l.B].ends = append(nodes[l.B].ends, nodeEnd{peer: l.A, eng: engB})
	}
	m.nodes = nodes

	for _, n := range nodes {
		if err := n.start(); err != nil {
			for _, p := range nodes {
				p.stop()
			}
			for _, e := range m.engines {
				e.Close()
			}
			return nil, err
		}
		m.mu.Lock()
		m.nodeUp[n.id] = true
		m.mu.Unlock()
	}

	// The ack-timeout timer's pass also sizes the spares (see reconcile).
	m.timer = m.wheel.AfterFunc(time.Hour, func() { m.expired.Store(true); m.signal() })
	m.timer.Stop()
	go m.router()
	m.signal()
	return m, nil
}

// hopSeed derives a deterministic per-hop supervisor seed (0 stays 0:
// clock-seeded).
func (m *Mesh) hopSeed(nodeID, endIdx int) int64 {
	if m.cfg.Seed == 0 {
		return 0
	}
	return m.cfg.Seed + int64(nodeID)*64 + int64(endIdx) + 1
}

// signal wakes the router for a pass; safe from wheel callbacks (never
// blocks).
func (m *Mesh) signal() { poke(m.wake) }

// poke wakes whoever waits on the one-slot channel c, unless a wake-up is
// already queued there.
func poke(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// noteHopHealth records a hop transition and wakes the router: a
// worsened hop triggers failover of in-flight payloads routed over it, a
// recovered hop resumes parked ones.
func (m *Mesh) noteHopHealth(h hopID, to supervise.Health) {
	m.mu.Lock()
	m.hopHealth[h] = to
	m.mu.Unlock()
	m.signal()
}

// Routes returns the link-disjoint node paths the mesh disperses over.
func (m *Mesh) Routes() [][]int {
	out := make([][]int, len(m.routes))
	for i, r := range m.routes {
		out[i] = append([]int(nil), r...)
	}
	return out
}

// HopReports returns the live Section-2.6 conformance report of every hop
// a route uses, keyed "from->to".
func (m *Mesh) HopReports() map[string]verify.Report {
	out := make(map[string]verify.Report, len(m.hops))
	for id, live := range m.hops {
		out[id.String()] = live.Report()
	}
	return out
}

// Delivered is the destination's higher layer: distinct payloads, each
// exactly once, in arrival order. The channel is closed by Close.
func (m *Mesh) Delivered() <-chan []byte { return m.deliveredCh }

// Submit accepts a payload at the source for end-to-end delivery and
// returns its mesh id. The mesh copies payload; the caller may reuse it at
// once. The payload is dispatched immediately over the healthiest route,
// or parked if no route is usable right now.
//
// Submit wakes the router only when it must. Ack deadlines are minted in
// increasing order, so a timer the router armed already fires no later
// than this entry's deadline, and the pass it triggers re-arms for the
// next one; only an unarmed timer (an empty table, or nothing but parked
// entries) or a parked entry needs a pass now.
func (m *Mesh) Submit(payload []byte) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrClosed
	}
	if m.err != nil {
		return 0, m.err
	}
	id := m.nextID
	m.nextID++
	var e *entry
	if n := len(m.spare); n > 0 {
		e, m.spare = m.spare[n-1], m.spare[:n-1]
	} else {
		// No acked entry to refill: the in-flight table is growing.
		e = new(entry)
	}
	e.id, e.attempt = id, 0
	e.payload = e.payload[:0]
	e.payload = append(e.payload, payload...)
	m.inflight[id] = e
	m.peak = max(m.peak, len(m.inflight))
	m.st.submitted.Add(1)
	m.dispatchLocked(e, m.wheel.Clock().Now())
	if !m.armed || e.parked {
		m.signal()
	}
	return id, nil
}

// usableLocked reports whether route r is fully usable: every node on it
// up, every hop session Healthy.
func (m *Mesh) usableLocked(r []int) bool {
	for _, n := range r {
		if !m.nodeUp[n] {
			return false
		}
	}
	var h hopID
	for i := 0; i+1 < len(r); i++ {
		h.From, h.To = r[i], r[i+1]
		if m.hopHealth[h] != supervise.Healthy {
			return false
		}
	}
	return true
}

// usableRoutesLocked lists the indexes of currently usable routes, in a
// slice that is valid until the next call.
func (m *Mesh) usableRoutesLocked() []int {
	m.usable = m.usable[:0]
	for i, r := range m.routes {
		if m.usableLocked(r) {
			m.usable = append(m.usable, i)
		}
	}
	return m.usable
}

// dispatchLocked sends (or re-sends) one entry over the next usable
// route, or parks it when none is usable. Caller holds m.mu.
func (m *Mesh) dispatchLocked(e *entry, now time.Time) {
	usable := m.usableRoutesLocked()
	m.mt.routesUsable.Set(float64(len(usable)))
	if len(usable) == 0 {
		m.parkLocked(e)
		return
	}
	if m.cfg.MaxAttempts > 0 && int(e.attempt) >= m.cfg.MaxAttempts {
		// The sticky fatal error, formatted once in a mesh's life.
		m.err = fmt.Errorf("relay: payload %d exhausted %d dispatch attempts", e.id, m.cfg.MaxAttempts)
		delete(m.inflight, e.id)
		m.unparkLocked(e)
		m.cond.Broadcast()
		return
	}

	idx := usable[m.rr%len(usable)]
	m.rr++
	e.attempt++
	e.routeIdx = idx
	e.sent, e.deadline = now, now.Add(m.cfg.AckTimeout)
	m.unparkLocked(e)

	var f frame
	f.ID, f.Attempt = e.id, e.attempt
	f.Route, f.Payload = m.routeB[idx], e.payload
	sess := m.nodes[m.cfg.Source].sessionTo(m.routes[idx][1])
	if sess == nil {
		m.parkLocked(e)
		return
	}
	// Enqueue copies what it keeps, so one buffer serves every dispatch.
	m.frameBuf = appendFrame(m.frameBuf[:0], f)
	if _, err := sess.Enqueue(m.frameBuf); err != nil {
		m.parkLocked(e)
		return
	}
}

// parkLocked parks an entry until some route recovers; a parked entry
// has no deadline.
func (m *Mesh) parkLocked(e *entry) {
	if !e.parked {
		e.parked = true
		m.parked++
		m.mt.parked.Set(float64(m.parked))
	}
	e.deadline = time.Time{}
}

// unparkLocked undoes parkLocked; it reports whether e was parked.
func (m *Mesh) unparkLocked(e *entry) bool {
	if !e.parked {
		return false
	}
	e.parked = false
	m.parked--
	m.mt.parked.Set(float64(m.parked))
	return true
}

// retireHeard retires every in-flight payload the source's union of the
// destination's ledger states covers (see node.onTrailer).
func (m *Mesh) retireHeard() {
	src := &m.nodes[m.cfg.Source].heard
	src.mu.Lock()
	m.heard.low, m.heard.bits = src.low, append(m.heard.bits[:0], src.bits...)
	src.mu.Unlock()
	m.mt.acks.Add(int64(m.completeAcks(m.heard.low, m.heard.bits)))
}

// completeAcks retires every in-flight payload a ledger state covers —
// each id below low, and each id its bitmap sets — and returns how many it
// retired. ackedBelow keeps the ids below low from being visited twice;
// ids never minted are not visited at all.
func (m *Mesh) completeAcks(low uint64, set []byte) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.wheel.Clock().Now()
	n := 0
	for top := min(low, m.nextID); m.ackedBelow < top; m.ackedBelow++ {
		if m.retireLocked(m.ackedBelow, now) {
			n++
		}
	}
	if low < m.nextID {
	scan:
		for j, c := range set {
			for ; c != 0; c &= c - 1 {
				id := low + 1 + uint64(8*j+bits.TrailingZeros8(c))
				if id >= m.nextID {
					break scan
				}
				if m.retireLocked(id, now) {
					n++
				}
			}
		}
	}
	if n > 0 {
		m.cond.Broadcast()
	}
	return n
}

// retireLocked resolves one payload's end-to-end ack at the source and
// keeps its entry, with its payload buffer, for a later Submit; it reports
// false for an id no longer in flight. Nothing else holds an entry once it
// has left the table: the router and dispatchLocked reach entries only
// through the table, under m.mu. The router is not woken — the timer it
// armed fires at this entry's deadline at the latest, finds it gone and
// re-arms for the earliest one left. Only a first dispatch times its ack:
// the ack of a re-dispatched payload may answer any of its attempts.
// Caller holds m.mu.
func (m *Mesh) retireLocked(id uint64, now time.Time) bool {
	e, ok := m.inflight[id]
	if !ok {
		return false
	}
	delete(m.inflight, id)
	if !m.unparkLocked(e) && e.attempt == 1 {
		m.mt.ackLatencyMS.Observe(float64(now.Sub(e.sent)) / float64(time.Millisecond))
	}
	if len(m.spare) < max(spareEntries, m.peak) && cap(e.payload) <= maxKeptPayload {
		m.spare = append(m.spare, e) // Submit and its dispatch overwrite every other field
	}
	m.st.acked.Add(1)
	return true
}

// deliverLocal commits one data frame at the destination: end-to-end
// dedup against the ledger, whose state the destination's hop receivers
// put on every CTL they send (appendLedger), then hand the payload to the
// higher layer. What goes to Delivered is a copy of the payload at its own
// size, the higher layer's for good: the frame stays the caller's to give
// back. A payload is counted delivered once Delivered has it, not when a
// closing mesh drops it. A frame between other endpoints than the mesh's,
// or too far ahead of the ledger's watermark to record, is dropped.
func (m *Mesh) deliverLocal(f frame) {
	m.ledMu.Lock()
	if int(f.src()) != m.cfg.Source || int(f.dst()) != m.cfg.Dest || m.ledger.beyond(f.ID) {
		m.ledMu.Unlock()
		m.mt.dropped.Inc()
		return
	}
	first := m.ledger.add(f.ID)
	m.ledMu.Unlock()
	if !first {
		m.mt.dupSuppressed.Inc()
		m.st.dups.Add(1)
		return
	}
	p := make([]byte, len(f.Payload))
	copy(p, f.Payload)
	select {
	case m.deliveredCh <- p:
		m.mt.delivered.Inc()
		m.st.delivered.Add(1)
	case <-m.stop:
	}
}

// appendLedger appends the state of the destination's ledger to dst: the
// trailer of every CTL the destination's hop receivers send.
func (m *Mesh) appendLedger(dst []byte) []byte {
	m.ledMu.Lock()
	defer m.ledMu.Unlock()
	return appendState(dst, m.ledger.low, m.ledger.bits)
}

// router is the failover loop: on every wake — a health transition, a
// node stop/restart, an ack-timeout firing, or a Submit that found the
// timer unarmed or parked its entry — it reconciles the in-flight table
// against route health, re-dispatching entries whose route worsened or
// whose ack is overdue and resuming parked ones, then re-arms the timeout
// timer. A pass walks the whole table, so acks and ordinary submits do
// not cause one: an ack that covers more wakes the router to retire what
// it covers, and nothing else.
func (m *Mesh) router() {
	defer close(m.routerDone)
	for {
		select {
		case <-m.stop:
			return
		case <-m.acked:
			m.retireHeard()
		case <-m.wake:
			m.reconcile()
		}
	}
}

// reconcile is one router pass; see router. A pass the ack-timeout timer
// woke also sizes the spares: keeping as many as the in-flight table held
// at its largest since the last such pass means a table that grows as far
// again — acks lagging as much as they did — is refilled without
// allocating; a table that stays smaller gives the rest back at the next.
// Other passes leave the spares alone, or one amid a burst's acks would
// cap them below the burst. A pass that leaves the table empty with more
// than spareEntries spares arms the timer once more, so an idle source is
// down to spareEntries within two AckTimeouts.
func (m *Mesh) reconcile() {
	m.mu.Lock()
	now := m.wheel.Clock().Now()
	m.mt.routesUsable.Set(float64(len(m.usableRoutesLocked())))
	if m.expired.Swap(false) {
		if keep := max(spareEntries, m.peak); len(m.spare) > keep {
			clear(m.spare[keep:]) // for the collector
			m.spare = m.spare[:keep]
		}
		m.peak = len(m.inflight)
	}
	var earliest time.Time
	for _, e := range m.inflight {
		if m.err != nil {
			break
		}
		switch {
		case e.parked:
			m.dispatchLocked(e, now) // parks again if still no route
		case !m.usableLocked(m.routes[e.routeIdx]) || !now.Before(e.deadline):
			// Health-driven failover or ack-timeout backstop.
			m.mt.reroutes.Inc()
			m.st.reroutes.Add(1)
			m.dispatchLocked(e, now)
		}
		if !e.parked && !e.deadline.IsZero() && (earliest.IsZero() || e.deadline.Before(earliest)) {
			earliest = e.deadline
		}
	}
	if len(m.inflight) == 0 && len(m.spare) > spareEntries {
		earliest = now.Add(m.cfg.AckTimeout) // Submit's deadlines fall no earlier
	}
	// Armed under m.mu, so armed is never true of a timer not yet set; and
	// on the mesh's clock, like the deadlines: now is this pass's own
	// reading of it.
	if m.armed = !earliest.IsZero(); m.armed {
		m.timer.Reset(max(earliest.Sub(now), time.Millisecond))
	}
	m.mu.Unlock()
}

// StopNode crashes a relay node: its sessions, receivers and in-memory
// forwarding state are torn down (the links stay up). In-flight payloads
// routed through it fail over to surviving routes; with no surviving
// route they park until RestartNode.
func (m *Mesh) StopNode(id int) error {
	if id < 0 || id >= len(m.nodes) {
		return fmt.Errorf("relay: node %d out of range [0, %d)", id, len(m.nodes))
	}
	m.mu.Lock()
	m.nodeUp[id] = false
	m.mu.Unlock()
	m.nodes[id].stop()
	m.signal()
	return nil
}

// RestartNode rebuilds a crashed node: fresh sessions (replaying their
// forwarding WALs, when configured) and receivers. Parked payloads
// resume as soon as the restored routes report healthy.
func (m *Mesh) RestartNode(id int) error {
	if id < 0 || id >= len(m.nodes) {
		return fmt.Errorf("relay: node %d out of range [0, %d)", id, len(m.nodes))
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	up := m.nodeUp[id]
	m.mu.Unlock()
	if up {
		return fmt.Errorf("relay: node %d is already running", id)
	}
	if err := m.nodes[id].start(); err != nil {
		return err
	}
	m.mu.Lock()
	m.nodeUp[id] = true
	m.mu.Unlock()
	m.mt.nodeRestarts.Inc()
	m.st.nodeRestarts.Add(1)
	m.signal()
	return nil
}

// NodeUp reports whether node id is currently running.
func (m *Mesh) NodeUp(id int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return id >= 0 && id < len(m.nodeUp) && m.nodeUp[id]
}

// Flush blocks until every submitted payload is acked end-to-end, the
// mesh fails fatally, or ctx ends. Node crashes and hop failures are not
// fatal: Flush rides through them.
func (m *Mesh) Flush(ctx context.Context) error {
	// Wake the waiter when ctx ends, under the lock, so the broadcast
	// cannot fall between the loop's ctx check and its Wait.
	defer context.AfterFunc(ctx, func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})()

	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.inflight) > 0 && m.err == nil && !m.closed {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		m.cond.Wait()
	}
	if m.err != nil {
		return m.err
	}
	if m.closed && len(m.inflight) > 0 {
		return ErrClosed
	}
	return ctx.Err()
}

// Err returns the mesh's sticky fatal error, if any.
func (m *Mesh) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Stats snapshots the mesh's counters.
func (m *Mesh) Stats() Stats {
	m.mu.Lock()
	pending, parked, usable := len(m.inflight), m.parked, len(m.usableRoutesLocked())
	m.mu.Unlock()
	return Stats{
		Submitted:     int(m.st.submitted.Load()),
		Acked:         int(m.st.acked.Load()),
		Pending:       pending,
		Parked:        parked,
		Delivered:     m.st.delivered.Load(),
		Hops:          m.st.hops.Load(),
		Reroutes:      m.st.reroutes.Load(),
		DupSuppressed: m.st.dups.Load(),
		NodeRestarts:  m.st.nodeRestarts.Load(),
		RoutesUsable:  usable,
		Routes:        len(m.routes),
	}
}

// Close stops the mesh: the router, every node's runtime, every engine
// (closing the underlying conns) and the Delivered channel.
func (m *Mesh) Close() error {
	m.closeOnce.Do(func() {
		close(m.stop)
		<-m.routerDone
		m.timer.Stop()
		for _, n := range m.nodes {
			n.stop()
		}
		for _, e := range m.engines {
			e.Close()
		}
		if m.cfg.Clock != nil {
			m.wheel.Stop() // meshWheel made it for that clock; the default wheel is not ours
		}
		m.mu.Lock()
		m.closed = true
		m.cond.Broadcast()
		m.mu.Unlock()
		close(m.deliveredCh)
	})
	return nil
}
