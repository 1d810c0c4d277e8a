package relay

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"ghm/internal/core"
	"ghm/internal/engine"
	"ghm/internal/netlink"
	"ghm/internal/session"
	"ghm/internal/supervise"
)

// dedupDepth is R, the data-frame keys a node remembers per inbound hop.
// The duplicates per-hop dedup exists for are one hop delivering a frame
// twice: its session restarted after a station crash between delivery and
// OK, or the upstream node restarted and replayed its forwarding WAL.
// Relay sessions run at depth 1, so the outbox has one claimed entry to
// re-send and re-sends it before anything queued behind it: the duplicate
// is the very next delivery on the same receiver. A re-dispatch bumps the
// attempt, so it is a new key (see key). One key would do; sixteen are
// margin, 384 bytes per inbound hop scanned in six cache lines. A
// duplicate from further back is forwarded, and the destination's idLedger
// suppresses it: per-hop dedup is a traffic optimization, end-to-end dedup
// the guarantee.
const dedupDepth = 16

// dedupWindow is one inbound hop's per-hop dedup memory: the keys of the
// last dedupDepth data frames it delivered. Its drain goroutine owns it,
// so it takes no lock, and it is an array, so it never allocates. The zero
// value is empty: the source numbers attempts from 1.
type dedupWindow struct {
	keys [dedupDepth]key
	next int // the slot the next new key overwrites
}

// seen reports whether k is in the window, and records it if not.
func (w *dedupWindow) seen(k key) bool {
	for i := range w.keys {
		if w.keys[i] == k {
			return true
		}
	}
	w.keys[w.next] = k
	w.next = (w.next + 1) % dedupDepth
	return false
}

// nodeEnd is one node's attachment to one of its links: the raw engine
// owning that side's conn, whose one endpoint carries the station of the
// link's route hop, if it has one. The engine outlives node crashes — a
// crashed node loses its stations and its forwarding state, not the
// physical link.
type nodeEnd struct {
	peer int // neighbor node id
	eng  *engine.Engine
}

// nodeRuntime is one incarnation of a relay node: the supervised
// sessions its outbound route hops send through and the receivers of its
// inbound ones, each receiver with its drain goroutine's dedup window.
// StopNode discards the whole runtime (a node crash erases everything but
// the WALs); RestartNode builds a fresh one.
type nodeRuntime struct {
	sessions  map[int]*session.Session // keyed by peer node id
	receivers []*netlink.Receiver

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// node is one relay-mesh participant. The node itself (identity, link
// ends) is permanent; its runtime comes and goes with crashes.
type node struct {
	m    *Mesh
	id   int
	ends []nodeEnd

	mu sync.Mutex
	rt *nodeRuntime

	// heard is the union of the destination's ledger states this node's
	// senders have heard on vouching CTLs (onTrailer), under its own leaf
	// lock; its receivers put it on their CTLs (appendTrailer), so the
	// states travel hop by hop back to the source. It outlives the node's
	// incarnations: every state in it is one the ledger reached.
	heard struct {
		mu sync.Mutex
		idLedger
	}
}

// onTrailer is every sender's netlink.SenderConfig.OnTrailer: it folds the
// state a vouching CTL carried into heard and, at the source, counts it
// and has the router retire what it covers when it covers more. It runs on
// the engine pump, so it takes no lock but heard's.
func (n *node) onTrailer(trailer []byte) {
	low, set, ok := parseState(trailer)
	if !ok {
		n.m.mt.dropped.Inc()
		return
	}
	n.heard.mu.Lock()
	grew := n.heard.mergeAcks(low, set)
	n.heard.mu.Unlock()
	if n.id == n.m.cfg.Source {
		n.m.mt.ackStates.Inc()
		if grew {
			poke(n.m.acked)
		}
	}
}

// appendTrailer is every receiver's netlink.ReceiverConfig.CtlTrailer: the
// destination's ledger at the destination, heard everywhere else.
func (n *node) appendTrailer(dst []byte) []byte {
	if n.id == n.m.cfg.Dest {
		return n.m.appendLedger(dst)
	}
	n.heard.mu.Lock()
	defer n.heard.mu.Unlock()
	return appendState(dst, n.heard.low, n.heard.bits)
}

// sessionTo returns the live session toward peer, or nil while the node
// is down (or n -> peer is no route hop). Safe under Mesh.mu: node.mu is a
// leaf lock.
func (n *node) sessionTo(peer int) *session.Session {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.rt == nil {
		return nil
	}
	return n.rt.sessions[peer]
}

// walPath names the forwarding WAL for the directed hop n -> peer.
func (n *node) walPath(peer int) string {
	if n.m.cfg.WALDir == "" {
		return ""
	}
	return filepath.Join(n.m.cfg.WALDir, fmt.Sprintf("relay-n%d-to-n%d.wal", n.id, peer))
}

// start builds a fresh runtime: one supervised session per outbound route
// hop, one receiver and drain goroutine per inbound one, and nothing on a
// hop no route uses. Each session reports its health transitions straight
// into the mesh's route-health view and, with a WALDir, replays its
// forwarding backlog: frames the previous incarnation accepted but had
// not yet pushed to the next hop go out again.
func (n *node) start() error {
	m := n.m
	rt := &nodeRuntime{sessions: make(map[int]*session.Session, len(n.ends))}
	var ctx context.Context
	ctx, rt.cancel = context.WithCancel(context.Background())
	params := core.Params{Epsilon: m.cfg.Epsilon}

	fail := func(err error) error {
		rt.cancel()
		for _, s := range rt.sessions {
			s.Close()
		}
		for _, r := range rt.receivers {
			r.Close()
		}
		rt.wg.Wait()
		return err
	}

	for i, end := range n.ends {
		if out := (hopID{From: n.id, To: end.peer}); m.hops[out] != nil {
			// A fresh session starts healthy. Publish that before building
			// it, so a transition the session reports from its first
			// moments is not overwritten.
			m.noteHopHealth(out, supervise.Healthy)
			sess, err := session.New(session.Config{
				Dial:             func() (netlink.PacketConn, error) { return end.eng.Endpoint(0) },
				Params:           params,
				Tap:              m.hops[out].Observe,
				WALPath:          n.walPath(end.peer),
				WALSync:          false,
				OnTrailer:        n.onTrailer,
				WatchdogWindow:   m.cfg.WatchdogWindow,
				WatchdogInterval: m.cfg.WatchdogWindow / 16,
				// A hop rebuilds 5ms to 80ms after it fails, and keeps
				// trying at that pace until a rebuild takes.
				RestartBackoff:    5 * time.Millisecond,
				RestartBackoffMax: 80 * time.Millisecond,
				Seed:              m.hopSeed(n.id, i),
				Wheel:             m.wheel,
				Metrics:           m.reg,
				OnTransition:      func(tr supervise.Transition) { m.noteHopHealth(out, tr.To) },
			})
			if err != nil {
				return fail(fmt.Errorf("relay: node %d session to %d: %w", n.id, end.peer, err))
			}
			rt.sessions[end.peer] = sess
		}

		in := hopID{From: end.peer, To: n.id}
		if m.hops[in] == nil {
			continue
		}
		conn, err := end.eng.Endpoint(0)
		if err != nil {
			return fail(fmt.Errorf("relay: node %d endpoint from %d: %w", n.id, end.peer, err))
		}
		r, err := netlink.NewReceiver(conn, netlink.ReceiverConfig{
			Params:          params,
			RetryInterval:   m.cfg.RetryInterval,
			RetryBackoffMax: m.cfg.RetryBackoffMax,
			Tap:             m.hops[in].Observe,
			Metrics:         m.reg,
			CtlTrailer:      n.appendTrailer,
		})
		if err != nil {
			return fail(fmt.Errorf("relay: node %d receiver from %d: %w", n.id, end.peer, err))
		}
		rt.receivers = append(rt.receivers, r)

		rt.wg.Add(1)
		go func() {
			defer rt.wg.Done()
			var w dedupWindow
			for {
				msg, err := r.Recv(ctx)
				if err != nil {
					return
				}
				// Forwarded, acked, delivered, suppressed or dropped, a
				// frame is done with: every hand-on is a copy.
				n.handleFrame(&w, msg)
				r.GiveBack(msg)
			}
		}()
	}

	n.mu.Lock()
	n.rt = rt
	n.mu.Unlock()
	return nil
}

// stop tears the runtime down: a deliberate node crash. Sessions and
// receivers die (their engine endpoints detach; the links stay up for
// the next incarnation), drain goroutines exit, and their dedup windows
// are lost — exactly what a process crash would lose.
func (n *node) stop() {
	n.mu.Lock()
	rt := n.rt
	n.rt = nil
	n.mu.Unlock()
	if rt == nil {
		return
	}
	rt.cancel()
	for _, s := range rt.sessions {
		s.Close()
	}
	for _, r := range rt.receivers {
		// Tape crash^R before discarding: the receiving stations' memory
		// really is erased, so the verifier must license the redeliveries
		// the next incarnation will accept.
		r.Crash()
		r.Close()
	}
	rt.wg.Wait()
}

// handleFrame processes one inbound frame on this node: dedup against w,
// the window of the hop it arrived on, then deliver (destination) or
// forward. It keeps no part of p: Enqueue and Delivered get copies.
func (n *node) handleFrame(w *dedupWindow, p []byte) {
	m := n.m
	f, err := parseFrame(p)
	if err != nil {
		m.mt.dropped.Inc()
		return
	}

	// Per-hop dedup: a session resubmission after a hop crash delivers
	// the same attempt twice; forward it once.
	if w.seen(f.key()) {
		m.mt.dupSuppressed.Inc()
		m.st.dups.Add(1)
		return
	}

	if int(f.dst()) == n.id {
		m.deliverLocal(f)
		return
	}

	// Forward toward the destination along the embedded route. A route
	// without this node, a next hop no route uses, or a next-hop session
	// that is gone (this node is stopping) drops the frame; the source's
	// ack timeout re-dispatches the payload.
	sess := n.sessionTo(nextHop(f.Route, n.id))
	if sess == nil {
		m.mt.dropped.Inc()
		return
	}
	if _, err := sess.Enqueue(p); err != nil {
		m.mt.dropped.Inc()
		return
	}
	m.mt.hops.Inc()
	m.st.hops.Add(1)
}

// nextHop finds self in route and returns its successor, or -1.
func nextHop(route []byte, self int) int {
	for i := 0; i+1 < len(route); i++ {
		if int(route[i]) == self {
			return int(route[i+1])
		}
	}
	return -1
}
