// Package relay composes supervised ghm sessions into a multi-hop relay
// mesh: a graph of nodes and links where every hop a route uses is one
// self-healing session.Session, with source routing over k
// link-disjoint routes, per-hop duplicate suppression, end-to-end
// acknowledgement and health-driven failover. The paper solves one hop —
// transmitter to receiver over a lossy, duplicating, reordering,
// crash-prone link; this package is the "source to destination" layer
// its title promises, in the end-to-end spirit of Bunn–Ostrovsky's
// routing over unreliable networks.
//
// Guarantee layering: each hop gives the protocol's per-message
// exactly-once-between-crashes / at-least-once-across-crashes semantics
// (checkable per hop with the generalized per-attempt verify
// conditions); the mesh adds destination-side dedup keyed on the
// payload's end-to-end identity, so delivery to the destination's higher
// layer is exactly once even when failover deliberately re-disperses a
// payload over several routes.
package relay

import (
	"fmt"
)

// Link is one undirected edge of the mesh; each direction a route uses
// carries an independent supervised session.
type Link struct {
	A int `json:"a"`
	B int `json:"b"`
}

// Topology is the mesh graph: Nodes numbered [0, Nodes) and undirected
// links between them. It serializes to JSON for scenario repro files.
type Topology struct {
	Nodes int    `json:"nodes"`
	Links []Link `json:"links"`
}

// Validate checks node bounds, self-loops and duplicate links.
func (t Topology) Validate() error {
	if t.Nodes < 2 {
		return fmt.Errorf("relay: topology needs at least 2 nodes, have %d", t.Nodes)
	}
	if t.Nodes > 256 {
		return fmt.Errorf("relay: topology supports at most 256 nodes, have %d", t.Nodes)
	}
	seen := make(map[Link]bool, len(t.Links))
	for _, l := range t.Links {
		if l.A < 0 || l.A >= t.Nodes || l.B < 0 || l.B >= t.Nodes {
			return fmt.Errorf("relay: link %d-%d out of range [0, %d)", l.A, l.B, t.Nodes)
		}
		if l.A == l.B {
			return fmt.Errorf("relay: self-loop on node %d", l.A)
		}
		k := Link{A: min(l.A, l.B), B: max(l.A, l.B)}
		if seen[k] {
			return fmt.Errorf("relay: duplicate link %d-%d", k.A, k.B)
		}
		seen[k] = true
	}
	return nil
}

// linkIndex returns the topology index of the undirected link between a
// and b, or -1.
func (t Topology) linkIndex(a, b int) int {
	for i, l := range t.Links {
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			return i
		}
	}
	return -1
}

// DisjointRoutes returns up to k link-disjoint routes from src to dst as
// node paths (src first, dst last), shortest first: repeated BFS, each
// accepted route's links removed before the next search. Deterministic
// for a given topology (neighbors explored in link order). Returns nil
// when src and dst are disconnected.
func (t Topology) DisjointRoutes(src, dst, k int) [][]int {
	if k <= 0 {
		k = 1
	}
	used := make(map[Link]bool)
	norm := func(a, b int) Link { return Link{A: min(a, b), B: max(a, b)} }

	var routes [][]int
	for len(routes) < k {
		// BFS over links not yet claimed by an accepted route.
		prev := make([]int, t.Nodes)
		for i := range prev {
			prev[i] = -1
		}
		prev[src] = src
		queue := []int{src}
		for len(queue) > 0 && prev[dst] == -1 {
			n := queue[0]
			queue = queue[1:]
			for _, l := range t.Links {
				if used[norm(l.A, l.B)] {
					continue
				}
				var next int
				switch n {
				case l.A:
					next = l.B
				case l.B:
					next = l.A
				default:
					continue
				}
				if prev[next] == -1 {
					prev[next] = n
					queue = append(queue, next)
				}
			}
		}
		if prev[dst] == -1 {
			break // no further disjoint route exists
		}
		var rev []int
		for n := dst; n != src; n = prev[n] {
			rev = append(rev, n)
		}
		rev = append(rev, src)
		route := make([]int, len(rev))
		for i, n := range rev {
			route[len(rev)-1-i] = n
		}
		for i := 0; i+1 < len(route); i++ {
			used[norm(route[i], route[i+1])] = true
		}
		routes = append(routes, route)
	}
	return routes
}
