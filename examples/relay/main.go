// Relay walkthrough: exactly-once source-to-destination delivery across
// a five-node relay mesh whose links lose packets and whose relay nodes
// crash — using only the public ghm API.
//
// The topology is the canonical minority-fault mesh: source 0 and
// destination 4 joined through three intermediaries, giving three
// link-disjoint routes. While payloads flow, the example blacks out one
// link entirely and crashes a relay node outright; the mesh fails traffic
// over, the restarted node replays its forwarding WAL, and every payload
// still arrives exactly once.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"
)

import "ghm"

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The relay graph. Each undirected link is realized by a pair of
	// PacketConn halves; here every link is an in-process pipe with 20%
	// loss, wrapped in an Impair stage so we can black it out at runtime.
	topo := ghm.Topology{
		Nodes: 5,
		Links: []ghm.Link{
			{A: 0, B: 1}, {A: 1, B: 4}, // route 0: 0-1-4
			{A: 0, B: 2}, {A: 2, B: 4}, // route 1: 0-2-4
			{A: 0, B: 3}, {A: 3, B: 4}, // route 2: 0-3-4
		},
	}
	var (
		links    []ghm.LinkConns
		impaired [][2]*ghm.ImpairedConn
	)
	for i := range topo.Links {
		a, b := ghm.Pipe(ghm.PipeFaults{ReorderProb: 0.1, Seed: int64(3*i + 1)})
		ia := ghm.Impair(a, ghm.PipeFaults{Loss: 0.2, Seed: int64(3*i + 2)})
		ib := ghm.Impair(b, ghm.PipeFaults{Loss: 0.2, Seed: int64(3*i + 3)})
		links = append(links, ghm.LinkConns{A: ia, B: ib})
		impaired = append(impaired, [2]*ghm.ImpairedConn{ia, ib})
	}

	walDir, err := os.MkdirTemp("", "ghm-relay-example-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)

	mesh, err := ghm.NewMesh(ghm.MeshConfig{
		Topology: topo,
		Links:    links,
		Source:   0,
		Dest:     4,
		Routes:   3,
		Options:  []ghm.Option{ghm.WithSeed(42), ghm.WithRetryInterval(time.Millisecond)},
		// The failover machinery, tuned for an in-process demo: a hop
		// with no progress for 80ms is considered wedged, and a payload
		// unacknowledged for 400ms is re-dispatched (the destination
		// deduplicates, so the backstop is always safe).
		WatchdogWindow: 80 * time.Millisecond,
		AckTimeout:     400 * time.Millisecond,
		WALDir:         walDir,
	})
	if err != nil {
		return err
	}
	defer mesh.Close()
	fmt.Printf("routes: %v\n", mesh.Routes())

	// The destination's higher layer: every payload arrives here exactly
	// once, whatever happens to links and relay nodes along the way.
	delivered := make(chan map[string]int, 1)
	go func() {
		counts := map[string]int{}
		for p := range mesh.Delivered() {
			counts[string(p)]++
		}
		delivered <- counts
	}()

	const n = 60
	for i := 0; i < n; i++ {
		if _, err := mesh.Submit([]byte(fmt.Sprintf("payload-%02d", i))); err != nil {
			return err
		}

		switch i {
		case 15:
			// Fault one: link (0,1) goes completely dark in both
			// directions. Traffic on route 0-1-4 fails over.
			fmt.Println("fault: blacking out link 0-1")
			impaired[0][0].SetBlackout(true)
			impaired[0][1].SetBlackout(true)
		case 30:
			// Fault two: relay node 2 crashes outright — sessions,
			// receivers and forwarding state gone; only its WALs survive.
			fmt.Println("fault: crashing relay node 2")
			if err := mesh.StopNode(2); err != nil {
				return err
			}
		case 45:
			// Recovery: the link heals and the node restarts, replaying
			// whatever its previous incarnation had accepted but not yet
			// forwarded.
			fmt.Println("recovery: link 0-1 restored, node 2 restarted")
			impaired[0][0].SetBlackout(false)
			impaired[0][1].SetBlackout(false)
			if err := mesh.RestartNode(2); err != nil {
				return err
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Flush waits for the end-to-end acknowledgment of every payload,
	// riding through the faults above.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := mesh.Flush(ctx); err != nil {
		return fmt.Errorf("flush: %w (stats %+v)", err, mesh.Stats())
	}

	st := mesh.Stats()
	fmt.Printf("stats: %d submitted, %d acked, %d hops, %d reroutes, %d duplicates suppressed, %d node restarts\n",
		st.Submitted, st.Acked, st.Hops, st.Reroutes, st.DupSuppressed, st.NodeRestarts)

	mesh.Close()
	counts := <-delivered
	exactlyOnce := true
	for i := 0; i < n; i++ {
		if counts[fmt.Sprintf("payload-%02d", i)] != 1 {
			exactlyOnce = false
		}
	}
	fmt.Printf("delivered: %d/%d payloads, exactly once: %v\n", len(counts), n, exactlyOnce)

	// Every hop's live conformance report must be clean: the per-link
	// protocol guarantees compose into the end-to-end one.
	violations := 0
	for _, rep := range mesh.HopReports() {
		violations += rep.Violations()
	}
	fmt.Printf("per-hop conformance violations: %d\n", violations)
	if !exactlyOnce || violations > 0 {
		return fmt.Errorf("guarantee violated")
	}
	return nil
}
