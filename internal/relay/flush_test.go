package relay

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ghm/internal/metrics"
	"ghm/internal/netlink"
)

// TestMeshFlushWakesOnItsCancel: a cancel that lands between Flush's ctx
// check and its Wait must still wake it. The mesh's one link loses every
// packet, so its payload is never acked and nothing else ever broadcasts:
// a lost wakeup leaves Flush asleep for good. Flush/cancel pairs run for a
// second; a pair that makes no progress for half a second has slept
// through its cancel.
func TestMeshFlushWakesOnItsCancel(t *testing.T) {
	a, b := netlink.Pipe(netlink.PipeConfig{LinkModel: netlink.LinkModel{Loss: 1}, Seed: 7})
	m := newTestMesh(t, Config{
		Topology: Topology{Nodes: 2, Links: []Link{{A: 0, B: 1}}},
		Links:    []LinkConns{{A: a, B: b}},
		Source:   0, Dest: 1, Routes: 1,
		Seed: 7, Metrics: metrics.New(),
	})
	if _, err := m.Submit([]byte("never acked")); err != nil {
		t.Fatal(err)
	}
	var pairs atomic.Int64
	res := make(chan error, 1)
	go func() {
		for end := time.Now().Add(time.Second); time.Now().Before(end); {
			ctx, cancel := context.WithCancel(context.Background())
			go cancel()
			if err := m.Flush(ctx); !errors.Is(err, context.Canceled) {
				res <- fmt.Errorf("pair %d: Flush = %v, want %v", pairs.Load(), err, context.Canceled)
				return
			}
			pairs.Add(1)
		}
		res <- nil
	}()
	for seen := int64(-1); ; {
		select {
		case err := <-res:
			if err != nil {
				t.Fatal(err)
			}
			return
		case <-time.After(500 * time.Millisecond):
		}
		if n := pairs.Load(); n != seen {
			seen = n
			continue
		}
		m.Close() // wakes the sleeper, so it does not outlive the test
		<-res
		t.Fatalf("Flush slept through its own cancellation after %d pairs", seen)
	}
}
