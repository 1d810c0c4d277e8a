package adversary_test

// Black-box checks of the NetLike adversary as an Adversary. NetLike lives
// in internal/sim, where it drives netlink.Link; one step there is one
// second of link time, so Bandwidth is bytes per step.

import (
	"testing"
	"time"

	"ghm/internal/netlink"
	"ghm/internal/sim"
	"ghm/internal/trace"
)

const step = time.Second

func TestNetLikeBandwidthCap(t *testing.T) {
	// 30 bytes per step, 10-byte packets: three a step.
	n := sim.NewNetLike(netlink.LinkModel{Bandwidth: 30}, 3)
	for i := int64(0); i < 8; i++ {
		n.OnNewPacket(trace.DirTR, i, 10)
	}
	for s, want := range []int{0, 3, 3, 2} {
		if got := len(n.Next(s)); got != want {
			t.Fatalf("step %d delivered %d, want %d", s, got, want)
		}
	}
}

func TestNetLikeBandwidthPerDirection(t *testing.T) {
	// 20 bytes per step, 10-byte packets: two a step on each channel.
	n := sim.NewNetLike(netlink.LinkModel{Bandwidth: 20}, 4)
	for i := int64(0); i < 3; i++ {
		n.OnNewPacket(trace.DirTR, i, 10)
		n.OnNewPacket(trace.DirRT, i, 10)
	}
	n.Next(0)
	counts := map[trace.Dir]int{}
	for _, a := range n.Next(1) {
		counts[a.Dir]++
	}
	if counts[trace.DirTR] != 2 || counts[trace.DirRT] != 2 {
		t.Fatalf("per-direction delivery = %v", counts)
	}
}

func TestNetLikeTotalLoss(t *testing.T) {
	n := sim.NewNetLike(netlink.LinkModel{Loss: 1}, 5)
	n.OnNewPacket(trace.DirTR, 1, 10)
	for s := 0; s < 50; s++ {
		if len(n.Next(s)) != 0 {
			t.Fatal("lost packet delivered")
		}
	}
}

func TestNetLikeDuplication(t *testing.T) {
	n := sim.NewNetLike(netlink.LinkModel{Latency: step, Jitter: 4 * step, DupProb: 1}, 6)
	n.OnNewPacket(trace.DirTR, 9, 10)
	total := 0
	for s := 0; s < 10; s++ {
		for _, a := range n.Next(s) {
			if a.ID != 9 {
				t.Fatalf("delivered unknown packet %+v", a)
			}
			total++
		}
	}
	if total != 2 {
		t.Fatalf("duplicated packet delivered %d times, want 2", total)
	}
}
