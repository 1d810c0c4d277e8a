package netlink_test

import (
	"bytes"
	"net"
	"testing"
	"time"

	"ghm/internal/fabric"
	"ghm/internal/netlink"
	"ghm/internal/trace"
)

// TestConnsDoNotRetainSentPacket holds every PacketConn in the repo to
// the contract the stations now lean on: Send must not retain p. The
// stations encode into a pooled buffer and reuse it the moment Send
// returns, so each conn here is sent a burst of packets whose bytes are
// scribbled over right after Send returns, and the far end must still
// read them as they were.
func TestConnsDoNotRetainSentPacket(t *testing.T) {
	pipe := func() (netlink.PacketConn, netlink.PacketConn) {
		return netlink.Pipe(netlink.PipeConfig{Seed: 1})
	}
	conns := map[string]func(t *testing.T) (tx, rx netlink.PacketConn){
		"Pipe": func(*testing.T) (netlink.PacketConn, netlink.PacketConn) { return pipe() },
		"Pipe with an impairment stage": func(*testing.T) (netlink.PacketConn, netlink.PacketConn) {
			return netlink.Pipe(netlink.PipeConfig{Seed: 1, Latency: time.Millisecond})
		},
		"ImpairedConn": func(*testing.T) (netlink.PacketConn, netlink.PacketConn) {
			a, b := pipe()
			return netlink.Impair(a, netlink.ImpairConfig{Seed: 1, Latency: time.Millisecond}), b
		},
		"AttackerConn": func(t *testing.T) (netlink.PacketConn, netlink.PacketConn) {
			a, b := pipe()
			att := netlink.NewAttacker(netlink.AttackerConfig{})
			t.Cleanup(func() { att.Close() })
			return att.Wrap(a, trace.DirTR), b
		},
		"SealConn": func(t *testing.T) (netlink.PacketConn, netlink.PacketConn) {
			a, b := pipe()
			key := bytes.Repeat([]byte{7}, 16)
			sa, err := netlink.Seal(a, key)
			if err != nil {
				t.Fatal(err)
			}
			sb, err := netlink.Seal(b, key)
			if err != nil {
				t.Fatal(err)
			}
			return sa, sb
		},
		"SharedConn view": func(t *testing.T) (netlink.PacketConn, netlink.PacketConn) {
			a, b := pipe()
			shared := netlink.NewSharedConn(a)
			t.Cleanup(func() { shared.Close() })
			v, err := shared.Attach()
			if err != nil {
				t.Fatal(err)
			}
			return v, b
		},
		"Split sub-connection": func(t *testing.T) (netlink.PacketConn, netlink.PacketConn) {
			a, b := pipe()
			as, err := netlink.Split(a, 2)
			if err != nil {
				t.Fatal(err)
			}
			bs, err := netlink.Split(b, 2)
			if err != nil {
				t.Fatal(err)
			}
			return as[1], bs[1]
		},
		"fabric.Port": func(*testing.T) (netlink.PacketConn, netlink.PacketConn) {
			return fabric.New(fabric.Config{Seed: 1}).Link(fabric.LinkConfig{Latency: time.Millisecond})
		},
		"UDPConn": func(t *testing.T) (netlink.PacketConn, netlink.PacketConn) {
			la, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Skipf("no loopback UDP: %v", err)
			}
			lb, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				la.Close()
				t.Skipf("no loopback UDP: %v", err)
			}
			return netlink.NewUDPConn(la, lb.LocalAddr().(*net.UDPAddr)), netlink.NewUDPConn(lb, la.LocalAddr().(*net.UDPAddr))
		},
	}
	const burst = 8
	packet := func(i int) []byte {
		return append([]byte{byte(i)}, "a protocol packet, as it was when Send returned"...)
	}
	for name, build := range conns {
		t.Run(name, func(t *testing.T) {
			tx, rx := build(t)
			defer tx.Close()
			defer rx.Close()
			buf := make([]byte, 0, 128) // one buffer for the whole burst, as a pool would hand out
			for i := 0; i < burst; i++ {
				buf = append(buf[:0], packet(i)...)
				if err := tx.Send(buf); err != nil {
					t.Fatalf("Send %d: %v", i, err)
				}
				for j := range buf {
					buf[j] = 0xEE
				}
			}
			got := make(chan []byte, burst)
			go func() {
				for i := 0; i < burst; i++ {
					p, err := rx.Recv()
					if err != nil {
						return
					}
					got <- p
				}
			}()
			seen := make(map[byte]bool)
			for i := 0; i < burst; i++ {
				select {
				case p := <-got:
					if len(p) == 0 || !bytes.Equal(p, packet(int(p[0]))) || seen[p[0]] {
						t.Fatalf("packet %d arrived as %q: the conn kept a reference to the caller's buffer", i, p)
					}
					seen[p[0]] = true
				case <-time.After(5 * time.Second):
					t.Fatalf("only %d of %d packets arrived", i, burst)
				}
			}
		})
	}
}
