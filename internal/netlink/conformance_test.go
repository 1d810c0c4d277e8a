package netlink_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"ghm/internal/engine"
	"ghm/internal/fabric"
	"ghm/internal/netlink"
	"ghm/internal/trace"
)

// conns builds one connected pair of every PacketConn in the repo, for the
// tests that hold them all to the two halves of the buffer contract.
func conns() map[string]func(t *testing.T) (tx, rx netlink.PacketConn) {
	pipe := func() (netlink.PacketConn, netlink.PacketConn) {
		return netlink.Pipe(netlink.PipeConfig{Seed: 1})
	}
	return map[string]func(t *testing.T) (tx, rx netlink.PacketConn){
		"Pipe": func(*testing.T) (netlink.PacketConn, netlink.PacketConn) { return pipe() },
		"Pipe with an impairment stage": func(*testing.T) (netlink.PacketConn, netlink.PacketConn) {
			return netlink.Pipe(netlink.PipeConfig{Seed: 1, LinkModel: netlink.LinkModel{Latency: time.Millisecond}})
		},
		"ImpairedConn": func(*testing.T) (netlink.PacketConn, netlink.PacketConn) {
			a, b := pipe()
			return netlink.Impair(a, netlink.ImpairConfig{Seed: 1, LinkModel: netlink.LinkModel{Latency: time.Millisecond}}), b
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
		"framed engine endpoint": func(t *testing.T) (netlink.PacketConn, netlink.PacketConn) {
			// What ghm.Endpoint and relay attach their stations to.
			a, b := pipe()
			ea, eb := engine.New(a, engine.Config{MaxEndpoints: 2}), engine.New(b, engine.Config{MaxEndpoints: 2})
			t.Cleanup(func() {
				ea.Close()
				eb.Close()
			})
			ta, err := ea.Endpoint(1)
			if err != nil {
				t.Fatal(err)
			}
			tb, err := eb.Endpoint(1)
			if err != nil {
				t.Fatal(err)
			}
			return ta, tb
		},
		"fabric.Port": func(*testing.T) (netlink.PacketConn, netlink.PacketConn) {
			return fabric.New(fabric.Config{Seed: 1}).Link(fabric.LinkConfig{LinkModel: netlink.LinkModel{Latency: time.Millisecond}})
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
}

// TestConnsRecvErrClosedAfterClose holds every PacketConn in the repo to
// the closing half of its contract: Close unblocks a pending Recv with
// ErrClosed — the one error the engine's pump takes for a dead conn; any
// other it rides out as a transient fault — and a later Send reports the
// closure or loses the packet, nothing else.
func TestConnsRecvErrClosedAfterClose(t *testing.T) {
	for name, build := range conns() {
		t.Run(name, func(t *testing.T) {
			tx, rx := build(t)
			defer rx.Close()
			errc := make(chan error, 1)
			go func() {
				_, err := tx.Recv()
				errc <- err
			}()
			time.Sleep(5 * time.Millisecond) // let Recv block
			tx.Close()
			select {
			case err := <-errc:
				if !errors.Is(err, netlink.ErrClosed) {
					t.Errorf("Recv after Close = %v, want ErrClosed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Recv did not unblock after Close")
			}
			if err := tx.Send([]byte("late")); err != nil && !errors.Is(err, netlink.ErrClosed) {
				t.Errorf("Send after Close = %v, want nil or ErrClosed", err)
			}
		})
	}
}

// TestConnsDoNotRetainSentPacket holds every PacketConn in the repo to
// the contract the stations now lean on: Send must not retain p. The
// stations encode into a pooled buffer and reuse it the moment Send
// returns, so each conn here is sent a burst of packets whose bytes are
// scribbled over right after Send returns, and the far end must still
// read them as they were.
func TestConnsDoNotRetainSentPacket(t *testing.T) {
	const burst = 8
	packet := func(i int) []byte {
		return append([]byte{byte(i)}, "a protocol packet, as it was when Send returned"...)
	}
	for name, build := range conns() {
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
					got <- append([]byte(nil), p...) // p is lent until the next Recv
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

// patterned returns packet i of a test stream: n bytes that all follow
// from i, so a reader can tell an intact packet from one whose buffer was
// refilled under it.
func patterned(i, n int) []byte {
	p := make([]byte, n)
	for j := range p {
		p[j] = byte(i + j*7)
	}
	return p
}

func intact(p []byte) bool {
	return len(p) > 0 && bytes.Equal(p, patterned(int(p[0]), len(p)))
}

// TestConnsLendReceivedPacket holds every PacketConn to the receiving half
// of the contract: what Recv returned stays byte-identical right up to
// the next Recv on that conn, however much the far end sends meanwhile.
// A conn that recycled a buffer its reader still held would hand the
// sender's next packet the same memory: the bytes change under the
// reader, and under -race the two goroutines' accesses are a reported
// race.
func TestConnsLendReceivedPacket(t *testing.T) {
	const rounds = 64
	for name, build := range conns() {
		t.Run(name, func(t *testing.T) {
			tx, rx := build(t)
			defer tx.Close()
			defer rx.Close()
			// The far end keeps sending, in sizes that make a recycled buffer
			// fit some packets and not others, until the reader is done: a
			// lap of four packets before each Recv, and another while the
			// reader holds what Recv returned.
			lap := make(chan struct{})
			sent := make(chan struct{})
			go func() {
				defer close(sent)
				for i := 0; ; i++ {
					if i%4 == 0 {
						if _, ok := <-lap; !ok {
							return
						}
					}
					if err := tx.Send(patterned(i, 32+i%5*16)); err != nil {
						return
					}
				}
			}()
			defer func() { close(lap); <-sent }()
			for i := 0; i < rounds; i++ {
				lap <- struct{}{}
				p, err := recvWithin(rx, 5*time.Second)
				if err != nil {
					t.Fatalf("Recv %d: %v", i, err)
				}
				if !intact(p) {
					t.Fatalf("Recv %d returned a torn packet %x", i, p)
				}
				snapshot := append([]byte(nil), p...)
				lap <- struct{}{} // four more packets go out while p is held
				time.Sleep(200 * time.Microsecond)
				if !bytes.Equal(p, snapshot) {
					t.Fatalf("packet %d changed before the next Recv:\n was %x\n now %x", i, snapshot, p)
				}
			}
		})
	}
}

// recvWithin is Recv with a deadline, for conns that would otherwise park
// a failing test forever. One call is in flight at a time.
func recvWithin(c netlink.PacketConn, d time.Duration) ([]byte, error) {
	type result struct {
		p   []byte
		err error
	}
	ch := make(chan result, 1)
	go func() {
		p, err := c.Recv()
		ch <- result{p, err}
	}()
	select {
	case r := <-ch:
		return r.p, r.err
	case <-time.After(d):
		return nil, context.DeadlineExceeded
	}
}

// TestDuplicatesAreSeparateCopies sends a burst through the two stages
// that duplicate packets — a pipe that duplicates and reorders half of
// what it carries, an impairment stage that duplicates half and jitters
// all. The duplicate and the original are separate buffers with separate
// fates: one may be held back while the other is delivered, read and
// recycled. So every copy must arrive intact, and every packet at least
// once.
func TestDuplicatesAreSeparateCopies(t *testing.T) {
	links := map[string]func() (tx, rx netlink.PacketConn){
		"Pipe": func() (netlink.PacketConn, netlink.PacketConn) {
			return netlink.Pipe(netlink.PipeConfig{Seed: 5, LinkModel: netlink.LinkModel{DupProb: 0.5, ReorderProb: 0.5}})
		},
		"ImpairedConn": func() (netlink.PacketConn, netlink.PacketConn) {
			a, b := netlink.Pipe(netlink.PipeConfig{Seed: 5})
			return netlink.Impair(a, netlink.ImpairConfig{Seed: 5, LinkModel: netlink.LinkModel{DupProb: 0.5, Jitter: 400 * time.Microsecond}}), b
		},
	}
	const n = 200
	for name, link := range links {
		t.Run(name, func(t *testing.T) {
			a, b := link()
			defer a.Close()
			go func() {
				for i := 0; i < n; i++ {
					if a.Send(patterned(i, 24+i%7*8)) != nil {
						return
					}
					if i%16 == 15 {
						time.Sleep(300 * time.Microsecond) // let held packets out between bursts
					}
				}
			}()
			seen := make(map[byte]int)
			copies := 0
			for len(seen) < n {
				p, err := recvWithin(b, 5*time.Second)
				if err != nil {
					t.Fatalf("after %d copies of %d packets: %v", copies, len(seen), err)
				}
				if !intact(p) {
					t.Fatalf("copy %d arrived torn: %x", copies, p)
				}
				seen[p[0]]++
				copies++
			}
			if copies <= n {
				t.Errorf("%d copies of %d packets: nothing was duplicated", copies, n)
			}
		})
	}
}
