package netlink_test

// Close/error propagation parity: however a transport dies — its conn
// killed externally, one endpoint closed, or the engine pump dying under
// it — every station, lane, view and session registered on it must
// surface ErrClosed promptly rather than wedge. These are table tests on
// purpose: each layer used to have its own private pump with its own
// (subtly different) death behavior; the engine gives them one.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"ghm/internal/core"
	"ghm/internal/engine"
	"ghm/internal/fabric"
	"ghm/internal/metrics"
	"ghm/internal/mux"
	"ghm/internal/netlink"
	"ghm/internal/session"
)

// wantErr waits for fn (running in a fresh goroutine) to return and
// checks the error matches want.
func wantErr(t *testing.T, name string, want error, fn func() error) {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- fn() }()
	select {
	case err := <-errc:
		if !errors.Is(err, want) {
			t.Errorf("%s returned %v, want %v", name, err, want)
		}
	case <-time.After(5 * time.Second):
		t.Errorf("%s did not unblock", name)
	}
}

// forDepths runs a row once per window depth: the station rows must hold
// for the paper's single slot and for real windows alike.
func forDepths(t *testing.T, fn func(t *testing.T, k int)) {
	t.Helper()
	for _, k := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { fn(t, k) })
	}
}

func TestClosePropagationParity(t *testing.T) {
	t.Run("engine/conn-kill", func(t *testing.T) {
		_, b := netlink.Pipe(netlink.PipeConfig{Seed: 81})
		eng := engine.New(b, engine.Config{MaxEndpoints: 2})
		defer eng.Close()
		errc := make(chan error, 2)
		for id := 0; id < 2; id++ {
			ep, err := eng.Endpoint(id)
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				_, err := ep.Recv()
				errc <- err
			}()
		}
		time.Sleep(5 * time.Millisecond)
		b.Close() // external kill of the conn under the engine
		for i := 0; i < 2; i++ {
			select {
			case err := <-errc:
				if !errors.Is(err, netlink.ErrClosed) {
					t.Errorf("endpoint Recv after conn kill: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("endpoint Recv did not unblock after conn kill")
			}
		}
	})

	t.Run("shared/conn-kill", func(t *testing.T) {
		a, b := netlink.Pipe(netlink.PipeConfig{Seed: 83})
		defer b.Close()
		s := netlink.NewSharedConn(a)
		defer s.Close()
		v, err := s.Attach()
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			time.Sleep(5 * time.Millisecond)
			a.Close() // kill the conn, not the SharedConn
		}()
		wantErr(t, "view Recv", netlink.ErrClosed, func() error {
			_, err := v.Recv()
			return err
		})
	})

	t.Run("shared/view-close", func(t *testing.T) {
		a, b := netlink.Pipe(netlink.PipeConfig{Seed: 84})
		defer b.Close()
		s := netlink.NewSharedConn(a)
		defer s.Close()
		v, err := s.Attach()
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			time.Sleep(5 * time.Millisecond)
			v.Close()
		}()
		wantErr(t, "view Recv", netlink.ErrClosed, func() error {
			_, err := v.Recv()
			return err
		})
		// Detaching one view must not take the link down.
		if _, err := s.Attach(); err != nil {
			t.Fatalf("Attach after view close: %v", err)
		}
	})

	t.Run("station/conn-kill", func(t *testing.T) {
		forDepths(t, func(t *testing.T, k int) {
			// Both stations on one link; killing the conns unblocks a
			// pending Send and a pending Recv with ErrClosed. (The pre-engine
			// stations wedged forever on exactly this.)
			a, b := netlink.Pipe(netlink.PipeConfig{LinkModel: netlink.LinkModel{Loss: 1}, Seed: 85})
			tx, err := netlink.NewSender(a, netlink.SenderConfig{Window: k})
			if err != nil {
				t.Fatal(err)
			}
			defer tx.Close()
			rx, err := netlink.NewReceiver(b, netlink.ReceiverConfig{Window: k})
			if err != nil {
				t.Fatal(err)
			}
			defer rx.Close()
			go func() {
				time.Sleep(5 * time.Millisecond)
				a.Close()
				b.Close()
			}()
			wantErr(t, "Sender.Send", netlink.ErrClosed, func() error {
				return tx.Send(context.Background(), []byte("never"))
			})
			wantErr(t, "Receiver.Recv", netlink.ErrClosed, func() error {
				_, err := rx.Recv(context.Background())
				return err
			})
		})
	})

	t.Run("station/fabric-kill", func(t *testing.T) {
		forDepths(t, func(t *testing.T, k int) {
			// A fabric port reports its closure with the one closed error,
			// so the pump under the station stops at once instead of riding
			// the closed link out as a transient fault, a retry a millisecond.
			reg := metrics.New()
			a, b := fabric.New(fabric.Config{Seed: 91}).Link(fabric.LinkConfig{})
			rx, err := netlink.NewReceiver(b, netlink.ReceiverConfig{Window: k, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			defer rx.Close()
			go func() {
				time.Sleep(5 * time.Millisecond)
				a.Close() // closes the link: both ports
			}()
			wantErr(t, "Receiver.Recv", netlink.ErrClosed, func() error {
				_, err := rx.Recv(context.Background())
				return err
			})
			if n := reg.Counter("link.io_retries").Value(); n != 0 {
				t.Errorf("link.io_retries = %d after the link closed, want 0", n)
			}
		})
	})

	// The mux rows build stations of depth min(4k, 64) (4, 8, 32) through
	// the lane constructors, which hand back the station itself: a closed
	// or killed lane pair reports the station's ErrClosed.
	t.Run("mux/conn-kill", func(t *testing.T) {
		forDepths(t, func(t *testing.T, k int) {
			a, b := netlink.Pipe(netlink.PipeConfig{Seed: 88})
			ms, err := mux.NewSender(a, min(4*k, core.MaxWindow), core.Params{})
			if err != nil {
				t.Fatal(err)
			}
			defer ms.Close()
			mr, err := mux.NewReceiver(b, min(4*k, core.MaxWindow), netlink.ReceiverConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer mr.Close()
			go func() {
				time.Sleep(5 * time.Millisecond)
				a.Close()
				b.Close()
			}()
			wantErr(t, "mux Recv", netlink.ErrClosed, func() error {
				_, err := mr.Recv(context.Background())
				return err
			})
			wantErr(t, "mux Send", netlink.ErrClosed, func() error {
				return ms.Send(context.Background(), []byte("never"))
			})
		})
	})

	t.Run("mux/close", func(t *testing.T) {
		forDepths(t, func(t *testing.T, k int) {
			a, b := netlink.Pipe(netlink.PipeConfig{Seed: 89})
			defer a.Close()
			mr, err := mux.NewReceiver(b, min(4*k, core.MaxWindow), netlink.ReceiverConfig{})
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				time.Sleep(5 * time.Millisecond)
				mr.Close()
			}()
			wantErr(t, "mux Recv", netlink.ErrClosed, func() error {
				_, err := mr.Recv(context.Background())
				return err
			})
		})
	})

	t.Run("session/close", func(t *testing.T) {
		forDepths(t, func(t *testing.T, k int) {
			// A session over a shared link: Close must stop the supervisor
			// and fail further Enqueues, and the link views must come down
			// with the SharedConn, not before.
			a, b := netlink.Pipe(netlink.PipeConfig{Seed: 90})
			defer b.Close()
			sc := netlink.NewSharedConn(a)
			defer sc.Close()
			rx, err := netlink.NewReceiver(b, netlink.ReceiverConfig{Window: k})
			if err != nil {
				t.Fatal(err)
			}
			defer rx.Close()
			go func() {
				for {
					if _, err := rx.Recv(context.Background()); err != nil {
						return
					}
				}
			}()
			s, err := session.New(session.Config{
				Dial:   func() (netlink.PacketConn, error) { return sc.Attach() },
				Window: k,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Enqueue([]byte("one")); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Enqueue([]byte("late")); err == nil {
				t.Error("Enqueue after session Close succeeded")
			}
		})
	})
}
