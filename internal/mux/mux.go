// Package mux maps the lanes of ghm.MuxSender and ghm.MuxReceiver onto
// one station: `lanes` lanes of window depth `window` are a station of
// depth min(lanes × window, core.MaxWindow), whose in-order release is
// the lanes' global send order (DESIGN §7). The station's crash model
// comes with it: a cancelled or failed Send wipes every Send in flight,
// and resubmitting the wiped payloads byte-identical heals the stream.
package mux

import (
	"errors"
	"fmt"

	"ghm/internal/core"
	"ghm/internal/netlink"
)

// MaxLanes bounds the lane count: past the deepest station a lane adds
// no depth.
const MaxLanes = core.MaxWindow

var (
	errLanes  = errors.New("mux: lane count must be in [1, MaxLanes]")
	errWindow = errors.New("mux: window depth must be in [1, core.MaxWindow]")
)

// depth validates lanes and window and returns the station depth.
func depth(lanes, window int) (int, error) {
	if lanes < 1 || lanes > MaxLanes {
		return 0, errLanes
	}
	if window < 1 || window > core.MaxWindow {
		return 0, errWindow
	}
	return min(lanes*window, core.MaxWindow), nil
}

// NewSender is NewSenderWindow with window 1.
func NewSender(conn netlink.PacketConn, lanes int, p core.Params) (*netlink.Sender, error) {
	return NewSenderWindow(conn, lanes, 1, p)
}

// NewSenderWindow starts the lanes' transmitting station over conn. A
// station that fails to build closes conn, which it would have owned.
func NewSenderWindow(conn netlink.PacketConn, lanes, window int, p core.Params) (*netlink.Sender, error) {
	k, err := depth(lanes, window)
	if err != nil {
		return nil, err
	}
	s, err := netlink.NewSender(conn, netlink.SenderConfig{Window: k, Params: p})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("mux: %w", err)
	}
	return s, nil
}

// NewReceiver is NewReceiverWindow with window 1.
func NewReceiver(conn netlink.PacketConn, lanes int, cfg netlink.ReceiverConfig) (*netlink.Receiver, error) {
	return NewReceiverWindow(conn, lanes, 1, cfg)
}

// NewReceiverWindow starts the lanes' receiving station over conn, with
// cfg's Window replaced by the depth; lanes and window must match the
// sender's. A station that fails to build closes conn.
func NewReceiverWindow(conn netlink.PacketConn, lanes, window int, cfg netlink.ReceiverConfig) (*netlink.Receiver, error) {
	k, err := depth(lanes, window)
	if err != nil {
		return nil, err
	}
	cfg.Window = k
	r, err := netlink.NewReceiver(conn, cfg)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("mux: %w", err)
	}
	return r, nil
}
