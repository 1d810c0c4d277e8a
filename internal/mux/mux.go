// Package mux builds lanes as one station: `lanes` lanes are a station of
// depth `lanes`, whose in-order release is the lanes' global send order
// (DESIGN §7). The station's crash model comes with it: a cancelled or
// failed Send wipes every Send in flight, and resubmitting the wiped
// payloads byte-identical heals the stream. The public API spells the
// same thing ghm.NewSender(conn, ghm.WithWindow(lanes)).
package mux

import (
	"errors"
	"fmt"

	"ghm/internal/core"
	"ghm/internal/netlink"
)

var errLanes = errors.New("mux: lane count must be in [1, core.MaxWindow]")

// NewSender starts the lanes' transmitting station over conn. A station
// that fails to build closes conn, which it would have owned.
func NewSender(conn netlink.PacketConn, lanes int, p core.Params) (*netlink.Sender, error) {
	if lanes < 1 || lanes > core.MaxWindow {
		return nil, errLanes
	}
	s, err := netlink.NewSender(conn, netlink.SenderConfig{Window: lanes, Params: p})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("mux: %w", err)
	}
	return s, nil
}

// NewReceiver starts the lanes' receiving station over conn, with cfg's
// Window replaced by the lane count, which must match the sender's. A
// station that fails to build closes conn.
func NewReceiver(conn netlink.PacketConn, lanes int, cfg netlink.ReceiverConfig) (*netlink.Receiver, error) {
	if lanes < 1 || lanes > core.MaxWindow {
		return nil, errLanes
	}
	cfg.Window = lanes
	r, err := netlink.NewReceiver(conn, cfg)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("mux: %w", err)
	}
	return r, nil
}
