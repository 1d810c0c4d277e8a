// Package netlink runs the protocol of ghm/internal/core over real,
// concurrent, unreliable packet transports.
//
// The package provides three things:
//
//   - PacketConn, the minimal unreliable datagram abstraction the protocol
//     needs (send may silently lose, duplicate or reorder; receive blocks).
//   - Pipe, an in-process PacketConn pair with configurable loss,
//     duplication and reordering — the runtime twin of the model
//     adversaries, useful for tests, examples and benchmarks.
//   - Sender and Receiver, the stations: each runs a window of the core
//     protocol machines (one slot deep by default — the paper's station)
//     as an endpoint of the conn's engine, and exposes blocking Send/Recv
//     with the protocol's exactly-once semantics.
//
// Every object with background goroutines has a Close method that stops
// and joins them.
package netlink

import (
	"errors"

	"ghm/internal/engine"
)

var (
	// ErrClosed reports use of a closed connection or session. It is the
	// engine's closed error: a conn, an endpoint and a station all report
	// closure with this one value.
	ErrClosed = engine.ErrClosed
	// ErrCrashed reports that a pending Send was wiped by a simulated
	// station crash.
	ErrCrashed = errors.New("netlink: station crashed")
)

// PacketConn is one endpoint of an unreliable datagram link. The link may
// lose, duplicate and reorder packets but never corrupts them (the model's
// causality assumption; over real networks a checksumming layer below
// provides it).
//
// Implementations must allow Send and Recv from different goroutines and
// must unblock Recv with ErrClosed after Close; any other Recv error is a
// transient fault, ridden out as loss. Who owns a packet's bytes
// at each step from Send to the application is stated once, in DESIGN.md
// §4 ("who owns a packet"); the two method comments are its conn-side
// half.
type PacketConn interface {
	// Send places one packet on the link. It must not retain p.
	Send(p []byte) error
	// Recv blocks for the next packet. The slice it returns belongs to the
	// conn and is valid until the next Recv on that conn: the caller copies
	// what it keeps. Recv has one caller at a time. (A conn that never
	// reuses what it returned satisfies this as it is.)
	Recv() ([]byte, error)
	// Close releases the endpoint and unblocks pending Recv calls.
	Close() error
}
