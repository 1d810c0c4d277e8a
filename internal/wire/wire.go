// Package wire defines the packet formats exchanged by the protocol
// stations and their binary encoding.
//
// Two packet kinds exist, mirroring the paper's Appendix A:
//
//   - DATA, sent transmitter -> receiver: (m, rho, tau), where m is the
//     message body, rho echoes the receiver's current challenge and tau is
//     the transmitter's tag for this transfer.
//   - CTL, sent receiver -> transmitter: (rho, tau, i), where rho is the
//     receiver's current challenge, tau is the tag of the last delivered
//     message and i is the retry counter used by the transmitter to
//     discard stale duplicates (Theorem 9's i^R).
//
// The encoding is deliberately simple and self-delimiting: a one-byte kind
// tag followed by length-prefixed fields. Decoding is defensive — any
// malformed input yields ErrMalformed rather than a panic, because packets
// arrive from an unreliable (and possibly adversarial) link.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ghm/internal/bitstr"
)

// Kind discriminates the two packet formats.
type Kind byte

const (
	// KindData tags a transmitter -> receiver data packet.
	KindData Kind = iota + 1
	// KindCtl tags a receiver -> transmitter control packet.
	KindCtl
)

// ErrMalformed reports that a byte slice is not a valid packet encoding.
var ErrMalformed = errors.New("wire: malformed packet")

// The decoders' errors are built once: packets arrive from a possibly
// hostile link, and a flood of garbage must not allocate per packet.
var (
	errKind     = fmt.Errorf("%w: unknown kind", ErrMalformed)
	errLength   = fmt.Errorf("%w: byte field length", ErrMalformed)
	errShort    = fmt.Errorf("%w: short byte field", ErrMalformed)
	errRho      = fmt.Errorf("%w: rho", ErrMalformed)
	errTau      = fmt.Errorf("%w: tau", ErrMalformed)
	errCounter  = fmt.Errorf("%w: retry counter", ErrMalformed)
	errTrailing = fmt.Errorf("%w: trailing bytes", ErrMalformed)
)

// maxMessageLen bounds decoded message bodies; it protects the decoder
// against absurd length prefixes in corrupted or hostile inputs.
const maxMessageLen = 1 << 26 // 64 MiB

// Data is the transmitter -> receiver packet (m, rho, tau).
type Data struct {
	Msg []byte     // application message body
	Rho bitstr.Str // echoed receiver challenge
	Tau bitstr.Str // transmitter tag
}

// Ctl is the receiver -> transmitter packet (rho, tau, i).
type Ctl struct {
	Rho bitstr.Str // receiver's current challenge
	Tau bitstr.Str // tag of the last delivered message
	I   uint64     // retry counter since the last delivery or crash
}

// Encode serializes d.
func (d Data) Encode() []byte {
	return AppendData(make([]byte, 0, d.Size()), d)
}

// AppendData appends d's encoding to dst and returns the extended slice.
// With sufficient capacity in dst it does not allocate — the hot-path
// form for pooled packet buffers (guarded by testing.AllocsPerRun).
func AppendData(dst []byte, d Data) []byte {
	dst = append(dst, byte(KindData))
	dst = appendBytes(dst, d.Msg)
	dst = d.Rho.AppendWire(dst)
	dst = d.Tau.AppendWire(dst)
	return dst
}

// Size returns the length of d's encoding.
func (d Data) Size() int {
	return 1 + uvarintLen(uint64(len(d.Msg))) + len(d.Msg) + d.Rho.WireSize() + d.Tau.WireSize()
}

// Encode serializes c.
func (c Ctl) Encode() []byte {
	return AppendCtl(make([]byte, 0, c.Size()), c)
}

// AppendCtl appends c's encoding to dst and returns the extended slice.
// With sufficient capacity in dst it does not allocate.
func AppendCtl(dst []byte, c Ctl) []byte {
	dst = append(dst, byte(KindCtl))
	dst = c.Rho.AppendWire(dst)
	dst = c.Tau.AppendWire(dst)
	dst = binary.AppendUvarint(dst, c.I)
	return dst
}

// Size returns the length of c's encoding.
func (c Ctl) Size() int {
	return 1 + c.Rho.WireSize() + c.Tau.WireSize() + uvarintLen(c.I)
}

// Sniff returns the kind of an encoded packet without decoding it fully.
func Sniff(p []byte) (Kind, error) {
	if len(p) == 0 {
		return 0, ErrMalformed
	}
	k := Kind(p[0])
	if k != KindData && k != KindCtl {
		return 0, errKind
	}
	return k, nil
}

// DecodeData parses a DATA packet. The returned Msg aliases p; callers that
// retain it across reuses of p must copy it.
func DecodeData(p []byte) (d Data, err error) {
	if k, err := Sniff(p); err != nil || k != KindData {
		return d, ErrMalformed
	}
	msg, rest, err := parseBytes(p[1:])
	if err != nil {
		return d, err
	}
	rho, rest, err := bitstr.ParseWire(rest)
	if err != nil {
		return d, errRho
	}
	tau, rest, err := bitstr.ParseWire(rest)
	if err != nil {
		return d, errTau
	}
	if len(rest) != 0 {
		return d, errTrailing
	}
	d.Msg, d.Rho, d.Tau = msg, rho, tau
	return d, nil
}

// DecodeCtl parses a CTL packet: a CTL with nothing after it.
func DecodeCtl(p []byte) (Ctl, error) {
	if c, rest, err := ParseCtl(p); err != nil || len(rest) == 0 {
		return c, err
	}
	return Ctl{}, errTrailing
}

// ParseCtl decodes the CTL at the front of p and returns the bytes after
// it: a CTL delimits itself, so whatever follows it needs no length.
func ParseCtl(p []byte) (c Ctl, rest []byte, err error) {
	if k, err := Sniff(p); err != nil || k != KindCtl {
		return c, nil, ErrMalformed
	}
	rho, rest, err := bitstr.ParseWire(p[1:])
	if err != nil {
		return c, nil, errRho
	}
	tau, rest, err := bitstr.ParseWire(rest)
	if err != nil {
		return c, nil, errTau
	}
	i, n := binary.Uvarint(rest)
	if n <= 0 || n != uvarintLen(i) {
		return c, nil, errCounter
	}
	c.Rho, c.Tau, c.I = rho, tau, i
	return c, rest[n:], nil
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	dst = append(dst, b...)
	return dst
}

func parseBytes(buf []byte) ([]byte, []byte, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 || k != uvarintLen(n) || n > maxMessageLen {
		// Reject unparsable, non-minimal and oversized length prefixes so
		// every packet value has exactly one encoding.
		return nil, nil, errLength
	}
	buf = buf[k:]
	if uint64(len(buf)) < n {
		return nil, nil, errShort
	}
	return buf[:n], buf[n:], nil
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
