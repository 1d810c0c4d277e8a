// Package bitstr implements the variable-length bit strings used as the
// random challenges (rho) and tags (tau) of the Goldreich-Herzberg-Mansour
// protocol.
//
// The protocol compares strings with three predicates — equality, prefix and
// extension — and grows them by concatenating fresh random bits. Strings are
// conceptually unbounded but in practice stay short: they are reset after
// every successful transfer and after every crash, so their length depends
// only on the number of errors observed while transferring the current
// message.
//
// A Str is an immutable value; all operations return new values. Bits are
// packed MSB-first and unused trailing bits of the last byte are always
// zero, which lets Equal and Prefix compare whole bytes.
//
// # Representation
//
// A string of up to 128 bits (inlineBits) lives inside the Str value
// itself, so drawing, concatenating, slicing and parsing it never touches
// the heap. That covers every string the fault-free path sees: strings
// start at size(1, epsilon) bits (25 at the default epsilon, 45 at 2^-40)
// and one extension adds size(2, epsilon) more (91 at 2^-40). Only a
// string pushed past 128 bits — several extensions under a sustained
// replay attack — spills, and then all of its bits live in one heap slice
// whose size is bounded by the errors observed for the current message,
// exactly as the paper's storage claim has it. A value is in exactly one
// of the two forms, decided by its length alone.
package bitstr

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	mathrand "math/rand"
	"strings"

	"ghm/internal/clock"
)

// Str is an immutable string of bits.
//
// The zero value is the empty string and is ready to use.
type Str struct {
	n      int                  // number of valid bits
	inline [inlineBits / 8]byte // the bits when n <= inlineBits, else zero
	spill  []byte               // the bits when n > inlineBits, else nil
}

// inlineBits is the longest string stored without a heap allocation.
const inlineBits = 128

// bytes returns s's packed bits: MSB-first, trailing slack bits zero. The
// slice aliases s and must not outlive it; only alloc's caller may write
// through it.
func (s *Str) bytes() []byte {
	if s.n > inlineBits {
		return s.spill
	}
	return s.inline[:byteLen(s.n)]
}

// alloc makes s, which must be empty, a string of n zero bits (none for
// n <= 0) and returns its bytes for the caller to fill in, keeping the
// slack bits zero.
func (s *Str) alloc(n int) []byte {
	if n <= 0 {
		return nil
	}
	s.n = n
	if n > inlineBits {
		// The spill: only a string extended past inlineBits under attack
		// leaves the value.
		s.spill = make([]byte, byteLen(n))
	}
	return s.bytes()
}

// ErrMalformed reports that a byte slice does not contain a validly encoded
// bit string.
var ErrMalformed = errors.New("bitstr: malformed encoding")

// Empty returns the empty bit string.
func Empty() (s Str) { return s }

// Zero returns a string of n zero bits.
func Zero(n int) Str {
	var out Str
	out.alloc(n)
	return out
}

// One returns the single-bit string "1".
func One() Str {
	var out Str
	out.alloc(1)[0] = 0x80
	return out
}

// FromBinary parses a string of '0' and '1' characters ("10110").
// It is intended for tests and examples.
func FromBinary(s string) (Str, error) {
	var out Str
	bits := out.alloc(len(s))
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			bits[i/8] |= 1 << (7 - uint(i)%8)
		default:
			return Str{}, fmt.Errorf("bitstr: invalid character %q in binary literal", c)
		}
	}
	return out, nil
}

// MustBinary is FromBinary that panics on error, for constant test fixtures.
func MustBinary(s string) Str {
	v, err := FromBinary(s)
	if err != nil {
		panic(err)
	}
	return v
}

// fromRaw builds a Str from packed bytes, copying and masking slack bits.
func fromRaw(raw []byte, n int) Str {
	var out Str
	bits := out.alloc(n)
	copy(bits, raw)
	maskSlack(bits, n)
	return out
}

// Len returns the number of bits in s.
func (s Str) Len() int { return s.n }

// IsEmpty reports whether s has no bits.
func (s Str) IsEmpty() bool { return s.n == 0 }

// Bit returns bit i (0-indexed from the most significant end).
func (s Str) Bit(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.bytes()[i/8]&(1<<(7-uint(i)%8)) != 0
}

// Equal reports whether s and r contain exactly the same bits.
func (s Str) Equal(r Str) bool {
	return s.n == r.n && bytes.Equal(s.bytes(), r.bytes())
}

// HasPrefix reports whether p is a prefix of s. Every string has the empty
// string as a prefix, and every string is a prefix of itself; this mirrors
// the paper's prefix(s, r) predicate with the argument order swapped to
// read naturally at call sites.
func (s Str) HasPrefix(p Str) bool {
	if p.n > s.n {
		return false
	}
	sb, pb := s.bytes(), p.bytes()
	full := p.n / 8
	if !bytes.Equal(sb[:full], pb[:full]) {
		return false
	}
	rem := p.n % 8
	if rem == 0 {
		return true
	}
	mask := byte(0xff) << (8 - uint(rem))
	return sb[full]&mask == pb[full]
}

// IsPrefixOf reports whether s is a prefix of r: the paper's prefix(s, r).
func (s Str) IsPrefixOf(r Str) bool { return r.HasPrefix(s) }

// Related reports whether one of s, r is a prefix of the other (including
// equality). The receiver delivers a message exactly when the incoming tag
// is NOT related to the stored tag.
func (s Str) Related(r Str) bool { return s.IsPrefixOf(r) || r.IsPrefixOf(s) }

// Concat returns the concatenation s followed by r.
func (s Str) Concat(r Str) Str {
	if r.n == 0 {
		return s
	}
	if s.n == 0 {
		return r
	}
	var out Str
	bits := out.alloc(s.n + r.n)
	copy(bits, s.bytes())
	off := s.n % 8
	if off == 0 {
		copy(bits[s.n/8:], r.bytes())
		return out
	}
	// Shift r's bits right by off and OR them in across byte boundaries.
	idx := s.n / 8
	for i, b := range r.bytes() {
		bits[idx+i] |= b >> uint(off)
		if idx+i+1 < len(bits) {
			bits[idx+i+1] |= b << (8 - uint(off))
		}
	}
	maskSlack(bits, out.n)
	return out
}

// Suffix returns the last n bits of s. If n >= s.Len() it returns s.
func (s Str) Suffix(n int) Str {
	if n >= s.n {
		return s
	}
	var out Str
	bits := out.alloc(n)
	start := s.n - n
	for i := 0; i < n; i++ {
		if s.Bit(start + i) {
			bits[i/8] |= 1 << (7 - uint(i)%8)
		}
	}
	return out
}

// Prefix returns the first n bits of s. If n >= s.Len() it returns s.
func (s Str) Prefix(n int) Str {
	if n >= s.n {
		return s
	}
	return fromRaw(s.bytes(), n)
}

// String renders s as a binary literal, truncated for readability.
func (s Str) String() string {
	const maxShown = 64
	var b strings.Builder
	shown := s.n
	if shown > maxShown {
		shown = maxShown
	}
	b.Grow(shown + 16)
	for i := 0; i < shown; i++ {
		if s.Bit(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	if s.n > maxShown {
		fmt.Fprintf(&b, "...(%d bits)", s.n)
	}
	return b.String()
}

// AppendWire appends a self-delimiting encoding of s to dst and returns the
// extended slice. The encoding is a uvarint bit count followed by the packed
// bytes.
func (s Str) AppendWire(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(s.n))
	dst = append(dst, s.bytes()...)
	return dst
}

// WireSize returns the number of bytes AppendWire will add.
func (s Str) WireSize() int {
	return uvarintLen(uint64(s.n)) + byteLen(s.n)
}

// ParseWire decodes a bit string produced by AppendWire from the front of
// buf, returning the string and the remaining bytes.
func ParseWire(buf []byte) (s Str, rest []byte, err error) {
	n, k := parseUvarint(buf)
	if k <= 0 {
		return s, nil, ErrMalformed
	}
	buf = buf[k:]
	const maxBits = 1 << 24 // defensive cap: 2 MiB of bits is far beyond protocol use
	if n > maxBits {
		return s, nil, ErrMalformed
	}
	nb := byteLen(int(n))
	if len(buf) < nb {
		return s, nil, ErrMalformed
	}
	// Reject encodings with nonzero slack bits so each value has exactly one
	// encoding (defensive: a forged packet cannot alias two strings).
	if rem := n % 8; rem != 0 && buf[nb-1]<<rem != 0 {
		return s, nil, ErrMalformed
	}
	return fromRaw(buf[:nb], int(n)), buf[nb:], nil
}

func byteLen(bits int) int { return (bits + 7) / 8 }

func maskSlack(bits []byte, n int) {
	if rem := n % 8; rem != 0 && len(bits) > 0 {
		bits[len(bits)-1] &= 0xff << (8 - uint(rem))
	}
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	dst = append(dst, byte(v))
	return dst
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func parseUvarint(buf []byte) (uint64, int) {
	var v uint64
	var shift uint
	for i, b := range buf {
		if i > 9 {
			return 0, -1
		}
		if b < 0x80 {
			if b == 0 && i > 0 {
				// Non-minimal encoding (trailing zero chunk): reject so
				// every value has exactly one wire form.
				return 0, -1
			}
			return v | uint64(b)<<shift, i + 1
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, -1
}

// Source draws fresh uniformly random bit strings. The protocol's security
// analysis assumes the adversary is oblivious to these bits; in simulations
// a seeded math/rand source keeps runs reproducible, while production links
// should use the crypto source.
type Source interface {
	// Draw returns n uniformly random bits.
	Draw(n int) Str
}

type mathSource struct{ r *mathrand.Rand }

// NewMathSource returns a deterministic Source backed by r. It is intended
// for simulations and tests.
func NewMathSource(r *mathrand.Rand) Source { return &mathSource{r: r} }

func (s *mathSource) Draw(n int) Str {
	var out Str
	raw := out.alloc(n)
	for i := range raw {
		raw[i] = byte(s.r.Intn(256))
	}
	maskSlack(raw, n)
	return out
}

// seededSource draws from a clock.SplitMix stream: deterministic like the
// math source but a single word of state where math/rand.Rand carries
// ~5KB.
type seededSource struct{ rng clock.SplitMix }

// NewSeededSource returns a deterministic Source seeded with seed.
func NewSeededSource(seed int64) Source { return &seededSource{rng: clock.SplitMix(seed)} }

func (s *seededSource) Draw(n int) Str {
	var out Str
	raw := out.alloc(n)
	for i := 0; i < len(raw); i += 8 {
		z := s.rng.Next()
		for j := 0; j < 8 && i+j < len(raw); j++ {
			raw[i+j] = byte(z >> (8 * j))
		}
	}
	maskSlack(raw, n)
	return out
}

type cryptoSource struct{}

// NewCryptoSource returns a Source backed by crypto/rand, suitable for
// production links where the adversary may be genuinely malicious.
func NewCryptoSource() Source { return cryptoSource{} }

func (cryptoSource) Draw(n int) Str {
	var out Str
	raw := out.alloc(n)
	if _, err := rand.Read(raw); err != nil {
		// crypto/rand.Read never fails on supported platforms; if the
		// kernel's entropy device is truly broken there is nothing safe
		// the protocol can do.
		panic(fmt.Sprintf("bitstr: crypto source failed: %v", err))
	}
	maskSlack(raw, n)
	return out
}
