package bitstr

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"ghm/internal/testutil"
)

// The reference model of a bit string is a Go string of '0' and '1'
// characters: every operation is a one-line string operation there, so it
// shares no code with the inline/spill representation it checks.

// refBits reads s out bit by bit.
func refBits(s Str) string {
	var b strings.Builder
	for i := 0; i < s.Len(); i++ {
		if s.Bit(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// refWire is the wire form of ref: a uvarint bit count, then the bits
// packed MSB-first with zero slack.
func refWire(ref string) []byte {
	out := appendUvarint(nil, uint64(len(ref)))
	packed := make([]byte, (len(ref)+7)/8)
	for i, c := range ref {
		if c == '1' {
			packed[i/8] |= 0x80 >> (i % 8)
		}
	}
	return append(out, packed...)
}

func randRef(r *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '0' + byte(r.Intn(2))
	}
	return string(b)
}

// checkCanonical fails unless s is in the one form its length allows:
// inline with zero padding up to inlineBits, spilled beyond it.
func checkCanonical(t *testing.T, what string, s Str) {
	t.Helper()
	if s.n <= inlineBits {
		if s.spill != nil {
			t.Fatalf("%s: %d bits but spilled", what, s.n)
		}
		for _, b := range s.inline[byteLen(s.n):] {
			if b != 0 {
				t.Fatalf("%s: %d bits with nonzero inline padding %x", what, s.n, s.inline)
			}
		}
	} else if len(s.spill) != byteLen(s.n) || s.inline != [inlineBits / 8]byte{} {
		t.Fatalf("%s: %d bits, spill of %d bytes, inline %x", what, s.n, len(s.spill), s.inline)
	}
}

// checkPair checks every operation on the pair (a, b) against the model.
func checkPair(t *testing.T, ra, rb string) {
	t.Helper()
	a, b := MustBinary(ra), MustBinary(rb)
	checkCanonical(t, "FromBinary", a)
	if got := refBits(a); got != ra {
		t.Fatalf("FromBinary(%q) reads back %q", ra, got)
	}
	if got, want := a.Equal(b), ra == rb; got != want {
		t.Fatalf("Equal(%q, %q) = %v", ra, rb, got)
	}
	if got, want := a.HasPrefix(b), strings.HasPrefix(ra, rb); got != want {
		t.Fatalf("HasPrefix(%q, %q) = %v", ra, rb, got)
	}
	if got, want := a.Related(b), strings.HasPrefix(ra, rb) || strings.HasPrefix(rb, ra); got != want {
		t.Fatalf("Related(%q, %q) = %v", ra, rb, got)
	}
	cat := a.Concat(b)
	checkCanonical(t, "Concat", cat)
	if got := refBits(cat); got != ra+rb {
		t.Fatalf("Concat(%q, %q) = %q", ra, rb, got)
	}
	if !cat.HasPrefix(a) || !cat.Suffix(len(rb)).Equal(b) || !cat.Prefix(len(ra)).Equal(a) {
		t.Fatalf("Concat(%q, %q) does not split back", ra, rb)
	}
	// Cut a at b's length: a cut point at every length b takes.
	n := len(rb)
	if n > len(ra) {
		n = len(ra)
	}
	pre, suf := a.Prefix(n), a.Suffix(n)
	checkCanonical(t, "Prefix", pre)
	checkCanonical(t, "Suffix", suf)
	if got := refBits(pre); got != ra[:n] {
		t.Fatalf("Prefix(%q, %d) = %q", ra, n, got)
	}
	if got := refBits(suf); got != ra[len(ra)-n:] {
		t.Fatalf("Suffix(%q, %d) = %q", ra, n, got)
	}
	enc := a.AppendWire([]byte{0xAA})[1:]
	if want := refWire(ra); !bytes.Equal(enc, want) || a.WireSize() != len(want) {
		t.Fatalf("AppendWire(%q) = %x (WireSize %d), want %x", ra, enc, a.WireSize(), want)
	}
	back, rest, err := ParseWire(append(enc, 0xDE))
	if err != nil || len(rest) != 1 || !back.Equal(a) || refBits(back) != ra {
		t.Fatalf("ParseWire(AppendWire(%q)) = %q, %d bytes left, err %v", ra, refBits(back), len(rest), err)
	}
	checkCanonical(t, "ParseWire", back)
}

// TestOpsMatchReference runs every Str operation against the model for
// each length from 0 to 300 — both sides of the inline/spill boundary —
// paired with lengths chosen at and around the byte, word and spill
// edges, with related and unrelated partners.
func TestOpsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(1989))
	partners := []int{0, 1, 7, 8, 9, 45, 63, 64, 65, 91, 127, 128, 129, 200, 300}
	for la := 0; la <= 300; la++ {
		ra := randRef(r, la)
		for _, lb := range append(partners, la, r.Intn(301)) {
			checkPair(t, ra, randRef(r, lb))
			// A partner sharing a's leading bits exercises the true
			// branches of the prefix predicates.
			if lb <= la {
				checkPair(t, ra, ra[:lb])
			} else {
				checkPair(t, ra, ra+randRef(r, lb-la))
			}
		}
	}
}

// TestSpillBoundary spells out the cases at the edge of the inline form.
func TestSpillBoundary(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{127, 128, 129} {
		ref := randRef(r, n)
		s := MustBinary(ref)
		if spilled := s.spill != nil; spilled != (n > inlineBits) {
			t.Errorf("%d bits: spilled = %v", n, spilled)
		}
		checkPair(t, ref, ref)
		// One more bit, and one fewer, cross the boundary both ways.
		checkPair(t, ref, "1")
		checkCanonical(t, "grown", s.Concat(One()))
		checkCanonical(t, "shrunk", s.Prefix(n-1))
	}
	// Two inline strings whose concatenation spills: the second extension
	// of a 45-bit challenge at epsilon = 2^-40 (45 + 46 + 47 = 138 bits).
	a, b, c := randRef(r, 45), randRef(r, 46), randRef(r, 47)
	ab := MustBinary(a).Concat(MustBinary(b))
	if ab.spill != nil {
		t.Fatalf("91 bits spilled")
	}
	abc := ab.Concat(MustBinary(c))
	if abc.spill == nil || refBits(abc) != a+b+c {
		t.Fatalf("138-bit concat: spilled = %v, bits %q", abc.spill != nil, refBits(abc))
	}
	checkCanonical(t, "spilling concat", abc)
	if back := abc.Prefix(91); back.spill != nil || !back.Equal(ab) {
		t.Fatalf("prefix back across the boundary: spilled = %v", back.spill != nil)
	}
}

// goldenDraws are the first draws of each seeded source at seed 42, as
// wire bytes, taken before the inline representation existed. The
// ladder's core.handshake.{pkts,wire_bytes} and the E1-E10 tables all
// hang off these streams staying bit-identical.
var goldenDraws = map[string][]struct {
	n    int
	wire string
}{
	"seeded": {
		{1, "0180"}, {7, "0702"}, {8, "0852"}, {9, "099480"}, {25, "19f2234800"},
		{45, "2d06db803cfa30"}, {46, "2e5d6d37451c64"}, {64, "40a42f9e9eee35f6cc"},
		{65, "41d57d3d0b77b8055780"}, {91, "5bbf195b774a727434be501640"},
		{127, "7fe6463e7f89ed6d83b76ded4773971f84"}, {128, "8001dc8ee7021ce347aaf2337c4dc5521434"},
		{129, "810175ba5ef352d7831a1d9e7ff60300d97e00"},
		{200, "c80160b872291aca5eb0e8a355644b4413f5996e1f26dda6b312d5"},
	},
	"math": {
		{1, "0180"}, {7, "074a"}, {8, "0884"}, {9, "093e80"}, {25, "1961a58800"},
		{45, "2dd3f96fe7dc88"}, {46, "2e6d0479af10a8"}, {64, "4016c45b102ddae75b"},
		{65, "41278e8ef302edca3680"}, {91, "5b1c1b4beb60e88088826c4da0"},
		{127, "7f1ab0b5bf60cc92690a5f08a2b3a0b786"}, {128, "8001a8301c5fded376f7a070f5d89f66bf53"},
		{129, "81017d67fa1ed71a2b22ce166733b7d73ccf00"},
		{200, "c801a20ef0f04f163aae13883ff8270f930b76611b692ab1d2b618"},
	},
}

func TestSeededSourcesGolden(t *testing.T) {
	sources := map[string]Source{
		"seeded": NewSeededSource(42),
		"math":   NewMathSource(rand.New(rand.NewSource(42))),
	}
	for name, src := range sources {
		for i, g := range goldenDraws[name] {
			s := src.Draw(g.n)
			checkCanonical(t, name, s)
			if got := hex.EncodeToString(s.AppendWire(nil)); got != g.wire {
				t.Errorf("%s draw %d (%d bits) = %s, want %s", name, i, g.n, got, g.wire)
			}
		}
	}
}

// TestInlineOpsDoNotAllocate pins the point of the inline form: no
// operation on strings of up to inlineBits bits touches the heap.
func TestInlineOpsDoNotAllocate(t *testing.T) {
	seeded := NewSeededSource(3)
	math := NewMathSource(rand.New(rand.NewSource(3)))
	a, b := seeded.Draw(45), seeded.Draw(46)
	full := seeded.Draw(inlineBits)
	buf := make([]byte, 0, 64)
	enc := full.AppendWire(nil)
	var sink int
	ops := map[string]func(){
		"seeded Draw": func() { sink += seeded.Draw(inlineBits).Len() },
		"math Draw":   func() { sink += math.Draw(inlineBits).Len() },
		"Concat":      func() { sink += a.Concat(b).Len() },
		"Prefix":      func() { sink += full.Prefix(45).Len() },
		"Suffix":      func() { sink += full.Suffix(45).Len() },
		"predicates": func() {
			if full.Equal(a) || full.HasPrefix(a) || a.Related(b) {
				sink++
			}
		},
		"AppendWire": func() { buf = full.AppendWire(buf[:0]) },
		"ParseWire": func() {
			s, _, err := ParseWire(enc)
			if err != nil {
				t.Fatal(err)
			}
			sink += s.Len()
		},
		"One Zero": func() { sink += One().Len() + Zero(inlineBits).Len() },
	}
	for name, op := range ops {
		if got := testing.AllocsPerRun(200, op); got != 0 {
			t.Errorf("%s: %v allocs/op on inline strings, want 0", name, got)
		}
	}

	// The crypto source reads straight into the value. Before go1.24
	// crypto/rand.Read let its argument escape, and under the race
	// detector it still does, which costs the one allocation of the value
	// itself.
	crypto := NewCryptoSource()
	budget := 0.0
	if v := runtime.Version(); testutil.RaceEnabled || strings.HasPrefix(v, "go1.22") || strings.HasPrefix(v, "go1.23") {
		budget = 1
	}
	if got := testing.AllocsPerRun(200, func() { sink += crypto.Draw(45).Len() }); got > budget {
		t.Errorf("crypto Draw: %v allocs/op, budget %v", got, budget)
	}

	// Beyond inlineBits a string costs exactly its spill.
	if got := testing.AllocsPerRun(200, func() { sink += seeded.Draw(inlineBits + 1).Len() }); got != 1 {
		t.Errorf("spilled Draw: %v allocs/op, want 1", got)
	}
	_ = sink
}
