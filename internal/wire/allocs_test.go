package wire

import (
	"errors"
	mathrand "math/rand"
	"testing"

	"ghm/internal/bitstr"
)

// TestCodecAllocBudget pins the codec's per-packet allocation budget so
// hot-path regressions fail loudly:
//
//   - AppendData/AppendCtl into a buffer with capacity: 0 allocs — the
//     form the engine's pooled send path uses.
//   - Encode: exactly the one output-slice allocation.
//   - DecodeData/DecodeCtl: 0 allocs (rho and tau are inline bit
//     strings; Msg aliases the input).
func TestCodecAllocBudget(t *testing.T) {
	src := bitstr.NewMathSource(mathrand.New(mathrand.NewSource(1)))
	rho, tau := src.Draw(64), src.Draw(64)
	d := Data{Msg: []byte("0123456789abcdef0123456789abcdef"), Rho: rho, Tau: tau}
	c := Ctl{Rho: rho, Tau: tau, I: 7}
	dp, cp := d.Encode(), c.Encode()

	buf := make([]byte, 0, 512)
	check := func(name string, want float64, fn func()) {
		t.Helper()
		if got := testing.AllocsPerRun(200, fn); got > want {
			t.Errorf("%s: %v allocs/op, budget %v", name, got, want)
		}
	}
	check("AppendData", 0, func() { buf = AppendData(buf[:0], d) })
	check("AppendCtl", 0, func() { buf = AppendCtl(buf[:0], c) })
	check("Data.Encode", 1, func() { d.Encode() })
	check("Ctl.Encode", 1, func() { c.Encode() })
	check("DecodeData", 0, func() {
		if _, err := DecodeData(dp); err != nil {
			t.Fatal(err)
		}
	})
	check("DecodeCtl", 0, func() {
		if _, err := DecodeCtl(cp); err != nil {
			t.Fatal(err)
		}
	})

	// Append output must byte-for-byte match Encode (one encoding per
	// value is a protocol invariant the receiver relies on).
	if string(AppendData(nil, d)) != string(dp) || string(AppendCtl(nil, c)) != string(cp) {
		t.Fatal("Append and Encode disagree")
	}
}

// TestMalformedDecodeDoesNotAllocate holds the decoders to their duty
// under a garbage flood: every malformed packet is rejected with an error
// that is ErrMalformed, and rejecting it allocates nothing.
func TestMalformedDecodeDoesNotAllocate(t *testing.T) {
	src := bitstr.NewMathSource(mathrand.New(mathrand.NewSource(2)))
	rho, tau := src.Draw(45), src.Draw(45) // 45 bits: 3 slack bits in the last byte
	dp := Data{Msg: []byte("payload"), Rho: rho, Tau: tau}.Encode()
	cp := Ctl{Rho: rho, Tau: tau, I: 7}.Encode()
	slack := func(p []byte, at int) []byte {
		out := append([]byte(nil), p...)
		out[at] |= 0x01
		return out
	}
	rhoEnd := 1 + rho.WireSize() // CTL: kind, then rho
	bad := map[string][]byte{
		"empty":                  {},
		"unknown kind":           {9, 0, 0, 0},
		"data truncated":         dp[:len(dp)-1],
		"data cut inside msg":    dp[:4],
		"data trailing byte":     append(append([]byte(nil), dp...), 0),
		"data oversized length":  {byte(KindData), 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
		"data non-minimal len":   {byte(KindData), 0x87, 0x00, 'p', 'a', 'y', 'l', 'o', 'a', 'd'},
		"data nonzero tau slack": slack(dp, len(dp)-1),
		"ctl truncated":          cp[:len(cp)-1],
		"ctl cut inside rho":     cp[:3],
		"ctl trailing byte":      append(append([]byte(nil), cp...), 0),
		"ctl non-minimal i":      append(append([]byte(nil), cp[:len(cp)-1]...), 0x87, 0x00),
		"ctl nonzero rho slack":  slack(cp, rhoEnd-1),
		"ctl non-minimal bits":   {byte(KindCtl), 0xAD, 0x00, 1, 2, 3, 4, 5, 6},
		"ctl oversized bits":     {byte(KindCtl), 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
	}
	for name, p := range bad {
		_, derr := DecodeData(p)
		_, cerr := DecodeCtl(p)
		if !errors.Is(derr, ErrMalformed) || !errors.Is(cerr, ErrMalformed) {
			t.Errorf("%s: DecodeData err %v, DecodeCtl err %v; both must be ErrMalformed", name, derr, cerr)
		}
		if got := testing.AllocsPerRun(100, func() {
			DecodeData(p)
			DecodeCtl(p)
			Sniff(p)
		}); got != 0 {
			t.Errorf("%s: rejecting it costs %v allocs, want 0", name, got)
		}
	}
}
