package wire

import (
	"bytes"
	"testing"

	"ghm/internal/bitstr"
)

func FuzzDecodeData(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{byte(KindData)})
	f.Add(Data{Msg: []byte("seed"), Rho: bitstr.MustBinary("10110"), Tau: bitstr.One()}.Encode())
	f.Add(Ctl{Rho: bitstr.One(), Tau: bitstr.One(), I: 3}.Encode())
	f.Fuzz(func(t *testing.T, in []byte) {
		d, err := DecodeData(in)
		if err != nil {
			return
		}
		// Any accepted packet must re-encode to exactly the input: the
		// format admits a single encoding per value, so an adversary
		// cannot alias two packets.
		if got := d.Encode(); !bytes.Equal(got, in) {
			t.Fatalf("re-encode mismatch:\n in=%x\nout=%x", in, got)
		}
	})
}

func FuzzDecodeCtl(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{byte(KindCtl)})
	f.Add(Ctl{Rho: bitstr.MustBinary("101"), Tau: bitstr.MustBinary("0110"), I: 42}.Encode())
	f.Add(append(Ctl{Rho: bitstr.One(), Tau: bitstr.One(), I: 1}.Encode(), "tail"...))
	f.Fuzz(func(t *testing.T, in []byte) {
		// ParseCtl takes the one CTL encoding at the front of in, and
		// DecodeCtl is ParseCtl with nothing after it.
		pc, rest, perr := ParseCtl(in)
		c, err := DecodeCtl(in)
		if (err == nil) != (perr == nil && len(rest) == 0) {
			t.Fatalf("% x: DecodeCtl err %v, ParseCtl err %v with %d bytes after", in, err, perr, len(rest))
		}
		if perr == nil {
			if got := append(pc.Encode(), rest...); !bytes.Equal(got, in) {
				t.Fatalf("prefix re-encode mismatch:\n in=%x\nout=%x", in, got)
			}
		}
		if err != nil {
			return
		}
		if got := c.Encode(); !bytes.Equal(got, in) {
			t.Fatalf("re-encode mismatch:\n in=%x\nout=%x", in, got)
		}
	})
}
