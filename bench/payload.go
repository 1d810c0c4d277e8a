package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
)

// Every message the benchmark hands to the program under test is
// magic[8] ‖ id[8] ‖ pad. The magic lets a conn shim find a message inside
// any unsealed packet with bytes.Index, whatever framing the layers in
// between added; the id keys verification and trace spans; the pad is drawn
// once per run from the workload seed, so the same seed gives the same
// bytes and the destination can check them.
var magic = []byte("ghmBENCH")

const payloadHeader = 16

// payloads builds and checks the messages of one run.
type payloads struct {
	pad []byte
}

func newPayloads(seed int64, size int) *payloads {
	pad := make([]byte, size-payloadHeader)
	rand.New(rand.NewSource(seed)).Read(pad)
	return &payloads{pad: pad}
}

// fill writes message id into buf (reused by the caller: Send and Submit
// copy at the API boundary) and returns it.
func (p *payloads) fill(buf []byte, id uint64) []byte {
	buf = append(buf[:0], magic...)
	buf = binary.BigEndian.AppendUint64(buf, id)
	return append(buf, p.pad...)
}

// parse checks a delivered message byte for byte and returns its id.
func (p *payloads) parse(msg []byte) (uint64, bool) {
	if len(msg) != payloadHeader+len(p.pad) || !bytes.HasPrefix(msg, magic) || !bytes.Equal(msg[payloadHeader:], p.pad) {
		return 0, false
	}
	return binary.BigEndian.Uint64(msg[len(magic):]), true
}

// findID locates a message inside a packet and returns its id.
func findID(pkt []byte) (uint64, bool) {
	i := bytes.Index(pkt, magic)
	if i < 0 || len(pkt) < i+payloadHeader {
		return 0, false
	}
	return binary.BigEndian.Uint64(pkt[i+len(magic):]), true
}

// Message ids carry the issuing client in the top 16 bits and that
// client's sequence number below, so the destination can check order per
// client without knowing how concurrent clients interleave.
func makeID(client int, seq uint64) uint64 { return uint64(client)<<48 | seq }

func splitID(id uint64) (client int, seq uint64) { return int(id >> 48), id & (1<<48 - 1) }
