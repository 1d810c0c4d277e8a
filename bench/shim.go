package main

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"ghm"
)

// tapConn is the benchmark's view of one end of one link. It sits between
// a station (or mesh node) and the link's real conn, counts every packet
// and byte the program puts on the link — the paper's communication cost —
// and, in a traced run, reports every Send and Recv to the tracer.
//
// It forwards SendBatch when the conn below has one, so the program's
// batched path is measured as it ships.
type tapConn struct {
	inner ghm.PacketConn
	batch interface{ SendBatch(pkts [][]byte) error } // nil when inner has none

	node int     // the station or mesh node that owns this end
	tr   *tracer // nil in an untraced run

	pkts  atomic.Int64
	bytes atomic.Int64
	// answering is the sampled message whose DATA the last Recv returned;
	// a CTL sent before the next Recv is the station's answer to it.
	answering atomic.Uint64
}

func newTap(inner ghm.PacketConn, node int, tr *tracer) *tapConn {
	t := &tapConn{inner: inner, node: node, tr: tr}
	t.batch, _ = inner.(interface{ SendBatch(pkts [][]byte) error })
	return t
}

func (t *tapConn) sent(p []byte) {
	t.pkts.Add(1)
	t.bytes.Add(int64(len(p)))
	if t.tr != nil {
		t.tr.onSend(t.node, p, t.answering.Load())
	}
}

func (t *tapConn) Send(p []byte) error {
	t.sent(p)
	return t.inner.Send(p)
}

func (t *tapConn) SendBatch(pkts [][]byte) error {
	for _, p := range pkts {
		t.sent(p)
	}
	if t.batch != nil {
		return t.batch.SendBatch(pkts)
	}
	for _, p := range pkts {
		if err := t.inner.Send(p); err != nil {
			return err
		}
	}
	return nil
}

func (t *tapConn) Recv() ([]byte, error) {
	if t.tr != nil {
		t.answering.Store(0)
	}
	p, err := t.inner.Recv()
	if err == nil && t.tr != nil {
		t.answering.Store(t.tr.onRecv(t.node, p))
	}
	return p, err
}

func (t *tapConn) Close() error { return t.inner.Close() }

// replayHistory is how many forwarded packets the replay shim remembers.
const replayHistory = 64

// replayConn is the oblivious adversary of the link-adversary workload: it
// sees only packet lengths. After forwarding a packet it re-sends, with
// probability prob, one stale packet of exactly the same length from its
// history of the last replayHistory packets. A same-length stale packet is
// the only kind the protocol counts as an error (and answers by extending
// its random strings); any other length is discarded for free.
type replayConn struct {
	inner ghm.PacketConn
	prob  float64

	mu       sync.Mutex // Send is called from the station's pump and from the timer wheel
	rng      *rand.Rand
	history  [replayHistory][]byte
	next     int
	injected atomic.Int64
}

func newReplayConn(inner ghm.PacketConn, prob float64, seed int64) *replayConn {
	return &replayConn{inner: inner, prob: prob, rng: rand.New(rand.NewSource(seed))}
}

// pick chooses the stale packet to inject after p, or nil, and remembers p.
func (r *replayConn) pick(p []byte) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	var stale []byte
	if r.rng.Float64() < r.prob {
		var same [replayHistory]int
		n := 0
		for i, h := range r.history {
			if h != nil && len(h) == len(p) {
				same[n] = i
				n++
			}
		}
		if n > 0 {
			// Copied: the slot may be overwritten before the caller sends it.
			stale = append([]byte(nil), r.history[same[r.rng.Intn(n)]]...)
		}
	}
	slot := &r.history[r.next]
	*slot = append((*slot)[:0], p...) // Send must not retain p
	r.next = (r.next + 1) % replayHistory
	return stale
}

func (r *replayConn) Send(p []byte) error {
	stale := r.pick(p)
	if err := r.inner.Send(p); err != nil {
		return err
	}
	if stale != nil {
		r.injected.Add(1)
		return r.inner.Send(stale)
	}
	return nil
}

func (r *replayConn) Recv() ([]byte, error) { return r.inner.Recv() }
func (r *replayConn) Close() error          { return r.inner.Close() }
