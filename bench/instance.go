package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ghm"
)

// opTimeout is every operation's watchdog: an operation that has not
// completed by then is cancelled and counted as failed, so a wedged
// program turns into failed operations, never into a hung benchmark.
const opTimeout = 5 * time.Second

// testDouble is what tests change about an instance; the zero value is
// the benchmark as it ships. The watchdog's test stalls every operation
// and shortens the timeout; the smoke test shortens the warm-up.
type testDouble struct {
	stall   time.Duration
	timeout time.Duration // every operation's watchdog; 0 = opTimeout
	warm    int64         // the weigh phase's message count; 0 = the workload's
}

// maxFailures is where a client gives up submitting: the run has failed
// by then, and a program that refuses every operation at once must not
// spin the client.
const maxFailures = 1000

// clientState is what one closed-loop client shares with the receiver
// goroutine, the watchdog and the slice coordinator.
type clientState struct {
	confirmed atomic.Int64 // operations confirmed at the sender
	delivered atomic.Int64 // distinct messages of this client seen at the destination
	opStart   atomic.Int64 // UnixNano of the operation in progress, 0 = none

	mu     sync.Mutex
	cancel context.CancelFunc // cancels the operation in progress
	// The last licenceRing messages, each with the crash count when it was
	// first submitted and when it was confirmed: a second delivery is
	// licensed only if a crash was injected in between. A ring, because the
	// destination's higher layer reads a duplicate up to a receiver mailbox
	// (16 messages) after the sender has moved on.
	licences [licenceRing]inFlight

	lat [2]hist // confirm latency: [0] warm-up and untimed, [1] the timed slice; written by the client only
}

// inFlight is one message's licence for a duplicate delivery.
type inFlight struct {
	seq                  uint64
	startEpoch, endEpoch int64 // endEpoch is -1 while the message is unconfirmed
}

const licenceRing = 64

// instance is one built workload: the program under test, the shims
// around its conns, and the clients driving it.
type instance struct {
	spec *spec
	pl   *payloads
	tr   *tracer // nil unless traced

	taps     []*tapConn
	replays  []*replayConn
	loopback bool // traffic crossed the host's loopback interface

	tx   *ghm.Sender
	rx   *ghm.Receiver
	mesh *ghm.Mesh
	td   testDouble

	cl        []*clientState
	slice     atomic.Int32 // which lat slot clients record into: 1 during the timed slice
	attempted atomic.Int64
	failed    atomic.Int64
	firstFail atomic.Pointer[string]

	warmLeft atomic.Int64 // confirms still wanted before warmDone closes
	warmDone chan struct{}

	crashEpoch  atomic.Int64
	lastCrashAt atomic.Int64 // UnixNano of a crash no confirm has followed yet
	recoverLat  hist         // crash -> next confirm; written under recoverMu
	recoverMu   sync.Mutex
	dupLicensed atomic.Int64

	stopping atomic.Bool
	stop     chan struct{}  // closed first: clients finish their operation in progress
	helpStop chan struct{}  // closed once the clients are gone: the watchdog outlives them
	clients  sync.WaitGroup // the closed-loop clients
	helpers  sync.WaitGroup // receiver, watchdog, crash injector
	rxCancel context.CancelFunc
}

// build constructs the program under test for workload w and starts the
// clients; it returns once they are running. Closing is the caller's job
// even when build fails half way (close tolerates a partial instance).
func build(w *spec, seed int64, tr *tracer, td testDouble) (*instance, error) {
	if td.timeout == 0 {
		td.timeout = opTimeout
	}
	if td.warm == 0 {
		td.warm = w.warm
	}
	in := &instance{
		spec: w, pl: newPayloads(seed, w.payload), tr: tr, td: td,
		warmDone: make(chan struct{}), stop: make(chan struct{}), helpStop: make(chan struct{}),
	}
	in.warmLeft.Store(td.warm)
	if w.mesh {
		in.cl = []*clientState{new(clientState)}
		return in, in.buildMesh(seed)
	}
	for i := 0; i < w.clients; i++ {
		in.cl = append(in.cl, new(clientState))
	}
	return in, in.buildLink(seed)
}

func (in *instance) tap(c ghm.PacketConn, node int) *tapConn {
	t := newTap(c, node, in.tr)
	in.taps = append(in.taps, t)
	return t
}

func (in *instance) buildLink(seed int64) error {
	a, b, err := in.spec.link(in, seed)
	if err != nil {
		return err
	}
	txOpts, rxOpts := in.spec.opts()
	ta, tb := in.tap(a, 0), in.tap(b, 1)
	if in.tx, err = ghm.NewSender(ta, txOpts...); err != nil {
		a.Close()
		b.Close()
		return err
	}
	if in.rx, err = ghm.NewReceiver(tb, rxOpts...); err != nil {
		b.Close()
		return err
	}
	rctx, cancel := context.WithCancel(context.Background())
	in.rxCancel = cancel
	in.helpers.Add(2)
	go in.linkReceiver(rctx)
	go in.watchdog()
	if in.spec.crashes {
		in.helpers.Add(1)
		go in.crasher()
	}
	for c := range in.cl {
		in.clients.Add(1)
		go in.linkClient(c)
	}
	return nil
}

func (in *instance) buildMesh(seed int64) error {
	var links []ghm.LinkConns
	for i, l := range meshTopology.Links {
		a, b := ghm.Pipe(ghm.PipeFaults{Seed: seed + int64(i)*2})
		links = append(links, ghm.LinkConns{A: in.tap(a, l.A), B: in.tap(b, l.B)})
	}
	var err error
	in.mesh, err = ghm.NewMesh(ghm.MeshConfig{
		Topology: meshTopology, Links: links,
		Source: meshSrc, Dest: meshDst, Routes: 3,
		Options: []ghm.Option{ghm.WithEpsilon(epsilon)},
	})
	if err != nil {
		for _, l := range links {
			l.A.Close()
		}
		return err
	}
	in.clients.Add(1)
	go in.meshClient()
	return nil
}

// fail counts one failed operation and keeps the first reason for the
// report.
func (in *instance) fail(format string, args ...any) {
	in.failed.Add(1)
	if in.firstFail.Load() == nil {
		s := fmt.Sprintf(format, args...)
		in.firstFail.CompareAndSwap(nil, &s)
	}
}

// confirm records one confirmed operation of client c.
func (in *instance) confirm(c *clientState, lat time.Duration) {
	c.lat[in.slice.Load()].record(int64(lat))
	c.confirmed.Add(1)
	if in.warmLeft.Add(-1) == 0 {
		close(in.warmDone)
	}
	if in.spec.crashes {
		if at := in.lastCrashAt.Swap(0); at != 0 {
			in.recoverMu.Lock()
			in.recoverLat.record(time.Now().UnixNano() - at)
			in.recoverMu.Unlock()
		}
	}
}

// linkClient is one closed loop over Sender.Send: the next message goes
// out only when the previous one is confirmed.
func (in *instance) linkClient(ci int) {
	defer in.clients.Done()
	c := in.cl[ci]
	buf := make([]byte, 0, in.spec.payload)
	var ctx context.Context
	defer func() {
		if c.cancel != nil {
			c.cancel()
		}
	}()
	for seq := uint64(1); !in.stopping.Load() && in.failed.Load() < maxFailures; seq++ {
		if ctx == nil || ctx.Err() != nil {
			var cancel context.CancelFunc
			ctx, cancel = context.WithCancel(context.Background())
			c.mu.Lock()
			c.cancel = cancel
			c.mu.Unlock()
		}
		id := makeID(ci, seq)
		msg := in.pl.fill(buf, id)
		if in.spec.crashes {
			epoch := in.crashEpoch.Load()
			c.mu.Lock()
			c.licences[(seq-1)%licenceRing].endEpoch = epoch
			c.licences[seq%licenceRing] = inFlight{seq, epoch, -1}
			c.mu.Unlock()
		}
		if in.tr != nil {
			in.tr.begin(id)
		}
		in.attempted.Add(1)
		t0 := time.Now()
		c.opStart.Store(t0.UnixNano())
		err := in.stall(ctx)
		for err == nil {
			err = in.tx.Send(ctx, msg)
			if err == nil || !in.spec.crashes || !errors.Is(err, ghm.ErrCrashed) {
				break
			}
			err = nil // wiped by an injected crash: resubmit the same bytes
		}
		lat := time.Since(t0)
		c.opStart.Store(0)
		if err != nil {
			in.fail("client %d message %d: %v", ci, seq, err)
			continue
		}
		if in.tr != nil {
			in.tr.finish(id, stDone)
		}
		in.confirm(c, lat)
	}
}

// stall is the test double behind the watchdog's acceptance test.
func (in *instance) stall(ctx context.Context) error {
	if in.td.stall == 0 {
		return nil
	}
	select {
	case <-time.After(in.td.stall):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// linkReceiver is the destination's higher layer: it checks every
// delivered message byte for byte, in order per client, exactly once —
// except that a second delivery of the message in progress is licensed
// when a crash was injected since it was first submitted (the paper
// proves that one unavoidable).
func (in *instance) linkReceiver(ctx context.Context) {
	defer in.helpers.Done()
	last := make([]uint64, len(in.cl))
	for {
		msg, err := in.rx.Recv(ctx)
		if err != nil {
			return
		}
		id, ok := in.pl.parse(msg)
		ci, seq := splitID(id)
		if !ok || ci >= len(in.cl) {
			in.fail("destination got %d bytes that are no benchmark message", len(msg))
			continue
		}
		c := in.cl[ci]
		switch {
		case seq > last[ci]:
			last[ci] = seq
			c.delivered.Add(1)
			if in.tr != nil {
				in.tr.finish(id, stRelease)
			}
		case seq == last[ci] && in.spec.crashes && in.licensed(c, seq):
			in.dupLicensed.Add(1)
		default:
			in.fail("client %d message %d delivered again or out of order (last delivered %d)", ci, seq, last[ci])
		}
	}
}

// licensed reports whether a crash was injected while message seq of
// client c was in flight.
func (in *instance) licensed(c *clientState, seq uint64) bool {
	c.mu.Lock()
	l := c.licences[seq%licenceRing]
	c.mu.Unlock()
	if l.seq != seq {
		return false
	}
	if l.endEpoch < 0 {
		l.endEpoch = in.crashEpoch.Load()
	}
	return l.endEpoch > l.startEpoch
}

// watchdog cancels any operation older than opTimeout. Cancelling a Send
// crashes the station by design, so the client's next Send starts fresh.
func (in *instance) watchdog() {
	defer in.helpers.Done()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-in.helpStop:
			return
		case now := <-tick.C:
			for _, c := range in.cl {
				if st := c.opStart.Load(); st != 0 && now.UnixNano()-st > int64(in.td.timeout) {
					c.mu.Lock()
					c.cancel()
					c.mu.Unlock()
				}
			}
		}
	}
}

// crasher alternates crash^T and crash^R every crashEvery.
func (in *instance) crasher() {
	defer in.helpers.Done()
	tick := time.NewTicker(crashEvery)
	defer tick.Stop()
	for n := 0; ; n++ {
		select {
		case <-in.stop:
			return
		case <-tick.C:
			in.crashEpoch.Add(1)
			in.lastCrashAt.Store(time.Now().UnixNano())
			if n%2 == 0 {
				in.tx.Crash()
			} else {
				in.rx.Crash()
			}
		}
	}
}

// meshClient keeps spec.clients payloads outstanding between Submit and
// Delivered: each delivery is checked against the outstanding set (so a
// duplicate or a stranger fails) and replaced by a fresh submission.
func (in *instance) meshClient() {
	defer in.clients.Done()
	c := in.cl[0]
	buf := make([]byte, 0, in.spec.payload)
	outstanding := make(map[uint64]time.Time, in.spec.clients)
	var seq uint64
	submit := func() {
		seq++
		id := makeID(0, seq)
		if in.tr != nil {
			in.tr.begin(id)
		}
		in.attempted.Add(1)
		outstanding[id] = time.Now()
		if _, err := in.mesh.Submit(in.pl.fill(buf, id)); err != nil {
			delete(outstanding, id)
			in.fail("submit %d: %v", seq, err)
		}
	}
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for !in.stopping.Load() {
		for len(outstanding) < in.spec.clients && in.failed.Load() < maxFailures {
			submit()
		}
		select {
		case msg, ok := <-in.mesh.Delivered():
			now := time.Now()
			if !ok {
				in.fail("mesh closed its delivery channel")
				return
			}
			id, ok := in.pl.parse(msg)
			t0, known := outstanding[id]
			if !ok || !known {
				in.fail("destination got an unknown or repeated payload (%d bytes)", len(msg))
				continue
			}
			delete(outstanding, id)
			if in.tr != nil {
				in.tr.finish(id, stDone)
			}
			c.delivered.Add(1)
			in.confirm(c, now.Sub(t0))
		case now := <-tick.C:
			for id, t0 := range outstanding {
				if now.Sub(t0) > in.td.timeout {
					delete(outstanding, id)
					in.fail("payload %d not delivered within %v", id, in.td.timeout)
				}
			}
		case <-in.stop:
		}
	}
	// The payloads still outstanding were attempted but are abandoned by
	// the stop, not failed.
	in.attempted.Add(-int64(len(outstanding)))
}

// halt stops the clients after their operation in progress and checks the
// books: every message confirmed at the sender was received at the
// destination. The program under test stays open (live heap is read after
// this).
func (in *instance) halt() {
	if in.stopping.Swap(true) {
		return
	}
	close(in.stop)
	in.clients.Wait()
	close(in.helpStop)
	if in.mesh != nil {
		in.haltMesh()
		return
	}
	if in.rx == nil {
		return
	}
	// A confirmed message is already in the receiver's mailbox; give the
	// receiver goroutine a moment to drain it before comparing.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) && in.undelivered() > 0 {
		time.Sleep(time.Millisecond)
	}
	in.rxCancel()
	in.helpers.Wait()
	if n := in.undelivered(); n > 0 {
		in.failed.Add(n - 1)
		in.fail("%d confirmed messages never reached the destination", n)
	}
}

func (in *instance) undelivered() int64 {
	var n int64
	for _, c := range in.cl {
		if d := c.confirmed.Load() - c.delivered.Load(); d > 0 {
			n += d
		}
	}
	return n
}

// haltMesh waits for the end-to-end acks of what was delivered and
// compares the mesh's own books with the client's.
func (in *instance) haltMesh() {
	ctx, cancel := context.WithTimeout(context.Background(), in.td.timeout)
	defer cancel()
	st := in.mesh.Stats()
	for st.Acked < int(in.cl[0].confirmed.Load()) && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
		st = in.mesh.Stats()
	}
	if conf := in.cl[0].confirmed.Load(); int64(st.Acked) < conf {
		in.failed.Add(conf - int64(st.Acked) - 1)
		in.fail("%d delivered payloads were never acknowledged to the source", conf-int64(st.Acked))
	}
	for hop, r := range in.mesh.HopReports() {
		if !r.Clean() {
			in.fail("hop %s violated the paper's conditions: %+v", hop, r)
		}
	}
}

// close tears the program under test down; the instance must be halted.
func (in *instance) close() {
	in.halt()
	if in.rxCancel != nil {
		in.rxCancel()
	}
	in.helpers.Wait()
	if in.tx != nil {
		in.tx.Close()
	}
	if in.rx != nil {
		in.rx.Close()
	}
	if in.mesh != nil {
		in.mesh.Close()
	}
}

// totals sums the per-client and per-conn counters.
func (in *instance) totals() (confirmed, pkts, wireBytes int64) {
	for _, c := range in.cl {
		confirmed += c.confirmed.Load()
	}
	for _, t := range in.taps {
		pkts += t.pkts.Load()
		wireBytes += t.bytes.Load()
	}
	return
}

// latency merges every client's histogram of one slice.
func (in *instance) latency(slice int) *hist {
	h := new(hist)
	for _, c := range in.cl {
		h.add(&c.lat[slice])
	}
	return h
}
