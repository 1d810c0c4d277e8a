package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ghm/internal/bitstr"
	"ghm/internal/core"
	"ghm/internal/engine"
	"ghm/internal/mux"
	"ghm/internal/netlink"
	"ghm/internal/outbox"
	"ghm/internal/session"
	"ghm/internal/wire"
)

// The layer ladder: one goroutine pushes a fixed batch of 64-byte messages
// through each layer's public functions, bottom of the stack first, and
// times the calls from outside. A rung's cost over the rung below it is
// what its layer adds; the table prints that delta. Strings come from
// bitstr.NewSeededSource, so the packet and byte counts of a rung are
// exact for a seed.
//
// Every rung runs ladderReps batches; ns is the median batch, allocs and
// bytes the minimum (background allocation only ever adds).
const ladderReps = 5

// batch performs n operations of a rung and may return extra per-operation
// figures (keyed by metric suffix).
type batch = func(n int) map[string]float64

// rung is one step of the ladder.
type rung struct {
	name string
	n    int
	// setup returns the batch function and a teardown (nil = none).
	setup func(seed int64, dir string) (run batch, done func(), err error)
}

// rungBelow names the rung a delta is taken against ("" = none: the first
// rung of a layer that does not sit on the previous one).
var rungBelow = map[string]string{
	"core.handshake_w8":   "core.handshake",
	"core.flood":          "core.handshake",
	"core.crash":          "core.handshake",
	"netlink.station":     "core.handshake",
	"netlink.windowed_k1": "netlink.station",
	"mux.lanes8":          "netlink.station",
	"outbox.enqueue_wal":  "outbox.enqueue_mem",
	"session.msg":         "netlink.station",
}

const (
	ladderMsgLen  = 64
	ladderStrBits = 45 // size(1, epsilon): the length strings start at in the workloads
)

func ladderMsg() []byte {
	m := make([]byte, ladderMsgLen)
	copy(m, magic)
	return m
}

var sink atomic.Int64 // keeps the compiler from discarding a rung's work

var rungs = []rung{
	{"bitstr.draw", 200000, func(seed int64, _ string) (batch, func(), error) {
		src := bitstr.NewSeededSource(seed)
		return func(n int) map[string]float64 {
			t := 0
			for i := 0; i < n; i++ {
				t += src.Draw(ladderStrBits).Len()
			}
			sink.Add(int64(t))
			return nil
		}, nil, nil
	}},
	{"bitstr.concat", 200000, func(seed int64, _ string) (batch, func(), error) {
		src := bitstr.NewSeededSource(seed)
		base, ext := src.Draw(ladderStrBits), src.Draw(ladderStrBits+1)
		return func(n int) map[string]float64 {
			t := 0
			for i := 0; i < n; i++ {
				t += base.Concat(ext).Len()
			}
			sink.Add(int64(t))
			return nil
		}, nil, nil
	}},
	{"bitstr.prefix", 200000, func(seed int64, _ string) (batch, func(), error) {
		src := bitstr.NewSeededSource(seed)
		long := src.Draw(2*ladderStrBits + 1)
		short := long.Prefix(ladderStrBits)
		return func(n int) map[string]float64 {
			t := 0
			for i := 0; i < n; i++ {
				if long.HasPrefix(short) && long.Prefix(ladderStrBits).Len() > 0 {
					t++
				}
			}
			sink.Add(int64(t))
			return nil
		}, nil, nil
	}},
	{"bitstr.wire", 200000, func(seed int64, _ string) (batch, func(), error) {
		s := bitstr.NewSeededSource(seed).Draw(ladderStrBits)
		buf := make([]byte, 0, 64)
		return func(n int) map[string]float64 {
			t := 0
			for i := 0; i < n; i++ {
				buf = s.AppendWire(buf[:0])
				got, _, err := bitstr.ParseWire(buf)
				if err == nil {
					t += got.Len()
				}
			}
			sink.Add(int64(t))
			return nil
		}, nil, nil
	}},
	{"wire.data_enc", 200000, func(seed int64, _ string) (batch, func(), error) {
		src := bitstr.NewSeededSource(seed)
		d := wire.Data{Msg: ladderMsg(), Rho: src.Draw(ladderStrBits), Tau: src.Draw(ladderStrBits)}
		return func(n int) map[string]float64 {
			t := 0
			for i := 0; i < n; i++ {
				t += len(d.Encode())
			}
			sink.Add(int64(t))
			return nil
		}, nil, nil
	}},
	{"wire.data_dec", 200000, func(seed int64, _ string) (batch, func(), error) {
		src := bitstr.NewSeededSource(seed)
		enc := wire.Data{Msg: ladderMsg(), Rho: src.Draw(ladderStrBits), Tau: src.Draw(ladderStrBits)}.Encode()
		return func(n int) map[string]float64 {
			t := 0
			for i := 0; i < n; i++ {
				if d, err := wire.DecodeData(enc); err == nil {
					t += len(d.Msg)
				}
			}
			sink.Add(int64(t))
			return nil
		}, nil, nil
	}},
	{"wire.ctl_enc", 200000, func(seed int64, _ string) (batch, func(), error) {
		src := bitstr.NewSeededSource(seed)
		c := wire.Ctl{Rho: src.Draw(ladderStrBits), Tau: src.Draw(ladderStrBits), I: 3}
		return func(n int) map[string]float64 {
			t := 0
			for i := 0; i < n; i++ {
				t += len(c.Encode())
			}
			sink.Add(int64(t))
			return nil
		}, nil, nil
	}},
	{"wire.ctl_dec", 200000, func(seed int64, _ string) (batch, func(), error) {
		src := bitstr.NewSeededSource(seed)
		enc := wire.Ctl{Rho: src.Draw(ladderStrBits), Tau: src.Draw(ladderStrBits), I: 3}.Encode()
		return func(n int) map[string]float64 {
			t := 0
			for i := 0; i < n; i++ {
				if c, err := wire.DecodeCtl(enc); err == nil {
					t += int(c.I)
				}
			}
			sink.Add(int64(t))
			return nil
		}, nil, nil
	}},
	{"core.handshake", 20000, func(seed int64, _ string) (batch, func(), error) {
		return coreRung(seed, 0, 0)
	}},
	{"core.handshake_w8", 20000, windowRung},
	{"core.flood", 5000, func(seed int64, _ string) (batch, func(), error) {
		return coreRung(seed, 8, 0)
	}},
	{"core.crash", 20000, func(seed int64, _ string) (batch, func(), error) {
		return coreRung(seed, 0, 16)
	}},
	{"engine.send", 200000, func(int64, string) (batch, func(), error) {
		eng := engine.New(newCountConn(nil), engine.Config{Raw: true})
		ep, err := eng.Endpoint(0)
		if err != nil {
			eng.Close()
			return nil, nil, err
		}
		pkt := ladderMsg()
		return func(n int) map[string]float64 {
			for i := 0; i < n; i++ {
				if ep.Send(pkt) != nil {
					break
				}
			}
			return nil
		}, func() { eng.Close() }, nil
	}},
	{"engine.dispatch", 200000, func(int64, string) (batch, func(), error) {
		conn := newCountConn(ladderMsg())
		eng := engine.New(conn, engine.Config{Raw: true})
		ep, err := eng.Endpoint(0)
		if err != nil {
			eng.Close()
			return nil, nil, err
		}
		var handled atomic.Int64
		batchDone := make(chan struct{}, 1)
		var want atomic.Int64
		ep.SetHandler(func([]byte) {
			if handled.Add(1) == want.Load() {
				select { // a handler must not block the pump; the buffer is empty at the end of a batch
				case batchDone <- struct{}{}:
				default:
				}
			}
		})
		return func(n int) map[string]float64 {
			want.Store(handled.Load() + int64(n))
			conn.release(n)
			<-batchDone
			return nil
		}, func() { eng.Close() }, nil
	}},
	{"engine.wheel", 200000, func(int64, string) (batch, func(), error) {
		w := engine.NewWheel(0, 0)
		return func(n int) map[string]float64 {
			for i := 0; i < n; i++ {
				t := w.AfterFunc(time.Hour, func() {})
				t.Reset(time.Hour)
				t.Stop()
			}
			return nil
		}, w.Stop, nil
	}},
	{"netlink.station", 5000, func(seed int64, _ string) (batch, func(), error) {
		a, b := chanPipe()
		s, err := netlink.NewSender(a, netlink.SenderConfig{Params: seededParams(seed)})
		if err != nil {
			return nil, nil, err
		}
		r, err := netlink.NewReceiver(b, netlink.ReceiverConfig{Params: seededParams(seed + 1)})
		if err != nil {
			s.Close()
			return nil, nil, err
		}
		return pairRung(s.Send, r.Recv), func() { s.Close(); r.Close() }, nil
	}},
	{"netlink.windowed_k1", 5000, func(seed int64, _ string) (batch, func(), error) {
		a, b := chanPipe()
		s, err := netlink.NewWindowedSender(a, netlink.WindowedSenderConfig{Window: 1, Params: seededParams(seed)})
		if err != nil {
			return nil, nil, err
		}
		r, err := netlink.NewWindowedReceiver(b, netlink.WindowedReceiverConfig{Window: 1, Params: seededParams(seed + 1)})
		if err != nil {
			s.Close()
			return nil, nil, err
		}
		return pairRung(s.Send, r.Recv), func() { s.Close(); r.Close() }, nil
	}},
	{"netlink.pipe", 50000, func(seed int64, _ string) (batch, func(), error) {
		a, b := netlink.Pipe(netlink.PipeConfig{Seed: seed})
		pkt := ladderMsg()
		return func(n int) map[string]float64 {
			for i := 0; i < n; i++ {
				if a.Send(pkt) != nil {
					break
				}
				if _, err := b.Recv(); err != nil {
					break
				}
			}
			return nil
		}, func() { a.Close() }, nil
	}},
	{"mux.lanes8", 5000, func(seed int64, _ string) (batch, func(), error) {
		a, b := chanPipe()
		s, err := mux.NewSender(a, 8, seededParams(seed))
		if err != nil {
			return nil, nil, err
		}
		r, err := mux.NewReceiver(b, 8, netlink.ReceiverConfig{Params: seededParams(seed + 1)})
		if err != nil {
			s.Close()
			return nil, nil, err
		}
		return pairRung(s.Send, r.Recv), func() { s.Close(); r.Close() }, nil
	}},
	{"outbox.enqueue_mem", 20000, func(int64, string) (batch, func(), error) {
		return outboxRung("")
	}},
	{"outbox.enqueue_wal", 5000, func(_ int64, dir string) (batch, func(), error) {
		return outboxRung(dir)
	}},
	{"session.msg", 5000, func(seed int64, _ string) (batch, func(), error) {
		a, b := chanPipe()
		shared := netlink.NewSharedConn(a)
		r, err := netlink.NewReceiver(b, netlink.ReceiverConfig{Params: seededParams(seed + 1)})
		if err != nil {
			shared.Close()
			return nil, nil, err
		}
		s, err := session.New(session.Config{Dial: shared.Attach, Params: seededParams(seed), Seed: seed | 1})
		if err != nil {
			r.Close()
			shared.Close()
			return nil, nil, err
		}
		send := func(_ context.Context, msg []byte) error {
			_, err := s.Enqueue(msg)
			return err
		}
		return pairRung(send, r.Recv), func() { s.Close(); r.Close(); shared.Close() }, nil
	}},
}

func seededParams(seed int64) core.Params {
	return core.Params{Epsilon: epsilon, Source: bitstr.NewSeededSource(seed)}
}

// stepLimit bounds the packet exchanges one message may take in the core
// rungs; reaching it means the machines stopped making progress.
const stepLimit = 10000

// coreRung drives core.Transmitter and core.Receiver over a perfect
// in-memory channel: SendMsg, then every DATA into the receiver and every
// CTL back, until OK. With flood > 0, that many copies of the DATA packet of
// the message before the previous one — stale, and the same length unless
// the strings have just grown; the previous message's own DATA is excused as
// a late answer and would count for nothing — go into the receiver ahead of
// every fresh DATA. With
// crashEvery > 0, the stations crash in turn before every crashEvery-th
// message.
func coreRung(seed int64, flood, crashEvery int) (batch, func(), error) {
	tx, err := core.NewTransmitter(seededParams(seed))
	if err != nil {
		return nil, nil, err
	}
	rx, err := core.NewReceiver(seededParams(seed + 1))
	if err != nil {
		return nil, nil, err
	}
	msg := ladderMsg()
	var stale, prev []byte
	sent := 0
	return func(n int) map[string]float64 {
		var pkts, wireBytes, maxBits int
		ext0 := tx.Stats().Extensions + rx.Stats().Extensions
		var lostExt int // extensions counted before a crash zeroed the stats
		var pending [][]byte
		toTx := func(ctls [][]byte) {
			for _, c := range ctls {
				pkts++
				wireBytes += len(c)
				pending = append(pending, tx.ReceivePacket(c).Packets...)
			}
		}
		toRx := func(d []byte) {
			pkts++
			wireBytes += len(d)
			toTx(rx.ReceivePacket(d).Packets)
		}
		for i := 0; i < n; i++ {
			if sent++; crashEvery > 0 && sent%crashEvery == 0 {
				if (sent/crashEvery)%2 == 0 {
					lostExt += tx.Stats().Extensions
					tx.Crash()
				} else {
					lostExt += rx.Stats().Extensions
					rx.Crash()
				}
			}
			out, err := tx.SendMsg(msg)
			if err != nil {
				return map[string]float64{"failed": 1}
			}
			pending = append(pending[:0], out.Packets...)
			var last []byte
			for step := 0; tx.Busy(); step++ {
				if step > stepLimit {
					return map[string]float64{"failed": 1}
				}
				if len(pending) == 0 {
					toTx(rx.Retry().Packets)
					continue
				}
				d := pending[0]
				pending = pending[1:]
				if len(stale) == len(d) {
					for f := 0; f < flood; f++ {
						toTx(rx.ReceivePacket(stale).Packets) // injected: not counted as the protocol's packets
					}
					if b := rx.RhoLen(); b > maxBits { // the challenge is at its longest before the delivery resets it
						maxBits = b
					}
				}
				last = d
				toRx(d)
			}
			if flood > 0 {
				stale, prev = append(stale[:0], prev...), append(prev[:0], last...)
			}
			if b := rx.RhoLen(); b > maxBits {
				maxBits = b
			}
			if b := tx.TauLen(); b > maxBits {
				maxBits = b
			}
		}
		ext := tx.Stats().Extensions + rx.Stats().Extensions + lostExt - ext0
		return map[string]float64{
			"pkts": float64(pkts) / float64(n), "wire_bytes": float64(wireBytes) / float64(n),
			"extensions": float64(ext) / float64(n), "max_bits": float64(maxBits),
		}
	}, nil, nil
}

// windowRung is coreRung's fault-free case on the windowed machines at
// depth 8: messages go round the slots, one in flight at a time, so its
// delta over core.handshake is the cost of slot framing and demux.
func windowRung(seed int64, _ string) (batch, func(), error) {
	const k = 8
	wt, err := core.NewWindowedTransmitter(k, seededParams(seed))
	if err != nil {
		return nil, nil, err
	}
	wr, err := core.NewWindowedReceiver(k, seededParams(seed+1))
	if err != nil {
		return nil, nil, err
	}
	msg := ladderMsg()
	slot := 0
	return func(n int) map[string]float64 {
		var pending [][]byte
		toTx := func(ctls [][]byte) {
			for _, c := range ctls {
				pending = append(pending, wt.ReceivePacket(c).Packets...)
			}
		}
		for i := 0; i < n; i++ {
			slot = (slot + 1) % k
			out, err := wt.SendMsg(slot, msg)
			if err != nil {
				return map[string]float64{"failed": 1}
			}
			pending = append(pending[:0], out.Packets...)
			for step := 0; wt.SlotBusy(slot); step++ {
				if step > stepLimit {
					return map[string]float64{"failed": 1}
				}
				if len(pending) == 0 {
					toTx(wr.Retry().Packets)
					continue
				}
				d := pending[0]
				pending = pending[1:]
				toTx(wr.ReceivePacket(d).Packets)
			}
		}
		return nil
	}, nil, nil
}

// pairRung is the closed loop of the station rungs: one message in, the
// same message out at the far end, from one goroutine.
func pairRung(send func(context.Context, []byte) error, recv func(context.Context) ([]byte, error)) batch {
	msg := ladderMsg()
	return func(n int) map[string]float64 {
		ctx, cancel := context.WithTimeout(context.Background(), 4*opTimeout)
		defer cancel()
		for i := 0; i < n; i++ {
			if err := send(ctx, msg); err != nil {
				return map[string]float64{"failed": 1}
			}
			if got, err := recv(ctx); err != nil || len(got) != len(msg) {
				return map[string]float64{"failed": 1}
			}
		}
		return nil
	}
}

// outboxRung enqueues into an outbox whose Send confirms at once, with or
// without a write-ahead log (flushed to the kernel per record, not
// fsynced: the repo's default), and waits for the backlog to drain.
func outboxRung(dir string) (batch, func(), error) {
	cfg := outbox.Config{Send: func(context.Context, []byte) error { return nil }}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		tmp, err := os.MkdirTemp(dir, "wal-")
		if err != nil {
			return nil, nil, err
		}
		dir = tmp
		cfg.WALPath = filepath.Join(tmp, "outbox.wal")
	}
	q, err := outbox.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	msg := ladderMsg()
	return func(n int) map[string]float64 {
			ctx, cancel := context.WithTimeout(context.Background(), 4*opTimeout)
			defer cancel()
			for i := 0; i < n; i++ {
				if _, err := q.Enqueue(msg); err != nil {
					return map[string]float64{"failed": 1}
				}
			}
			if q.Flush(ctx) != nil {
				return map[string]float64{"failed": 1}
			}
			return nil
		}, func() {
			q.Close()
			if dir != "" {
				os.RemoveAll(dir)
			}
		}, nil
}

// runLadder runs every rung and returns the per-layer metrics. A rung that
// fails is missing from them.
func runLadder(cfg runConfig) map[string]float64 {
	out := make(map[string]float64)
	for _, r := range rungs {
		run, done, err := r.setup(cfg.seed, cfg.outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: ladder rung %s: %v\n", r.name, err)
			continue
		}
		n := r.n
		if cfg.quick {
			n = n/20 + 10
		}
		ns, allocs, bytes, extra := runRung(run, n)
		if done != nil {
			done()
		}
		if extra["failed"] != 0 {
			fmt.Fprintf(os.Stderr, "bench: ladder rung %s: the layer stopped making progress\n", r.name)
			continue
		}
		out[r.name+".ns"], out[r.name+".allocs"], out[r.name+".bytes"] = ns, allocs, bytes
		for k, v := range extra {
			if ladderExtras[r.name+"."+k] {
				out[r.name+"."+k] = v
			}
		}
	}
	return out
}

// printLadder prints the table: every rung, and its delta against the rung
// it sits on.
func printLadder(log io.Writer, seed int64, v map[string]float64) {
	fmt.Fprintf(log, "\nlayer ladder (one goroutine, %d B messages, seed %d; per operation, Δ against the rung below)\n", ladderMsgLen, seed)
	fmt.Fprintf(log, "  %-22s %10s %10s %8s %8s %9s   %s\n", "rung", "ns", "Δns", "allocs", "Δallocs", "bytes", "extra")
	for _, r := range rungs {
		ns, ran := v[r.name+".ns"]
		if !ran {
			fmt.Fprintf(log, "  %-22s failed\n", r.name)
			continue
		}
		allocs := v[r.name+".allocs"]
		line := fmt.Sprintf("  %-22s %10.1f", r.name, ns)
		if below, ok := rungBelow[r.name]; ok {
			line += fmt.Sprintf(" %+10.1f %8.2f %+8.2f", ns-v[below+".ns"], allocs, allocs-v[below+".allocs"])
		} else {
			line += fmt.Sprintf(" %10s %8.2f %8s", "", allocs, "")
		}
		line += fmt.Sprintf(" %9.1f  ", v[r.name+".bytes"])
		for _, k := range []string{"pkts", "wire_bytes", "extensions", "max_bits"} {
			if x, ok := v[r.name+"."+k]; ok {
				line += fmt.Sprintf(" %s=%.4g", k, x)
			}
		}
		fmt.Fprintln(log, line)
	}
}

// ladderExtras are the extra per-rung figures that are declared metrics.
var ladderExtras = map[string]bool{
	"core.handshake.pkts": true, "core.handshake.wire_bytes": true,
	"core.flood.extensions": true, "core.flood.max_bits": true,
}

// runRung runs ladderReps batches of n operations after one warm-up batch.
func runRung(run batch, n int) (ns, allocs, bytes float64, extra map[string]float64) {
	if extra = run(n / 10); extra["failed"] != 0 {
		return
	}
	var nss []float64
	allocs, bytes = -1, -1
	for rep := 0; rep < ladderReps; rep++ {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		t0 := time.Now()
		extra = run(n)
		d := time.Since(t0)
		runtime.ReadMemStats(&b)
		if extra["failed"] != 0 {
			return
		}
		nss = append(nss, float64(d)/float64(n))
		if v := float64(b.Mallocs-a.Mallocs) / float64(n); allocs < 0 || v < allocs {
			allocs = v
		}
		if v := float64(b.TotalAlloc-a.TotalAlloc) / float64(n); bytes < 0 || v < bytes {
			bytes = v
		}
	}
	return median(nss), allocs, bytes, extra
}

// countConn is the benchmark-owned conn under the engine rungs: Send
// discards, and Recv hands out pkt as many times as release allowed, then
// blocks — so engine.dispatch times the pump and the handler, not a
// channel.
type countConn struct {
	pkt    []byte
	mu     sync.Mutex
	cond   *sync.Cond
	left   int
	closed bool
}

func newCountConn(pkt []byte) *countConn {
	c := &countConn{pkt: pkt}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *countConn) release(n int) {
	c.mu.Lock()
	c.left += n
	c.mu.Unlock()
	c.cond.Signal()
}

func (c *countConn) Send([]byte) error { return nil }

func (c *countConn) Recv() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.left == 0 && !c.closed {
		c.cond.Wait()
	}
	if c.closed {
		return nil, errConnClosed
	}
	c.left--
	return c.pkt, nil
}

func (c *countConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.cond.Broadcast()
	return nil
}

var errConnClosed = errors.New("bench: conn closed")

// chanConn is one end of the benchmark-owned in-memory link under the
// station rungs: a buffered channel each way, nothing else, so that
// station − core is the runtime's overhead and not a pipe's.
type chanConn struct {
	in, out chan []byte
	stop    chan struct{}
	once    *sync.Once
}

// chanPipe returns the two ends. The buffers hold more packets than a
// closed loop with one message in flight ever queues.
func chanPipe() (netlink.PacketConn, netlink.PacketConn) {
	ab, ba := make(chan []byte, 64), make(chan []byte, 64)
	stop, once := make(chan struct{}), new(sync.Once)
	return &chanConn{in: ba, out: ab, stop: stop, once: once}, &chanConn{in: ab, out: ba, stop: stop, once: once}
}

func (c *chanConn) Send(p []byte) error {
	select {
	case c.out <- append([]byte(nil), p...): // Send must not retain p
	default: // full: drop, as a congested link would
	}
	return nil
}

func (c *chanConn) Recv() ([]byte, error) {
	select {
	case p := <-c.in:
		return p, nil
	case <-c.stop:
		return nil, netlink.ErrClosed
	}
}

func (c *chanConn) Close() error {
	c.once.Do(func() { close(c.stop) })
	return nil
}
