package netlink

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ghm/internal/bitstr"
	"ghm/internal/clock"
	"ghm/internal/core"
	"ghm/internal/metrics"
	"ghm/internal/wire"
)

// TestCtlTrailerRidesEveryCTL: with the hooks set on both ends, every CTL
// the receiver sends — replies and RETRY batches alike — carries the
// trailer, and the sender hands it on from every CTL that vouches (each
// OK among them). The receiver's
// RETRY is paced at 1 ms, so the idle tail after the last Send is RETRY
// CTLs only, and the sender hears the trailer from them too.
func TestCtlTrailerRidesEveryCTL(t *testing.T) {
	forDepths(t, func(t *testing.T, k int) {
		reg := metrics.New()
		a, b := Pipe(PipeConfig{Seed: 3})
		var mu sync.Mutex
		var heard, foreign int
		s, err := NewSender(a, SenderConfig{Window: k, Metrics: reg, OnTrailer: func(tr []byte) {
			mu.Lock()
			defer mu.Unlock()
			if string(tr) == "ledger" {
				heard++
			} else {
				foreign++
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var ctls, misframed atomic.Int64
		check := checkConn{PacketConn: b, check: func(p []byte) {
			ctls.Add(1)
			if _, tr, ok := splitTrailer(p, core.Framed(k)); !ok || string(tr) != "ledger" {
				misframed.Add(1)
			}
		}}
		r, err := NewReceiver(check, ReceiverConfig{Window: k, RetryInterval: time.Millisecond, Metrics: reg,
			CtlTrailer: func(dst []byte) []byte { return append(dst, "ledger"...) }})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		ctx := testCtx(t)
		const n = 50
		for i := 0; i < n; i++ {
			if err := s.Send(ctx, []byte("m")); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Recv(ctx); err != nil {
				t.Fatal(err)
			}
		}
		mu.Lock()
		atRest := heard
		mu.Unlock()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			mu.Lock()
			h := heard
			mu.Unlock()
			if h > atRest {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("no RETRY CTL brought the trailer to an idle sender")
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if heard < n || foreign != 0 {
			t.Errorf("sender heard the trailer %d times and %d other bytes for %d OKs", heard, foreign, n)
		}
		if ctls.Load() < int64(n) || misframed.Load() != 0 {
			t.Errorf("%d of %d CTLs sent for %d DATA replies lack the trailer", misframed.Load(), ctls.Load(), n)
		}
	})
}

// checkConn hands every packet sent on it to check first.
type checkConn struct {
	PacketConn
	check func(p []byte)
}

func (c checkConn) Send(p []byte) error {
	c.check(p)
	return c.PacketConn.Send(p)
}

// captureConn is a link end that keeps a copy of the last packet sent on
// it and delivers nothing.
type captureConn struct {
	mu   sync.Mutex
	last []byte
	stop chan struct{}
	once sync.Once
}

func newCaptureConn() *captureConn { return &captureConn{stop: make(chan struct{})} }

func (c *captureConn) Send(p []byte) error {
	c.mu.Lock()
	c.last = append(c.last[:0], p...)
	c.mu.Unlock()
	return nil
}

func (c *captureConn) Recv() ([]byte, error) {
	<-c.stop
	return nil, ErrClosed
}

func (c *captureConn) Close() error {
	c.once.Do(func() { close(c.stop) })
	return nil
}

// take returns and forgets the last packet sent.
func (c *captureConn) take() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := bytes.Clone(c.last)
	c.last = c.last[:0]
	return p
}

// FuzzCtlTrailer: splitting a trailer off a CTL never panics and gives
// back exactly what sealing put on; a packet with no CTL at its front,
// fewer than TrailerCheck bytes after that CTL, or a check that does not
// match everything before it is dropped, counted in tx.replay_rejections,
// and OnTrailer is handed only the bytes between the CTL's end and the
// check. A station without the hooks is the station with them minus the
// trailer: a hookless receiver answers any packet with the hooked twin's
// reply less its sealed trailer, and a hookless sender handles a CTL
// exactly as its hooked twin handles that CTL sealed with whatever
// followed it as its trailer, and ignores what has no CTL at its front,
// which the hooked twin's protocol never sees.
func FuzzCtlTrailer(f *testing.F) {
	params := func(seed int64) core.Params {
		return core.Params{Epsilon: 1.0 / (1 << 20), Source: bitstr.NewSeededSource(seed)}
	}
	// Seeds: a genuine DATA packet, the CTL that answers it, that CTL
	// sealed with a trailer and with none, and near misses: the check cut
	// short, the trailer grown under the old check, a byte after the
	// check, and a CTL followed by too few bytes or by a wrong check.
	tx, _ := core.NewTransmitter(params(9))
	rx, _ := core.NewReceiver(params(10))
	retry := rx.Retry().Packets[0]
	tx.SendMsg([]byte("seed"))
	data := tx.ReceivePacket(retry).Packets[0]
	ctl := rx.ReceivePacket(data).Packets[0]
	sealed := sealTrailer(append(bytes.Clone(ctl), "ack"...))
	check := sealed[len(sealed)-TrailerCheck:]
	forged := append(append(bytes.Clone(ctl), "ackck"...), check...)
	for _, s := range [][]byte{nil, {0}, {1}, {0xff}, data, ctl, retry, sealed, sealTrailer(bytes.Clone(ctl)),
		sealed[:len(sealed)-1], forged, append(bytes.Clone(sealed), 0), append(bytes.Clone(ctl), 0),
		append(bytes.Clone(ctl), make([]byte, TrailerCheck)...)} {
		f.Add(s)
	}

	// Three station pairs of one seed each, so their protocol states agree:
	// fs/fr frame with the hooks and record what fs hands on, hs/hr and
	// ps/pr are the hooked and the hookless twins. Each sender completes
	// one transfer first, so a CTL repeating its OK vouches. The stations'
	// timers ride a virtual clock nobody advances: a reply is only ever
	// what the packet handed in caused, never a RETRY a challenge
	// extension brought forward landing between HandlePacket and take.
	still := clock.NewVirtual(time.Time{}, 1)
	twin := func(hooked bool, on func([]byte)) (*Sender, *Receiver, *captureConn, *metrics.Registry) {
		reg := metrics.New()
		cfg := SenderConfig{Params: params(1), Metrics: reg}
		rcfg := ReceiverConfig{Params: params(2), RetryInterval: time.Hour, Metrics: reg}
		if hooked {
			cfg.OnTrailer = on
			rcfg.CtlTrailer = func(dst []byte) []byte { return append(dst, "ledger"...) }
		}
		sc, rc := newCaptureConn(), newCaptureConn()
		s, err := NewSender(clockedEndpoint(f, sc, still, reg), cfg)
		if err != nil {
			f.Fatal(err)
		}
		r, err := NewReceiver(clockedEndpoint(f, rc, still, reg), rcfg)
		if err != nil {
			f.Fatal(err)
		}
		r.mu.Lock()
		buf, pkts, batch := r.retryLocked(1, still.Now()) // a RETRY: the challenge
		r.mu.Unlock()
		r.sendRetry(buf, pkts, batch)
		ask := rc.take()
		if len(ask) == 0 {
			f.Fatal("no RETRY")
		}
		s.mu.Lock()
		s.wt.AppendSendMsg(nil, 0, []byte("first"))
		s.mu.Unlock()
		s.handlePacket(ask)
		r.HandlePacket(sc.take())
		ok := rc.take()
		s.handlePacket(ok)
		if s.Stats().OKs != 1 {
			f.Fatalf("the first transfer did not complete: %+v", s.Stats())
		}
		f.Add(ok)
		return s, r, rc, reg
	}
	var handed [][]byte
	fs, fr, _, freg := twin(true, func(tr []byte) { handed = append(handed, bytes.Clone(tr)) })
	hs, hr, hrc, _ := twin(true, func([]byte) {})
	ps, pr, prc, _ := twin(false, nil)
	defer func() {
		for _, c := range []interface{ Close() error }{fs, fr, hs, hr, ps, pr} {
			c.Close()
		}
	}()
	var skew int // packets the hookless sender ignored and its hooked twin refused
	f.Fuzz(func(t *testing.T, p []byte) {
		p = bytes.Clone(p) // the engine's []byte arguments can share one backing array
		c, tr, ok := splitTrailer(p, false)
		_, rest, err := wire.ParseCtl(p)
		if !ok {
			if err == nil && len(rest) >= TrailerCheck && bytes.Equal(sealTrailer(bytes.Clone(p[:len(p)-TrailerCheck])), p) {
				t.Fatalf("% x refused, but a CTL heads it and its check matches", p)
			}
		} else if _, derr := wire.DecodeCtl(c); derr != nil || !bytes.Equal(sealTrailer(append(bytes.Clone(c), tr...)), p) {
			t.Fatalf("% x splits into % x and % x", p, c, tr)
		}

		rejected := freg.Counter(mTxReplayRejections).Value()
		handed = handed[:0]
		fs.handlePacket(p)
		switch {
		case !ok && freg.Counter(mTxReplayRejections).Value() != rejected+1:
			t.Fatalf("% x is refused, but was not counted", p)
		case !ok && len(handed) != 0:
			t.Fatalf("% x is refused, but handed on % x", p, handed)
		case len(handed) > 1 || len(handed) == 1 && !bytes.Equal(handed[0], tr):
			t.Fatalf("% x handed on %q, its trailer is % x", p, handed, tr)
		}
		if err == nil {
			ps.handlePacket(p[:len(p)-len(rest)])
		} else {
			ps.handlePacket(p)
			skew++
		}
		hs.handlePacket(sealTrailer(bytes.Clone(p)))
		hst, pst := hs.Stats(), ps.Stats()
		if pst.Ignored -= skew; hst != pst {
			t.Fatalf("after % x the hookless sender's stats are %+v (%d ignored packets had no CTL), the hooked one's %+v", p, pst, skew, hst)
		}

		hr.HandlePacket(p)
		pr.HandlePacket(p)
		got, want := hrc.take(), prc.take()
		if len(want) > 0 {
			want = sealTrailer(append(want, "ledger"...))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("% x: the hooked receiver replied % x, the hookless one plus its sealed trailer % x", p, got, want)
		}
	})
}
