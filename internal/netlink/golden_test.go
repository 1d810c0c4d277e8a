package netlink

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"ghm/internal/bitstr"
	"ghm/internal/clock"
	"ghm/internal/core"
	"ghm/internal/engine"
	"ghm/internal/metrics"
	"ghm/internal/trace"
)

// The golden trace pins what "depth 1 is the paper's station" means in
// bytes. testdata/station_k1.golden.json was recorded by this very driver
// at the commit before the one-station merge, against the single-slot
// Sender/Receiver that merge deleted; the depth-1 station must reproduce
// it entry for entry: every packet either station puts on its conn, every
// tap event, every Send and Recv result, the closing counters.
//
// The run is deterministic by construction. Both stations draw from seeded
// sources; the conns deliver nothing on their own (Recv blocks until
// Close) and the stations ride a virtual clock that nobody advances, so no
// timer ever fires — not the retry timer, and not when a replay extends the
// challenge and makes RETRY due at once — and the only inputs a station
// ever sees are the ones the script hands to handlePacket and to the RETRY
// action (retryLocked: the pacing in retryTick is not the legacy station's,
// its bytes are) on the test goroutine. A Send runs on a goroutine of its
// own until it parks or returns; the script waits for the entries it
// causes.

var updateGolden = flag.Bool("update-golden", false, "re-record testdata/station_k1.golden.json from the stations in this checkout")

const goldenPath = "testdata/station_k1.golden.json"

// goldenStep is one script step and the trace entries it caused.
type goldenStep struct {
	Step string   `json:"step"`
	Log  []string `json:"log"`
}

// goldenLog collects trace entries from both stations' conns and taps.
type goldenLog struct {
	mu      sync.Mutex
	entries []string
	tr, rt  [][]byte // every packet sent so far, per direction
}

func (l *goldenLog) add(format string, args ...any) {
	l.mu.Lock()
	l.entries = append(l.entries, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *goldenLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

func (l *goldenLog) tap(station string) Tap {
	return func(k trace.Kind, msg []byte, slot int) {
		l.add("tap %s %v %q slot=%d", station, k, msg, slot)
	}
}

// goldenConn records what a station sends and never delivers anything.
type goldenConn struct {
	log    *goldenLog
	dir    string
	closed chan struct{}
	once   sync.Once
}

func (c *goldenConn) Send(p []byte) error {
	cp := append([]byte(nil), p...)
	c.log.mu.Lock()
	c.log.entries = append(c.log.entries, c.dir+" "+hex.EncodeToString(cp))
	if c.dir == "T>R" {
		c.log.tr = append(c.log.tr, cp)
	} else {
		c.log.rt = append(c.log.rt, cp)
	}
	c.log.mu.Unlock()
	return nil
}

func (c *goldenConn) Recv() ([]byte, error) {
	<-c.closed
	return nil, ErrClosed
}

func (c *goldenConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// goldenEndpoint puts a goldenConn under an endpoint whose wheel rides clk.
func goldenEndpoint(t *testing.T, log *goldenLog, dir string, clk *clock.Virtual, reg *metrics.Registry) *engine.Endpoint {
	return clockedEndpoint(t, &goldenConn{log: log, dir: dir, closed: make(chan struct{})}, clk, reg)
}

// clockedEndpoint puts conn under a raw engine of its own — what a station
// builds over a bare conn, packets unmodified — whose wheel rides clk (a
// virtual wheel has no goroutine to stop). On a clock nobody advances, a
// station's timers never fire: what it sends is what the test makes it send.
func clockedEndpoint(tb testing.TB, conn PacketConn, clk *clock.Virtual, reg *metrics.Registry) *engine.Endpoint {
	cfg := engine.Config{Raw: true, Metrics: reg, Wheel: engine.NewWheelOn(clk, 0, 0)}
	eng := engine.New(conn, cfg)
	tb.Cleanup(func() { eng.Close() })
	ep, err := eng.Endpoint(0)
	if err != nil {
		tb.Fatal(err)
	}
	return ep
}

func TestStationGoldenTraceDepth1(t *testing.T) {
	var want []goldenStep
	if !*updateGolden {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}

	log := &goldenLog{}
	reg := metrics.New()
	still := clock.NewVirtual(time.Time{}, 1)
	s, err := NewSender(goldenEndpoint(t, log, "T>R", still, reg), SenderConfig{
		Params:  core.Params{Source: bitstr.NewSeededSource(1)},
		Tap:     log.tap("T"),
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := NewReceiver(goldenEndpoint(t, log, "R>T", still, reg), ReceiverConfig{
		Params:  core.Params{Source: bitstr.NewSeededSource(2)},
		Tap:     log.tap("R"),
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var got []goldenStep
	// step runs fn, waits for the entries it causes — as many as the
	// golden file says when verifying, until the log goes quiet when
	// recording — and files them under name.
	step := func(name string, fn func()) {
		t.Helper()
		from := log.len()
		fn()
		if *updateGolden {
			for n, quiet := log.len(), 0; quiet < 20; {
				time.Sleep(2 * time.Millisecond)
				if m := log.len(); m != n {
					n, quiet = m, 0
				} else {
					quiet++
				}
			}
		} else if i := len(got); i < len(want) {
			deadline := time.Now().Add(5 * time.Second)
			for log.len() < from+len(want[i].Log) && time.Now().Before(deadline) {
				time.Sleep(50 * time.Microsecond)
			}
		}
		log.mu.Lock()
		entries := append([]string{}, log.entries[from:]...)
		log.mu.Unlock()
		got = append(got, goldenStep{Step: name, Log: entries})
		if i := len(got) - 1; !*updateGolden && (i >= len(want) || !reflect.DeepEqual(got[i], want[i])) {
			var w any = "no such step"
			if i < len(want) {
				w = want[i]
			}
			t.Fatalf("step %d diverges from the legacy station\n got: %+v\nwant: %+v", i, got[i], w)
		}
	}

	// The script's verbs.
	// pkt returns the i-th packet sent in a direction; negative i counts
	// from the latest.
	pkt := func(dir *[][]byte, i int) []byte {
		log.mu.Lock()
		defer log.mu.Unlock()
		if i < 0 {
			i += len(*dir)
		}
		return (*dir)[i]
	}
	lastTR := func() []byte { return pkt(&log.tr, -1) }
	lastRT := func() []byte { return pkt(&log.rt, -1) }
	retry := func() {
		step("retry", func() {
			r.mu.Lock()
			buf, pkts, batch := r.retryLocked(1, still.Now())
			r.mu.Unlock()
			r.sendRetry(buf, pkts, batch)
		})
	}
	toR := func(name string, p []byte) { step(name, func() { r.handlePacket(p) }) }
	toT := func(name string, p []byte) { step(name, func() { s.handlePacket(p) }) }
	sends := make(map[string]chan struct{})
	send := func(ctx context.Context, msg string) {
		done := make(chan struct{})
		sends[msg] = done
		step("send "+msg, func() {
			go func() {
				defer close(done)
				log.add("send %s -> %v", msg, s.Send(ctx, []byte(msg)))
			}()
		})
	}
	// roundTrip carries the DATA on the wire to R and R's reply to T.
	roundTrip := func() {
		toR("deliver DATA", lastTR())
		toT("deliver CTL", lastRT())
	}
	recv := func() {
		step("recv", func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			m, err := r.Recv(ctx)
			log.add("recv -> %q %v", m, err)
		})
	}
	bg := context.Background()

	// 1. A fresh pair: the first message waits for the first challenge.
	send(bg, "m1")
	retry()
	toT("deliver CTL", lastRT())
	roundTrip()
	recv()
	// 2. The second message answers the challenge the OK carried, eagerly.
	send(bg, "m2")
	roundTrip()
	recv()
	// 3. Same-length stale replays at R: the challenge extends, and the
	// next exchange runs on the longer string.
	oldData := pkt(&log.tr, 0)
	toR("replay DATA m1", oldData)
	toR("replay DATA m1", oldData)
	send(bg, "m3")
	toR("deliver DATA (pre-extension challenge)", lastTR())
	retry()
	toT("deliver CTL", lastRT())
	roundTrip()
	recv()
	// 4. Same-length stale replays at T while it is busy: the tag extends.
	send(bg, "m4")
	oldCtl := pkt(&log.rt, 1)
	toT("replay CTL m1", oldCtl)
	toT("replay CTL m1", oldCtl)
	retry()
	toT("deliver CTL", lastRT())
	toR("deliver DATA", lastTR())
	toR("duplicate DATA", lastTR())
	toT("deliver CTL", lastRT())
	toT("duplicate CTL", lastRT())
	recv()
	// 5. crash^T with a transfer in flight: the Send fails, the DATA already
	// on the wire still delivers, and its ack finds an erased station.
	send(bg, "m5")
	inFlight := lastTR()
	step("crash T", func() { s.Crash(); <-sends["m5"] })
	toR("deliver DATA (sent before crash^T)", inFlight)
	toT("deliver CTL", lastRT())
	recv()
	// The next Send starts fresh: no challenge known, nothing leaves.
	send(bg, "m6")
	retry()
	toT("deliver CTL", lastRT())
	roundTrip()
	recv()
	// 6. crash^R between messages, then mid-transfer. The reborn receiver
	// counts its retries from 1 again, so its first CTL is throttled.
	step("crash R", r.Crash)
	send(bg, "m7")
	toR("deliver DATA (stale challenge)", lastTR())
	retry()
	toT("deliver CTL (throttled)", lastRT())
	retry()
	toT("deliver CTL", lastRT())
	toR("deliver DATA", lastTR())
	step("crash R", r.Crash)
	toT("deliver CTL (sent before crash^R)", lastRT())
	recv()
	// 7. A cancelled Send is crash^T; the one after it starts fresh.
	ctx, cancel := context.WithCancel(bg)
	send(ctx, "m8")
	step("cancel m8", func() { cancel(); <-sends["m8"] })
	send(bg, "m9")
	retry()
	toT("deliver CTL", lastRT())
	roundTrip()
	recv()
	// 8. Junk, then the books.
	toR("junk", []byte{0xff, 0xff, 0xff})
	toT("junk", []byte{})
	step("stats", func() {
		log.add("tx stats %+v", s.Stats())
		log.add("rx stats %+v", r.Stats())
		snap := reg.Snapshot()
		for _, name := range []string{
			mTxSendMsgs, mTxOKs, mTxCrashes, mTxAbandoned, mTxPacketsSent, mTxPacketsReceived,
			mTxErrorsCounted, mTxTagExtensions, mTxReplayRejections,
			mRxDelivered, mRxCrashes, mRxPacketsSent, mRxPacketsReceived, mRxErrorsCounted,
			mRxChallengeExts, mRxReplayRejections, mRxRetries, mRxDeliveriesDropped, mRxIngressShed,
		} {
			log.add("%s %d", name, snap.Counters[name])
		}
	})
	step("close", func() { s.Close(); r.Close() })

	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("script ran %d steps, golden file has %d", len(got), len(want))
	}
}
