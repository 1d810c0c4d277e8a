package chaos

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ghm/internal/clock"
	"ghm/internal/core"
	"ghm/internal/engine"
	"ghm/internal/metrics"
	"ghm/internal/netlink"
	"ghm/internal/session"
	"ghm/internal/verify"
)

// SupervisedSoakConfig parameterizes one supervised chaos soak.
type SupervisedSoakConfig struct {
	// Scenario is the fault schedule; generate it with a nonzero
	// GenConfig.Wedges so the watchdog actually earns its keep.
	Scenario Scenario
	// Messages is how many unique payloads to push through (default 200).
	// Filler payloads keep flowing past this count until the fault
	// timeline completes, so every scheduled fault meets live traffic;
	// the fillers count toward end-to-end delivery like everything else.
	Messages int
	// RetryInterval / RetryBackoffMax pace the receiver (defaults 300µs
	// and 32ms, as for Soak).
	RetryInterval   time.Duration
	RetryBackoffMax time.Duration
	// Epsilon is the per-message error probability (0 = protocol default).
	Epsilon float64
	// WatchdogWindow is the session's no-progress window (default 250ms —
	// longer than any generated blackout, shorter than the drain budget).
	WatchdogWindow time.Duration
	// Metrics receives the whole run's counters, including the session.*
	// family. Nil uses metrics.Default().
	Metrics *metrics.Registry
	// Clock virtualizes the soak: link fault schedules, station retries,
	// watchdog windows, the enqueue pace and the fault timeline all ride
	// it (nil = wall clock). A *clock.Virtual needs a driver goroutine
	// advancing it (clock.Virtual.Run) for the soak to make progress.
	Clock clock.Clock
	// Links overrides the default Pipe+Impair link pair — the seam the
	// fabric-backed differential tests and the swarm harness plug into.
	// Nil builds the classic in-process pipe with the scenario's
	// impairments.
	Links LinkBuilder
}

// SupervisedResult summarizes a supervised chaos soak.
type SupervisedResult struct {
	// Report is the live conformance verdict over the real execution,
	// with resubmitted attempts checked per-attempt.
	Report verify.Report
	// Enqueued and Delivered count unique payloads in and distinct
	// payloads seen by the receiving higher layer; Missing lists enqueued
	// payloads that never arrived (empty on success).
	Enqueued  int
	Delivered int
	Missing   []string
	// Stats is the session's final counter snapshot: restarts, wedges,
	// breaker events, health.
	Stats session.Stats
	// Transitions counts health-state transitions observed via Subscribe.
	Transitions int
	// LinkTR and LinkRT are the two impaired directions' fate counters.
	LinkTR, LinkRT netlink.ImpairStats
	// Elapsed is the wall-clock soak time.
	Elapsed time.Duration
}

// SupervisedSoak runs a self-healing session.Session against the
// scenario's fault timeline: the sending station lives under the
// crash-recovery supervisor behind a netlink.SharedConn, so scheduled
// crash^T wipes, link blackouts, loss ramps AND wedge actions (the
// half-dead-socket failure only a progress watchdog can detect) must all
// be absorbed without manual intervention. Payloads are enqueued at a
// steady pace across the timeline; after the timeline completes the
// session flushes its backlog and the run verifies that every enqueued
// payload arrived end-to-end and that the live Section-2.6 conformance
// checker stayed clean.
func SupervisedSoak(ctx context.Context, cfg SupervisedSoakConfig) (SupervisedResult, error) {
	if cfg.Messages <= 0 {
		cfg.Messages = 200
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 300 * time.Microsecond
	}
	if cfg.RetryBackoffMax <= 0 {
		cfg.RetryBackoffMax = 32 * time.Millisecond
	}
	if cfg.WatchdogWindow <= 0 {
		cfg.WatchdogWindow = 250 * time.Millisecond
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default()
	}
	sc := cfg.Scenario
	start := time.Now()
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System()
	}
	// Under an injected clock every engine in the soak shares one wheel
	// riding it; on the wall clock the process-wide default wheel serves,
	// as before.
	var wheel *engine.Wheel
	if cfg.Clock != nil {
		wheel = engine.NewWheelOn(cfg.Clock, 0, 0)
	}

	build := cfg.Links
	if build == nil {
		build = pipeLinks
	}
	links, err := build(sc, reg, cfg.Clock)
	if err != nil {
		return SupervisedResult{}, fmt.Errorf("chaos: links: %w", err)
	}

	// The sending side goes behind a SharedConn: station incarnations
	// attach views, WedgeSender half-kills the live one, and the
	// supervisor's redial attaches a fresh one.
	shared := netlink.NewSharedConnOn(links.TR, wheel)

	// The receiving side rides the same wheel via its own single-view
	// shared conn, so its retry pacing and timestamps follow the clock.
	rshared := netlink.NewSharedConnOn(links.RT, wheel)
	rconn, err := rshared.Attach()
	if err != nil {
		shared.Close()
		rshared.Close()
		return SupervisedResult{}, fmt.Errorf("chaos: %w", err)
	}

	live := &verify.Live{}
	r, err := netlink.NewReceiver(rconn, netlink.ReceiverConfig{
		Params:          core.Params{Epsilon: cfg.Epsilon},
		RetryInterval:   cfg.RetryInterval,
		RetryBackoffMax: cfg.RetryBackoffMax,
		Tap:             live.Observe,
		Metrics:         reg,
	})
	if err != nil {
		shared.Close()
		rshared.Close()
		return SupervisedResult{}, fmt.Errorf("chaos: %w", err)
	}

	sess, err := session.New(session.Config{
		Dial:              shared.Attach,
		Params:            core.Params{Epsilon: cfg.Epsilon},
		Tap:               live.Observe,
		WatchdogWindow:    cfg.WatchdogWindow,
		WatchdogInterval:  cfg.WatchdogWindow / 16,
		RestartBackoff:    5 * time.Millisecond,
		RestartBackoffMax: 80 * time.Millisecond,
		BreakerThreshold:  25,
		BreakerWindow:     30 * time.Second,
		BreakerCooldown:   250 * time.Millisecond,
		Seed:              sc.Seed + 4,
		Wheel:             wheel,
		Metrics:           reg,
	})
	if err != nil {
		r.Close()
		shared.Close()
		rshared.Close()
		return SupervisedResult{}, fmt.Errorf("chaos: %w", err)
	}
	defer func() {
		sess.Close()
		r.Close()
		shared.Close()
		rshared.Close()
	}()

	var res SupervisedResult
	transitions := sess.Subscribe()
	trDone := make(chan int, 1)
	go func() {
		n := 0
		for range transitions {
			n++
		}
		trDone <- n
	}()

	// Drain deliveries into a set: across restarts delivery is
	// at-least-once, so distinct coverage is the end-to-end claim.
	var (
		mu        sync.Mutex
		delivered = map[string]bool{}
	)
	drainCtx, stopDrain := context.WithCancel(context.Background())
	defer stopDrain()
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		for {
			msg, err := r.Recv(drainCtx)
			if err != nil {
				return
			}
			mu.Lock()
			delivered[string(msg)] = true
			mu.Unlock()
		}
	}()

	// Fault timeline, concurrent with the traffic.
	timeline := make(chan error, 1)
	go func() {
		timeline <- Run(ctx, sc, Targets{
			Sender:   sess,
			Receiver: r,
			Links:    []Controllable{links.TR, links.RT},
			Shared:   shared,
			Clock:    cfg.Clock,
			Metrics:  reg,
		})
	}()

	// Enqueue at a steady pace spread across the timeline, continuing
	// with filler until every scheduled fault has fired.
	pace := sc.Duration / time.Duration(cfg.Messages)
	if pace <= 0 {
		pace = time.Millisecond
	}
	var enqueued []string
	timelineDone := false
	pt := clk.NewTimer(pace)
	defer pt.Stop()
	for i := 0; i < cfg.Messages || !timelineDone; i++ {
		msg := fmt.Sprintf("sm-%08d", i)
		if _, err := sess.Enqueue([]byte(msg)); err != nil {
			return res, fmt.Errorf("chaos: supervised enqueue %d: %w", i, err)
		}
		enqueued = append(enqueued, msg)
		if !timelineDone {
			select {
			case err := <-timeline:
				if err != nil {
					return res, fmt.Errorf("chaos: timeline: %w", err)
				}
				timelineDone = true
			case <-pt.C():
				pt.Reset(pace)
			}
		}
	}
	res.Enqueued = len(enqueued)

	// Self-healing is the claim: no manual intervention, just wait.
	if err := sess.Flush(ctx); err != nil {
		return res, fmt.Errorf("chaos: supervised flush: %w (stats %+v)", err, sess.Stats())
	}

	// Flush returns on the last OK commit; give the receiver's drain
	// goroutine a moment to pick the tail out of its delivery buffer.
	for {
		mu.Lock()
		n := 0
		for _, m := range enqueued {
			if delivered[m] {
				n++
			}
		}
		mu.Unlock()
		if n == len(enqueued) || ctx.Err() != nil {
			break
		}
		// Clock-driven wait: under a virtual clock this poll consumes
		// virtual time only, instead of busy-spinning real CPU.
		clock.Wait(clk, 2*time.Millisecond, ctx.Done())
	}

	res.Stats = sess.Stats()
	sess.Close()
	r.Close()
	shared.Close()
	stopDrain()
	<-drainDone
	res.Transitions = <-trDone

	mu.Lock()
	res.Delivered = len(delivered)
	for _, m := range enqueued {
		if !delivered[m] {
			res.Missing = append(res.Missing, m)
		}
	}
	mu.Unlock()
	res.LinkTR = links.TR.Stats()
	res.LinkRT = links.RT.Stats()
	res.Report = live.Report()
	res.Elapsed = time.Since(start)
	return res, nil
}
