package chaos

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ghm/internal/core"
	"ghm/internal/metrics"
	"ghm/internal/netlink"
	"ghm/internal/verify"
)

// SoakConfig parameterizes one live chaos soak.
type SoakConfig struct {
	// Scenario is the fault schedule to execute (see Generate).
	Scenario Scenario
	// Messages is how many unique payloads to push through (default 500).
	Messages int
	// RetryInterval paces the receiver (default 300µs — chaos runs want
	// fast recovery, not quiet idle links).
	RetryInterval time.Duration
	// RetryBackoffMax enables the receiver's adaptive retry pacing
	// (default 32ms; blackout windows would otherwise burn retry traffic).
	RetryBackoffMax time.Duration
	// Epsilon is the per-message error probability (0 = protocol default).
	Epsilon float64
	// Metrics receives the whole run's counters: the stations' tx.*/rx.*
	// families, both link directions aggregated under "link.", and the
	// chaos.* injection counts. Nil uses metrics.Default().
	Metrics *metrics.Registry
}

// SoakResult summarizes a live chaos soak.
type SoakResult struct {
	// Report is the live conformance checker's verdict over the real
	// execution: causality, order, no-duplication and no-replay.
	Report verify.Report
	// Delivered counts messages handed to the receiving higher layer.
	Delivered int
	// Abandoned counts sends wiped mid-flight by a scheduled crash^T and
	// reissued under a fresh message id.
	Abandoned int
	// LinkTR and LinkRT are the two impaired directions' fate counters,
	// for cross-checking the faults the run injected against the drops
	// the metrics registry observed.
	LinkTR, LinkRT netlink.ImpairStats
	// Elapsed is the wall-clock soak time.
	Elapsed time.Duration
}

// Soak runs a live Sender/Receiver pair over a seeded impaired in-process
// link while the scenario's crash/blackout/loss timeline executes against
// them, with both stations' event taps feeding a verify.Live checker. It
// pumps cfg.Messages unique payloads (continuing with filler traffic
// until the timeline completes, so every scheduled fault meets live
// traffic) and returns the conformance report over the real execution.
//
// A send wiped by a scheduled crash^T is reissued under a fresh message
// id: the original joins the paper's M_alpha set of abandoned messages,
// and reusing its id would turn a legitimate late delivery into a
// false replay violation.
func Soak(ctx context.Context, cfg SoakConfig) (SoakResult, error) {
	if cfg.Messages <= 0 {
		cfg.Messages = 500
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 300 * time.Microsecond
	}
	if cfg.RetryBackoffMax <= 0 {
		cfg.RetryBackoffMax = 32 * time.Millisecond
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default()
	}
	sc := cfg.Scenario
	start := time.Now()

	la, lb := impairedPipe(sc.Link, sc.Seed+1, reg, nil)

	live := &verify.Live{}
	s, err := netlink.NewSender(la, netlink.SenderConfig{
		Params:  core.Params{Epsilon: cfg.Epsilon},
		Tap:     live.Observe,
		Metrics: reg,
	})
	if err != nil {
		la.Close()
		return SoakResult{}, fmt.Errorf("chaos: %w", err)
	}
	r, err := netlink.NewReceiver(lb, netlink.ReceiverConfig{
		Params:          core.Params{Epsilon: cfg.Epsilon},
		RetryInterval:   cfg.RetryInterval,
		RetryBackoffMax: cfg.RetryBackoffMax,
		Tap:             live.Observe,
		Metrics:         reg,
	})
	if err != nil {
		s.Close()
		return SoakResult{}, fmt.Errorf("chaos: %w", err)
	}
	defer func() {
		s.Close()
		r.Close()
	}()

	// Drain deliveries so backpressure never wedges the protocol loop.
	drainCtx, stopDrain := context.WithCancel(context.Background())
	defer stopDrain()
	drained := make(chan int, 1)
	go func() {
		n := 0
		for {
			if _, err := r.Recv(drainCtx); err != nil {
				drained <- n
				return
			}
			n++
		}
	}()

	// Execute the fault timeline concurrently with the traffic.
	timeline := make(chan error, 1)
	go func() {
		timeline <- Run(ctx, sc, Targets{
			Sender:   s,
			Receiver: r,
			Links:    []Controllable{la, lb},
			Metrics:  reg,
		})
	}()

	var (
		sendsCtr     = reg.Counter(mChaosSends)
		abandonedCtr = reg.Counter(mChaosAbandoned)
		deliveredCtr = reg.Counter(mChaosDelivered)
	)
	var res SoakResult
	timelineDone := false
	for i := 0; i < cfg.Messages || !timelineDone; i++ {
		msg := fmt.Sprintf("m-%08d", i)
		for attempt := 0; ; attempt++ {
			sendsCtr.Inc()
			err := s.Send(ctx, []byte(msg))
			if err == nil {
				break
			}
			if errors.Is(err, netlink.ErrCrashed) {
				res.Abandoned++
				abandonedCtr.Inc()
				msg = fmt.Sprintf("m-%08d.r%d", i, attempt+1)
				continue
			}
			return res, fmt.Errorf("chaos: soak send %d: %w", i, err)
		}
		if !timelineDone {
			select {
			case err := <-timeline:
				if err != nil {
					return res, fmt.Errorf("chaos: timeline: %w", err)
				}
				timelineDone = true
			default:
			}
		}
	}
	if !timelineDone {
		if err := <-timeline; err != nil {
			return res, fmt.Errorf("chaos: timeline: %w", err)
		}
	}

	// Let the last deliveries drain, then collect the verdict.
	s.Close()
	r.Close()
	stopDrain()
	res.Delivered = <-drained
	deliveredCtr.Add(int64(res.Delivered))
	res.LinkTR = la.Stats()
	res.LinkRT = lb.Stats()
	res.Report = live.Report()
	res.Elapsed = time.Since(start)
	return res, nil
}
