package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ghm/internal/clock"
	"ghm/internal/metrics"
	"ghm/internal/netlink"
	"ghm/internal/relay"
	"ghm/internal/session"
	"ghm/internal/verify"
)

// The stations' pacing and the supervisor's and mesh's backstops, one
// set for every family: chaos runs want fast recovery, not quiet idle
// links. The mesh passes none of them, because relay's defaults are
// these values.
const (
	// retryInterval paces each receiver's RETRY.
	retryInterval = 300 * time.Microsecond
	// retryBackoffMax caps its adaptive backoff, so blackout windows do
	// not burn retry traffic.
	retryBackoffMax = 32 * time.Millisecond
	// watchdogWindow is a supervised sender's no-progress window: longer
	// than any generated blackout, shorter than the drain budget.
	watchdogWindow = 250 * time.Millisecond
)

// Env is what a run needs besides its scenario.
type Env struct {
	// Messages is how many unique payloads to push through (default
	// 200). Filler payloads keep flowing past this count until the fault
	// timeline completes, so every scheduled fault meets live traffic.
	Messages int
	// Epsilon is the per-message (per hop, in a mesh) error probability;
	// 0 is the protocol default.
	Epsilon float64
	// Clock virtualizes the run: link delays and fault schedules, station
	// retries, watchdog windows, the attacker's steps, the submission pace
	// and the fault timeline all ride it (nil = wall clock). A
	// *clock.Virtual needs a driver goroutine advancing it
	// (clock.Virtual.Run) for the run to make progress. Every link is an
	// impaired in-process pipe (newLink) whichever the clock.
	Clock clock.Clock
	// WALDir, when set, gives every hop a mesh's routes use a forwarding
	// WAL, so a crashed relay node replays its accepted backlog on
	// restart.
	WALDir string
	// Metrics receives the whole run's counters: the stations' tx.*/rx.*,
	// the links' link.*, and the session.*, relay.*, adversary.* and
	// chaos.* families. Nil uses metrics.Default().
	Metrics *metrics.Registry
}

// Result is what one run observed.
type Result struct {
	// Report is the live Section 2.6 verdict over a link scenario's two
	// stations; a supervised sender's attempts are checked one by one.
	Report verify.Report
	// The delivery ledger. Enqueued counts the unique payloads handed to
	// the sending side, reissues included; Delivered counts the distinct
	// payloads the receiving higher layer saw. Missing lists the payloads
	// owed but never delivered — every enqueued one except those a
	// crash^T wiped mid-send — and Duplicates counts deliveries beyond
	// the first of each payload.
	Enqueued   int
	Delivered  int
	Missing    []string
	Duplicates int
	// Abandoned counts sends of a bare station wiped mid-flight by a
	// crash^T, scheduled or the attacker's. Each joins the paper's
	// M_alpha set and is reissued under a fresh payload: reusing it would
	// turn a legitimate late delivery into a false replay violation.
	Abandoned int
	// LinkTR and LinkRT are a link scenario's two directions' fate
	// counters, for cross-checking the faults injected against the drops
	// the link.* metrics observed.
	LinkTR, LinkRT netlink.ImpairStats
	// Attacker is what an adversary scenario's attacker-in-the-middle
	// observed, captured, mounted and landed.
	Attacker netlink.AttackerStats
	// Session is a supervised sender's final counters (restarts, wedges,
	// start failures, health) and Transitions the health transitions it
	// published.
	Session     session.Stats
	Transitions int
	// Mesh is a mesh's final counters; HopReports is the live Section 2.6
	// report of every hop a route uses, keyed "from->to", and HopViolations totals
	// their violations.
	Mesh          relay.Stats
	HopReports    map[string]verify.Report
	HopViolations int
	// Elapsed is the wall-clock run time.
	Elapsed time.Duration

	sc Scenario
}

// Err states the run's verdict, each family's claim: a link's live
// report is clean; an adversary's too, with at least one attack mounted;
// a supervised sender's too, with nothing missing; a mesh's hops are all
// clean and every payload arrived exactly once.
func (r Result) Err() error {
	if r.sc.Mesh != nil {
		switch {
		case r.HopViolations > 0:
			return fmt.Errorf("chaos: %d per-hop conformance violations in a live mesh execution", r.HopViolations)
		case r.Duplicates > 0:
			return fmt.Errorf("chaos: exactly-once violated: %d duplicate end-to-end deliveries", r.Duplicates)
		case len(r.Missing) > 0:
			return fmt.Errorf("chaos: %d enqueued payloads never delivered", len(r.Missing))
		}
		return nil
	}
	switch {
	case !r.Report.Clean():
		return fmt.Errorf("chaos: %d conformance violations in a live execution", r.Report.Violations())
	case r.sc.Adversary != nil && r.Attacker.Mounted == 0:
		return errors.New("chaos: the adversary mounted no attacks — the run tested nothing")
	case r.sc.Supervised() && len(r.Missing) > 0:
		return fmt.Errorf("chaos: %d enqueued payloads never delivered", len(r.Missing))
	}
	return nil
}

// system is one family's live system as Run drives it: a link's two
// stations (linkSystem) or a relay mesh (meshSystem).
type system interface {
	// send hands one payload to the sending side. A bare station returns
	// once the receiver confirmed it, or netlink.ErrCrashed when a
	// crash^T wiped it; a session or mesh queues it and returns.
	send(ctx context.Context, payload []byte) error
	// queued reports whether send only queues: Run then paces the
	// payloads across the timeline and flushes the backlog at the end.
	queued() bool
	// flush waits until everything queued is confirmed.
	flush(ctx context.Context) error
	// recv returns the receiving higher layer's next payload, and false
	// once the system is closed and drained.
	recv() ([]byte, bool)
	// apply carries out one timeline action.
	apply(Action)
	// close tears the system down, recording first what dies with it.
	// It is called once, and also on a partly built system.
	close()
	// result copies the system's counters into res; called after close.
	result(res *Result)
}

// Run executes the scenario against the live system it describes and
// returns what the run observed; Result.Err is its verdict. The fault
// timeline executes concurrently with the traffic, which keeps flowing
// until both env.Messages payloads are in and the timeline is done. A
// session or mesh then flushes its backlog, and Run waits until the
// destination saw every payload, or ctx ends.
//
// The error reports a run that could not be carried out: an invalid
// scenario or environment, a failed send, a timeline or flush cut
// short by ctx.
func Run(ctx context.Context, sc Scenario, env Env) (Result, error) {
	if err := sc.validate(); err != nil {
		return Result{}, err
	}
	if env.Messages <= 0 {
		env.Messages = 200
	}
	if env.Metrics == nil {
		env.Metrics = metrics.Default()
	}
	clk := env.Clock
	if clk == nil {
		clk = clock.System()
	}
	start := time.Now()
	res := Result{sc: sc}

	var (
		sys system
		err error
	)
	if sc.Mesh != nil {
		sys, err = newMeshSystem(sc, env)
	} else {
		sys, err = newLinkSystem(sc, env)
	}
	if err != nil {
		return res, fmt.Errorf("chaos: %w", err)
	}
	led := &ledger{count: map[string]int{}, wiped: map[string]bool{}}
	delivered := env.Metrics.Counter(mChaosDelivered)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			p, ok := sys.recv()
			if !ok {
				return
			}
			led.deliver(p)
			delivered.Inc()
		}
	}()
	tornDown := false
	teardown := func() {
		if !tornDown {
			tornDown = true
			sys.close()
			<-drained
		}
	}
	defer teardown()

	tctx, stopTimeline := context.WithCancel(ctx)
	timelineErr := make(chan error, 1)
	go func() { timelineErr <- timeline(tctx, sc, clk, env.Metrics, sys.apply) }()
	timelineDone := false
	defer func() {
		stopTimeline()
		if !timelineDone {
			<-timelineErr
		}
	}()

	// A queue's payloads are paced evenly across the timeline; a bare
	// station's go back to back, each as soon as the last is confirmed.
	pace := sc.Duration / time.Duration(env.Messages)
	if pace <= 0 {
		pace = time.Millisecond
	}
	var pt clock.Timer
	if sys.queued() {
		pt = clk.NewTimer(pace)
		defer pt.Stop()
	}
	var (
		sends     = env.Metrics.Counter(mChaosSends)
		abandoned = env.Metrics.Counter(mChaosAbandoned)
	)
	for i := 0; i < env.Messages || !timelineDone; i++ {
		msg := fmt.Sprintf("m-%08d", i)
		for attempt := 1; ; attempt++ {
			sends.Inc()
			led.add(msg)
			err := sys.send(ctx, []byte(msg))
			if err == nil {
				break
			}
			if !errors.Is(err, netlink.ErrCrashed) {
				return res, fmt.Errorf("chaos: send %d: %w", i, err)
			}
			led.wipe(msg)
			abandoned.Inc()
			res.Abandoned++
			msg = fmt.Sprintf("m-%08d.r%d", i, attempt)
		}
		if timelineDone {
			continue
		}
		var err error
		if pt == nil {
			select {
			case err = <-timelineErr:
				timelineDone = true
			default:
			}
		} else {
			select {
			case err = <-timelineErr:
				timelineDone = true
			case <-pt.C():
				pt.Reset(pace)
			}
		}
		if err != nil {
			return res, fmt.Errorf("chaos: timeline: %w", err)
		}
	}

	if sys.queued() {
		// Self-healing is the claim: no intervention, just wait.
		if err := sys.flush(ctx); err != nil {
			return res, fmt.Errorf("chaos: flush: %w", err)
		}
		// Flush returns on the last confirmation; give the delivery drain
		// a moment to pick the tail up. Under a virtual clock the wait
		// consumes virtual time only.
		for led.owed() > 0 && ctx.Err() == nil {
			clock.Wait(clk, 2*time.Millisecond, ctx.Done())
		}
	}

	teardown()
	sys.result(&res)
	led.fill(&res)
	res.Elapsed = time.Since(start)
	return res, nil
}

// ledger is a run's delivery record: every payload handed to the
// sending side, and how many times each arrived.
type ledger struct {
	mu    sync.Mutex
	sent  []string        // in submission order
	count map[string]int  // deliveries per payload
	wiped map[string]bool // sends a crash^T wiped: owed no delivery
}

func (l *ledger) add(p string) {
	l.mu.Lock()
	l.sent = append(l.sent, p)
	l.mu.Unlock()
}

func (l *ledger) wipe(p string) {
	l.mu.Lock()
	l.wiped[p] = true
	l.mu.Unlock()
}

func (l *ledger) deliver(p []byte) {
	l.mu.Lock()
	l.count[string(p)]++
	l.mu.Unlock()
}

// owed counts the payloads owed a delivery that have not had one.
func (l *ledger) owed() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, p := range l.sent {
		if l.count[p] == 0 && !l.wiped[p] {
			n++
		}
	}
	return n
}

func (l *ledger) fill(res *Result) {
	l.mu.Lock()
	defer l.mu.Unlock()
	res.Enqueued = len(l.sent)
	res.Delivered = len(l.count)
	for _, p := range l.sent {
		switch n := l.count[p]; {
		case n == 0 && !l.wiped[p]:
			res.Missing = append(res.Missing, p)
		case n > 1:
			res.Duplicates += n - 1
		}
	}
}
