package chaos

import (
	"context"
	"fmt"
	"time"

	"ghm/internal/adversary"
	"ghm/internal/clock"
	"ghm/internal/core"
	"ghm/internal/engine"
	"ghm/internal/fabric"
	"ghm/internal/metrics"
	"ghm/internal/netlink"
	"ghm/internal/session"
	"ghm/internal/trace"
	"ghm/internal/verify"
)

// SoakLink is one direction of a chaos link as a run consumes it: the
// conn a station sends on, the runtime controls the fault timeline
// drives, and the fate counters for the result. netlink.ImpairedConn and
// fabric.Port both are one.
type SoakLink interface {
	netlink.PacketConn
	SetBlackout(on bool)
	SetLoss(p float64)
	Stats() netlink.ImpairStats
}

// SoakLinks is one bidirectional chaos link: the sender-side (TR) and
// receiver-side (RT) ends.
type SoakLinks struct{ TR, RT SoakLink }

// LinkBuilder builds one link of a run for a scenario. Implementations
// must honor the scenario's link impairments and seed so runs stay
// reproducible, and must put any internal pacing on clk. A mesh calls it
// once per topology link, with the scenario's seed advanced by two per
// link.
type LinkBuilder func(sc Scenario, reg *metrics.Registry, clk clock.Clock) (SoakLinks, error)

// pipeLinks is the default LinkBuilder: a perfect in-process pipe with
// the scenario's profile on a seeded impairment stage at each end.
// Everything a scenario can inject or ramp lives in those stages, where
// it is counted under reg's "link." prefix (both directions share it:
// link totals) — so injected faults stay cross-checkable against the
// link.* metrics, and a scheduled SetLoss restore of the nominal loss
// lands on the knob the nominal loss started on.
func pipeLinks(sc Scenario, reg *metrics.Registry, clk clock.Clock) (SoakLinks, error) {
	pa, pb := netlink.Pipe(netlink.PipeConfig{Clock: clk})
	ic := netlink.ImpairConfig{LinkModel: sc.Link, Seed: sc.Seed + 1, Clock: clk, Metrics: reg}
	a := netlink.Impair(pa, ic)
	ic.Seed++
	return SoakLinks{TR: a, RT: netlink.Impair(pb, ic)}, nil
}

// FabricLinks is a LinkBuilder backed by the in-memory fabric: the same
// link model as the default pipe, run by the fabric's driver — no
// goroutines of its own, every delivery a clock event. Under a
// *clock.Virtual the whole link runs in virtual time, which is what the
// differential tests exercise: a scenario run on real pipes and on the
// virtual fabric must deliver the same payloads and verify equally
// clean.
func FabricLinks(sc Scenario, reg *metrics.Registry, clk clock.Clock) (SoakLinks, error) {
	f := fabric.New(fabric.Config{Clock: clk, Seed: sc.Seed + 1})
	a, b := f.Link(fabric.LinkConfig{LinkModel: sc.Link})
	return SoakLinks{TR: a, RT: b}, nil
}

// linkSystem is a link scenario's live system: a Sender and a Receiver,
// each on a view of a SharedConn over its end of the link, both taps
// feeding one live checker. The sender is a bare station, or, when the
// scenario schedules a wedge, a self-healing session that redials the
// shared conn. An adversary scenario's attacker sits between the shared
// conns and the impaired link, so its replays traverse (and are
// re-impaired by) the same faulty link as the originals.
type linkSystem struct {
	links  SoakLinks
	wheel  *engine.Wheel // nil = the process-wide wheel
	att    *netlink.Attacker
	tx, rx *netlink.SharedConn
	r      *netlink.Receiver
	s      *netlink.Sender
	sess   *session.Session
	live   verify.Live

	sessStats session.Stats // recorded by close, before the session dies
}

func newLinkSystem(sc Scenario, env Env) (_ *linkSystem, err error) {
	k := &linkSystem{}
	defer func() {
		if err != nil {
			k.close()
		}
	}()
	var strategy adversary.Adversary
	if sc.Adversary != nil {
		if strategy, err = sc.Adversary.Build(sc.Seed); err != nil {
			return nil, err
		}
	}
	// Under an injected clock every engine of the run shares one wheel
	// riding it; on the wall clock the process-wide wheel serves.
	if env.Clock != nil {
		k.wheel = engine.NewWheelOn(env.Clock, 0, 0)
	}
	if k.links, err = env.Links(sc, env.Metrics, env.Clock); err != nil {
		return nil, fmt.Errorf("links: %w", err)
	}
	var tr, rt netlink.PacketConn = k.links.TR, k.links.RT
	if strategy != nil {
		tick := sc.Adversary.Tick
		if tick <= 0 {
			tick = 500 * time.Microsecond
		}
		k.att = netlink.NewAttacker(netlink.AttackerConfig{
			Strategy: strategy,
			Tick:     tick,
			Capture:  sc.Adversary.Capture,
			Clock:    env.Clock,
			Metrics:  env.Metrics,
		})
		tr, rt = k.att.Wrap(tr, trace.DirTR), k.att.Wrap(rt, trace.DirRT)
	}
	// The shared conns own the link from here on: closing them closes it.
	k.tx = netlink.NewSharedConnOn(tr, k.wheel)
	k.rx = netlink.NewSharedConnOn(rt, k.wheel)

	params := core.Params{Epsilon: env.Epsilon}
	rconn, err := k.rx.Attach()
	if err != nil {
		return nil, err
	}
	if k.r, err = netlink.NewReceiver(rconn, netlink.ReceiverConfig{
		Params:          params,
		RetryInterval:   retryInterval,
		RetryBackoffMax: retryBackoffMax,
		Tap:             k.live.Observe,
		Metrics:         env.Metrics,
	}); err != nil {
		return nil, err
	}
	if sc.Supervised() {
		if k.sess, err = session.New(session.Config{
			Dial:              k.tx.Attach,
			Params:            params,
			Tap:               k.live.Observe,
			WatchdogWindow:    watchdogWindow,
			WatchdogInterval:  watchdogWindow / 16,
			RestartBackoff:    5 * time.Millisecond,
			RestartBackoffMax: 80 * time.Millisecond,
			Seed:              sc.Seed + 4,
			Wheel:             k.wheel,
			Metrics:           env.Metrics,
		}); err != nil {
			return nil, err
		}
	} else {
		tconn, err := k.tx.Attach()
		if err != nil {
			return nil, err
		}
		if k.s, err = netlink.NewSender(tconn, netlink.SenderConfig{
			Params:  params,
			Tap:     k.live.Observe,
			Metrics: env.Metrics,
		}); err != nil {
			tconn.Close()
			return nil, err
		}
	}
	if k.att != nil {
		// The strategy's length-keyed crash timing hits the real stations.
		k.att.SetCrashHooks(k.crashSender, k.r.Crash)
	}
	return k, nil
}

func (k *linkSystem) send(ctx context.Context, payload []byte) error {
	if k.sess != nil {
		_, err := k.sess.Enqueue(payload)
		return err
	}
	return k.s.Send(ctx, payload)
}

func (k *linkSystem) queued() bool { return k.sess != nil }

func (k *linkSystem) flush(ctx context.Context) error {
	if err := k.sess.Flush(ctx); err != nil {
		return fmt.Errorf("%w (session %+v)", err, k.sess.Stats())
	}
	return nil
}

func (k *linkSystem) recv() ([]byte, bool) {
	// A closed receiver still hands out what it released before Close.
	msg, err := k.r.Recv(context.Background())
	return msg, err == nil
}

// crashSender erases the sending station's memory (crash^T); a session
// resubmits what the crash wiped.
func (k *linkSystem) crashSender() {
	if k.sess != nil {
		k.sess.Crash()
	} else {
		k.s.Crash()
	}
}

func (k *linkSystem) apply(a Action) {
	switch a.Kind {
	case CrashSender:
		k.crashSender()
	case CrashReceiver:
		k.r.Crash()
	case WedgeSender:
		k.tx.WedgeCurrent()
	case BlackoutStart, BlackoutEnd:
		k.each(a, func(l SoakLink) { l.SetBlackout(a.Kind == BlackoutStart) })
	case SetLoss:
		k.each(a, func(l SoakLink) { l.SetLoss(a.Loss) })
	}
}

// each applies f to the directions a selects: 1 = TR, 2 = RT, 0 = both.
func (k *linkSystem) each(a Action, f func(SoakLink)) {
	if a.Link != 2 {
		f(k.links.TR)
	}
	if a.Link != 1 {
		f(k.links.RT)
	}
}

func (k *linkSystem) close() {
	// The attack clock stops before the stations it crashes go.
	if k.att != nil {
		k.att.Close()
	}
	if k.sess != nil {
		k.sessStats = k.sess.Stats()
		k.sess.Close()
	}
	if k.s != nil {
		k.s.Close()
	}
	if k.r != nil {
		k.r.Close()
	}
	if k.tx != nil {
		k.tx.Close()
		k.rx.Close()
	}
	if k.wheel != nil {
		k.wheel.Stop()
	}
}

func (k *linkSystem) result(res *Result) {
	res.Report = k.live.Report()
	res.LinkTR, res.LinkRT = k.links.TR.Stats(), k.links.RT.Stats()
	if k.att != nil {
		res.Attacker = k.att.Stats()
	}
	if k.sess != nil {
		res.Session = k.sessStats
		res.Transitions = int(k.sessStats.Transitions)
	}
}
