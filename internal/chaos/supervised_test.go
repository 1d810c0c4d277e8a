package chaos

import (
	"context"
	"testing"
	"time"

	"ghm/internal/metrics"
)

// TestSupervisedSoakSelfHeals is the self-healing acceptance scenario: a
// seeded schedule injecting six station crashes (three per side), a
// blackout window and one watchdog-only wedge executes against a
// supervised session, which must complete every payload end-to-end with
// zero live conformance violations and no manual intervention, while the
// session.* metrics report the restarts and health transitions the run
// induced.
func TestSupervisedSoakSelfHeals(t *testing.T) {
	sc := Generate(42, GenConfig{Wedges: 1})
	if n := sc.Count(CrashSender) + sc.Count(CrashReceiver); n < 6 {
		t.Fatalf("scheduled station crashes = %d, want >= 6", n)
	}
	if sc.Count(BlackoutStart) < 1 || sc.Count(WedgeSender) < 1 {
		t.Fatalf("schedule lacks blackout/wedge:\n%s", sc.JSON())
	}

	reg := metrics.New()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	if !sc.Supervised() {
		t.Fatal("a scenario with a wedge does not run supervised")
	}
	res, err := Run(ctx, sc, Env{Messages: 200, Metrics: reg})
	if err != nil {
		t.Fatalf("supervised soak: %v", err)
	}
	if err := res.Err(); err != nil {
		t.Errorf("verdict: %v", err)
	}
	t.Logf("supervised soak: %s enqueued=%d delivered=%d stats=%+v transitions=%d elapsed=%v",
		res.Report, res.Enqueued, res.Delivered, res.Session, res.Transitions, res.Elapsed)

	if !res.Report.Clean() {
		t.Errorf("conformance violations in a supervised run: %s", res.Report)
	}
	if len(res.Missing) > 0 {
		t.Errorf("%d enqueued payloads never delivered: %v", len(res.Missing), res.Missing)
	}
	if res.Enqueued < 200 {
		t.Errorf("enqueued = %d, want >= 200", res.Enqueued)
	}
	if res.Session.Sent != res.Enqueued || res.Session.Pending != 0 {
		t.Errorf("session did not drain: %+v", res.Session)
	}

	// The wedge must have been healed by the watchdog, not luck.
	if res.Session.Wedges < 1 || res.Session.Restarts < 1 {
		t.Errorf("watchdog never fired: %+v", res.Session)
	}
	// Health left Healthy for the restart and came back for the drain.
	if res.Transitions < 2 {
		t.Errorf("health transitions = %d, want >= 2", res.Transitions)
	}

	// The session.* metrics family reports what the run injected.
	counters := reg.Snapshot().Counters
	if counters["session.wedges"] < 1 {
		t.Errorf("session.wedges = %d, want >= 1", counters["session.wedges"])
	}
	if counters["session.restarts"] < 1 {
		t.Errorf("session.restarts = %d, want >= 1", counters["session.restarts"])
	}
	if counters["session.health_transitions"] < 2 {
		t.Errorf("session.health_transitions = %d, want >= 2", counters["session.health_transitions"])
	}
	if counters["chaos.crash_t_injected"] < 3 || counters["chaos.crash_r_injected"] < 3 {
		t.Errorf("injected crashes T=%d R=%d, want >= 3 each",
			counters["chaos.crash_t_injected"], counters["chaos.crash_r_injected"])
	}
	if counters["chaos.wedges_injected"] < 1 {
		t.Errorf("chaos.wedges_injected = %d, want >= 1", counters["chaos.wedges_injected"])
	}
}

// TestSupervisedSoakSecondSeed covers a second schedule at a smaller
// message count so the race-enabled run sees two distinct fault orders.
func TestSupervisedSoakSecondSeed(t *testing.T) {
	sc := Generate(1989, GenConfig{Duration: 800 * time.Millisecond, Wedges: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	res, err := Run(ctx, sc, Env{Messages: 60, Metrics: metrics.New()})
	if err != nil {
		t.Fatalf("supervised soak: %v", err)
	}
	if !res.Report.Clean() {
		t.Errorf("conformance violations: %s", res.Report)
	}
	if len(res.Missing) > 0 {
		t.Errorf("%d payloads never delivered", len(res.Missing))
	}
}
