package chaos

import (
	"context"
	"reflect"
	"testing"
	"time"

	"ghm/internal/metrics"
	"ghm/internal/testutil"
)

func TestMain(m *testing.M) { testutil.Main(m) }

func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(42, GenConfig{}), Generate(42, GenConfig{})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different scenarios:\n%s\n--\n%s", a.JSON(), b.JSON())
	}
	if c := Generate(43, GenConfig{}); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical scenarios")
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	a := Generate(7, GenConfig{})
	b, err := ParseScenario([]byte(a.JSON()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("round trip changed the scenario:\n%s\n--\n%s", a.JSON(), b.JSON())
	}
}

func TestGenerateMeetsChaosFloors(t *testing.T) {
	sc := Generate(42, GenConfig{})
	if n := sc.Count(CrashSender); n < 3 {
		t.Errorf("scheduled sender crashes = %d, want >= 3", n)
	}
	if n := sc.Count(CrashReceiver); n < 3 {
		t.Errorf("scheduled receiver crashes = %d, want >= 3", n)
	}
	if n := sc.Count(BlackoutStart); n < 1 {
		t.Errorf("blackout windows = %d, want >= 1", n)
	}
	if sc.Link.Burst == nil || sc.Link.Burst.LossBad < 0.5 {
		t.Errorf("burst loss in bad state = %+v, want LossBad >= 0.5", sc.Link.Burst)
	}
	if sc.Link.Jitter <= 0 {
		t.Errorf("jitter = %v, want > 0", sc.Link.Jitter)
	}
}

func TestRunHonorsContextCancel(t *testing.T) {
	sc := Scenario{
		Duration: time.Hour,
		Actions:  []Action{{At: time.Hour, Kind: CrashSender}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, sc, Env{Metrics: metrics.New()})
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run returned nil after cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after context cancellation")
	}
}

// TestChaosSoakConformance is the acceptance scenario: a seeded schedule
// with burst loss >= 0.5 in the bad state, jitter, three crashes per side
// and a blackout window, driven against live stations while 500 unique
// messages flow, with the live conformance checker required to come back
// clean. The scenario is a pure function of the seed, so a failure
// reproduces with `ghmsoak -chaos -seed 42`.
func TestChaosSoakConformance(t *testing.T) {
	sc := Generate(42, GenConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	res, err := Run(ctx, sc, Env{Messages: 500})
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	if err := res.Err(); err != nil {
		t.Errorf("verdict: %v", err)
	}
	t.Logf("soak: %s delivered=%d abandoned=%d elapsed=%v",
		res.Report, res.Delivered, res.Abandoned, res.Elapsed)

	if !res.Report.Clean() {
		t.Errorf("conformance violations in a live run: %s", res.Report)
	}
	if res.Report.OKs < 500 {
		t.Errorf("completed sends = %d, want >= 500", res.Report.OKs)
	}
	if res.Report.CrashT < 3 || res.Report.CrashR < 3 {
		t.Errorf("observed crashes T=%d R=%d, want >= 3 each",
			res.Report.CrashT, res.Report.CrashR)
	}
	if res.Delivered == 0 {
		t.Error("no messages delivered")
	}
}

// TestChaosSoakShortSecondSeed exercises a second seed at a smaller
// message count, so the race-enabled chaos run covers two distinct
// schedules.
func TestChaosSoakShortSecondSeed(t *testing.T) {
	sc := Generate(1989, GenConfig{Duration: 800 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	res, err := Run(ctx, sc, Env{Messages: 100})
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	if !res.Report.Clean() {
		t.Errorf("conformance violations in a live run: %s", res.Report)
	}
	if res.Report.OKs < 100 {
		t.Errorf("completed sends = %d, want >= 100", res.Report.OKs)
	}
}
