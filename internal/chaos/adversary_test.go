package chaos

import (
	"context"
	"reflect"
	"testing"
	"time"

	"ghm/internal/metrics"
	"ghm/internal/testutil"
)

func TestGenerateAdversaryDeterministic(t *testing.T) {
	a, b := GenerateAdversary(42, GenConfig{}), GenerateAdversary(42, GenConfig{})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different scenarios:\n%s\n--\n%s", a.JSON(), b.JSON())
	}
	if a.Adversary == nil || len(a.Adversary.Strategies) != 3 {
		t.Fatalf("generated adversary spec incomplete: %+v", a.Adversary)
	}
	if c := GenerateAdversary(43, GenConfig{}); reflect.DeepEqual(a.Adversary, c.Adversary) {
		t.Fatal("different seeds produced identical adversary specs")
	}
}

func TestAdversaryScenarioJSONRoundTrip(t *testing.T) {
	a := GenerateAdversary(7, GenConfig{})
	b, err := ParseScenario([]byte(a.JSON()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("round trip changed the scenario:\n%s\n--\n%s", a.JSON(), b.JSON())
	}
}

func TestAdversarySpecBuildRejectsUnknownKind(t *testing.T) {
	sp := AdversarySpec{Strategies: []StrategySpec{{Kind: "quantum_mitm"}}}
	if _, err := sp.Build(1); err == nil {
		t.Fatal("unknown strategy kind accepted")
	}
	if _, err := (AdversarySpec{}).Build(1); err == nil {
		t.Fatal("empty strategy list accepted")
	}
}

// TestAdversarySoakRequiresSpec: the spec is the attack, so an adversary
// scenario whose spec builds no attacker is refused before anything
// runs, whether it arrives as a file or as a value.
func TestAdversarySoakRequiresSpec(t *testing.T) {
	for _, sp := range []AdversarySpec{{}, {Strategies: []StrategySpec{{Kind: "quantum_mitm"}}}} {
		sc := Generate(3, GenConfig{Duration: 200 * time.Millisecond})
		sc.Adversary = &sp
		if _, err := ParseScenario([]byte(sc.JSON())); err == nil {
			t.Errorf("spec %+v parsed", sp)
		}
		if _, err := Run(context.Background(), sc, Env{Metrics: metrics.New()}); err == nil {
			t.Errorf("spec %+v ran", sp)
		}
	}
}

// TestAdversarySoakConformance is the runtime acceptance for the chaos
// adversary mode: a seeded scenario mounting all three adaptive
// strategies on a live link, on top of the usual crash/blackout/loss
// timeline, must deliver its messages with zero Section 2.6 violations —
// and the attack must actually happen (packets observed and captured,
// attacks mounted). A failure reproduces from the scenario JSON alone
// (`ghmsoak -adversary -seed 42`).
func TestAdversarySoakConformance(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	sc := GenerateAdversary(42, GenConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	reg := metrics.New()
	res, err := Run(ctx, sc, Env{Messages: 300, Metrics: reg})
	if err != nil {
		t.Fatalf("adversary soak: %v", err)
	}
	if err := res.Err(); err != nil {
		t.Errorf("verdict: %v", err)
	}
	t.Logf("soak: %s delivered=%d abandoned=%d attacker=%+v elapsed=%v",
		res.Report, res.Delivered, res.Abandoned, res.Attacker, res.Elapsed)

	if !res.Report.Clean() {
		t.Errorf("adaptive adversary broke Section 2.6 in a live run: %s", res.Report)
	}
	if res.Report.OKs < 300 {
		t.Errorf("completed sends = %d, want >= 300", res.Report.OKs)
	}
	if res.Attacker.Observed == 0 || res.Attacker.Captured == 0 {
		t.Errorf("attacker observed nothing: %+v", res.Attacker)
	}
	if res.Attacker.Mounted == 0 {
		t.Errorf("no attacks mounted: %+v", res.Attacker)
	}
	snap := reg.Snapshot()
	if snap.Counters["adversary.packets_observed"] == 0 ||
		snap.Counters["adversary.attacks_mounted"] == 0 {
		t.Errorf("adversary.* metrics not populated: %v", snap.Counters)
	}
}

// TestAdversarySoakReplaysFromJSON re-runs a scenario parsed back from
// its own JSON and demands the same safety verdict: the repro artifact
// is complete.
func TestAdversarySoakReplaysFromJSON(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	sc := GenerateAdversary(1989, GenConfig{Duration: 600 * time.Millisecond})
	parsed, err := ParseScenario([]byte(sc.JSON()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, parsed, Env{Messages: 80, Metrics: metrics.New()})
	if err != nil {
		t.Fatalf("replayed adversary soak: %v", err)
	}
	if !res.Report.Clean() {
		t.Errorf("replayed scenario broke conformance: %s", res.Report)
	}
	if res.Report.OKs < 80 {
		t.Errorf("completed sends = %d, want >= 80", res.Report.OKs)
	}
}
