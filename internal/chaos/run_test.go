package chaos

import (
	"context"
	"strings"
	"testing"
	"time"

	"ghm/internal/metrics"
	"ghm/internal/testutil"
)

// TestRunErrorPathLeaksNothing builds every family with an invalid
// epsilon, so a station, session or hop fails to start halfway through
// the build: Run must refuse, and the parts already built must all be
// torn down.
func TestRunErrorPathLeaksNothing(t *testing.T) {
	short := GenConfig{Duration: 200 * time.Millisecond}
	supervised := short
	supervised.Wedges = 1
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		{"link", Generate(3, short)},
		{"supervised", Generate(3, supervised)},
		{"adversary", GenerateAdversary(3, short)},
		{"mesh", GenerateMesh(3, MeshGenConfig{})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			_, err := Run(context.Background(), tc.sc, Env{Epsilon: 2, Metrics: metrics.New()})
			if err == nil {
				t.Fatal("epsilon 2 accepted")
			}
		})
	}
}

// TestParseScenarioRejectsMalformed: a scenario file is input from
// outside the program, and every action in it must be one the timeline
// can carry out as written — otherwise it would fail mid-run, or be
// skipped while still counted as injected.
func TestParseScenarioRejectsMalformed(t *testing.T) {
	link := func(a ...Action) Scenario {
		return Scenario{Name: "link", Duration: time.Second, Actions: a}
	}
	mesh := func(a ...Action) Scenario {
		sc := GenerateMesh(5, MeshGenConfig{})
		sc.Actions = a
		return sc
	}
	for _, tc := range []struct {
		name string
		sc   Scenario
		want string
	}{
		{"unknown kind", link(Action{Kind: "explode"}), "unknown kind"},
		{"link past the two directions", link(Action{Kind: BlackoutStart, Link: 3}), "link 3 out of range"},
		{"negative link", link(Action{Kind: SetLoss, Link: -1}), "link -1 out of range"},
		{"node action on a link", link(Action{Kind: CrashNode, Node: 1}), "no relay nodes"},
		{"node blackout on a link", link(Action{Kind: NodeBlackoutStart}), "no relay nodes"},
		{"sender crash in a mesh", mesh(Action{Kind: CrashSender}), "no single station"},
		{"receiver crash in a mesh", mesh(Action{Kind: CrashReceiver}), "no single station"},
		{"wedge in a mesh", mesh(Action{Kind: WedgeSender}), "no single station"},
		{"node out of range", mesh(Action{Kind: CrashNode, Node: 5}), "node 5 out of range"},
		{"negative node", mesh(Action{Kind: RestartNode, Node: -1}), "node -1 out of range"},
		{"mesh link out of range", mesh(Action{Kind: BlackoutStart, Link: 7}), "link 7 out of range"},
		{"mesh with an adversary", func() Scenario {
			sc := mesh()
			sc.Adversary = GenerateAdversary(5, GenConfig{}).Adversary
			return sc
		}(), "adversary on a mesh"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseScenario([]byte(tc.sc.JSON()))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("ParseScenario: %v, want an error containing %q", err, tc.want)
			}
			reg := metrics.New()
			if _, err := Run(context.Background(), tc.sc, Env{Metrics: reg}); err == nil {
				t.Error("Run accepted it")
			}
			if n := len(reg.Snapshot().Counters); n != 0 {
				t.Errorf("a refused run counted %d metrics", n)
			}
		})
	}
}

// TestGeneratorsValidate: whatever a generator draws must pass the
// checks a replayed file must pass.
func TestGeneratorsValidate(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		for _, sc := range []Scenario{
			Generate(seed, GenConfig{}),
			Generate(seed, GenConfig{Wedges: 1}),
			GenerateAdversary(seed, GenConfig{}),
			GenerateMesh(seed, MeshGenConfig{}),
		} {
			if _, err := ParseScenario([]byte(sc.JSON())); err != nil {
				t.Errorf("%s: %v", sc.Name, err)
			}
		}
	}
}
