package chaos

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"ghm/internal/metrics"
)

func TestGenerateMeshDeterministic(t *testing.T) {
	a := GenerateMesh(7, MeshGenConfig{})
	b := GenerateMesh(7, MeshGenConfig{})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different scenarios:\n%s\nvs\n%s", a.JSON(), b.JSON())
	}
	if c := GenerateMesh(8, MeshGenConfig{}); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical scenarios")
	}
}

func TestGenerateMeshSchedulesNodeFaults(t *testing.T) {
	sc := GenerateMesh(42, MeshGenConfig{})
	if sc.Mesh == nil {
		t.Fatal("mesh scenario lacks a mesh spec")
	}
	if err := sc.Mesh.Topology.Validate(); err != nil {
		t.Fatalf("generated topology invalid: %v", err)
	}
	if sc.Count(CrashNode) < 1 || sc.Count(RestartNode) < 1 {
		t.Fatalf("no node crash/restart scheduled:\n%s", sc.JSON())
	}
	if sc.Count(BlackoutStart) < 1 {
		t.Fatalf("no link blackout scheduled:\n%s", sc.JSON())
	}
	// Every crash must have its restart later on the timeline, or the
	// scenario could strand parked payloads.
	var crashAt, restartAt time.Duration
	for _, a := range sc.Actions {
		switch a.Kind {
		case CrashNode:
			crashAt = a.At
		case RestartNode:
			restartAt = a.At
		}
	}
	if restartAt <= crashAt {
		t.Fatalf("restart at %v not after crash at %v", restartAt, crashAt)
	}
	// Blackouts target specific links adjacent to the crashed node: the
	// dead-link set stays a minority of the six links.
	for _, a := range sc.Actions {
		if a.Kind == BlackoutStart && a.Link == 0 {
			t.Fatalf("mesh blackout must target one link:\n%s", sc.JSON())
		}
	}
}

// TestMeshScenarioJSONRoundTrip is the repro-parity check: a mesh
// scenario — topology, node actions, per-link selectors — survives the
// JSON round trip that ghmsoak -scenario-out / -scenario uses.
func TestMeshScenarioJSONRoundTrip(t *testing.T) {
	sc := GenerateMesh(11, MeshGenConfig{})
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", sc.JSON(), back.JSON())
	}
}

// TestChaosMeshSoakExactlyOnce is the tentpole acceptance scenario: the
// five-node mesh with a minority of links impaired or blacked out AND
// one intermediate relay node crashed outright mid-transfer must still
// deliver every payload exactly once end to end, with clean per-hop live
// conformance — no manual intervention, reproducible from the scenario
// JSON alone.
func TestChaosMeshSoakExactlyOnce(t *testing.T) {
	sc := GenerateMesh(42, MeshGenConfig{})
	reg := metrics.New()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	res, err := Run(ctx, sc, Env{Messages: 200, WALDir: t.TempDir(), Metrics: reg})
	if err != nil {
		t.Fatalf("mesh soak: %v", err)
	}
	if err := res.Err(); err != nil {
		t.Errorf("verdict: %v", err)
	}
	t.Logf("mesh soak: enqueued=%d delivered=%d dups=%d hopViolations=%d stats=%+v elapsed=%v",
		res.Enqueued, res.Delivered, res.Duplicates, res.HopViolations, res.Mesh, res.Elapsed)

	if res.Enqueued < 200 {
		t.Errorf("enqueued = %d, want >= 200", res.Enqueued)
	}
	if len(res.Missing) > 0 {
		t.Errorf("%d payloads never delivered: %v", len(res.Missing), res.Missing)
	}
	if res.Duplicates != 0 {
		t.Errorf("exactly-once violated: %d duplicate deliveries", res.Duplicates)
	}
	if res.HopViolations != 0 {
		for id, rep := range res.HopReports {
			if !rep.Clean() {
				t.Errorf("hop %s: %s", id, rep)
			}
		}
	}
	if res.Mesh.NodeRestarts < 1 {
		t.Errorf("the scheduled node crash never exercised a restart: %+v", res.Mesh)
	}

	// The chaos.* metrics report what the timeline injected.
	counters := reg.Snapshot().Counters
	if counters["chaos.node_crashes_injected"] < 1 {
		t.Errorf("chaos.node_crashes_injected = %d, want >= 1", counters["chaos.node_crashes_injected"])
	}
	if counters["chaos.node_restarts_injected"] < 1 {
		t.Errorf("chaos.node_restarts_injected = %d, want >= 1", counters["chaos.node_restarts_injected"])
	}
	if counters["chaos.blackouts_injected"] < 1 {
		t.Errorf("chaos.blackouts_injected = %d, want >= 1", counters["chaos.blackouts_injected"])
	}
}

// TestChaosMeshSoakSecondSeed runs a second schedule smaller and faster,
// so the race-enabled CI job sees two distinct mesh fault orders.
func TestChaosMeshSoakSecondSeed(t *testing.T) {
	sc := GenerateMesh(1989, MeshGenConfig{Duration: time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	res, err := Run(ctx, sc, Env{Messages: 60, Metrics: metrics.New()})
	if err != nil {
		t.Fatalf("mesh soak: %v", err)
	}
	if len(res.Missing) > 0 {
		t.Errorf("%d payloads never delivered", len(res.Missing))
	}
	if res.Duplicates != 0 {
		t.Errorf("exactly-once violated: %d duplicates", res.Duplicates)
	}
	if res.HopViolations != 0 {
		t.Errorf("per-hop conformance violations: %d", res.HopViolations)
	}
}
