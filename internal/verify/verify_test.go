package verify

import (
	"strings"
	"testing"
	"unsafe"

	"ghm/internal/trace"
)

// ev builds a minimal event list from a compact spec: "s:m1" send, "r:m1"
// receive, "ok", "ct" crash^T, "cr" crash^R. Windowed stations address
// slots with a digit: "s2:m1" sends on slot 2, "ok2" confirms slot 2,
// "r2:m1" delivers from slot 2; the undecorated forms are slot 0.
func ev(specs ...string) []trace.Event {
	var out []trace.Event
	for i, s := range specs {
		e := trace.Event{Step: i}
		if len(s) > 1 && s[1] >= '0' && s[1] <= '9' && (s[0] == 's' || s[0] == 'r') {
			e.Slot = int(s[1] - '0')
			s = s[:1] + s[2:]
		} else if strings.HasPrefix(s, "ok") && len(s) == 3 {
			e.Slot = int(s[2] - '0')
			s = "ok"
		}
		switch {
		case strings.HasPrefix(s, "s:"):
			e.Kind, e.Msg = trace.KindSendMsg, s[2:]
		case strings.HasPrefix(s, "r:"):
			e.Kind, e.Msg = trace.KindReceiveMsg, s[2:]
		case s == "ok":
			e.Kind = trace.KindOK
		case s == "ct":
			e.Kind = trace.KindCrashT
		case s == "cr":
			e.Kind = trace.KindCrashR
		default:
			panic("bad spec " + s)
		}
		out = append(out, e)
	}
	return out
}

func TestCleanExecution(t *testing.T) {
	r := Check(ev("s:a", "r:a", "ok", "s:b", "r:b", "ok"))
	if !r.Clean() {
		t.Fatalf("clean run flagged: %v", r)
	}
	if r.Sent != 2 || r.Delivered != 2 || r.OKs != 2 {
		t.Errorf("counts: %+v", r)
	}
}

func TestCausalityViolation(t *testing.T) {
	r := Check(ev("s:a", "r:ghost", "r:a", "ok"))
	if r.Causality != 1 {
		t.Fatalf("Causality = %d, want 1 (%v)", r.Causality, r)
	}
	if len(r.CausalityExamples) != 1 || r.CausalityExamples[0] != "ghost" {
		t.Errorf("examples: %v", r.CausalityExamples)
	}
}

func TestOrderViolation(t *testing.T) {
	// OK with no delivery in between.
	r := Check(ev("s:a", "ok"))
	if r.Order != 1 {
		t.Fatalf("Order = %d, want 1 (%v)", r.Order, r)
	}
	// Delivery before the send_msg window does not satisfy order.
	r = Check(ev("r:a", "s:a", "ok"))
	if r.Order != 1 {
		t.Fatalf("early delivery satisfied order: %v", r)
	}
}

func TestDuplicationViolation(t *testing.T) {
	r := Check(ev("s:a", "r:a", "r:a", "ok"))
	if r.Duplication != 1 {
		t.Fatalf("Duplication = %d, want 1 (%v)", r.Duplication, r)
	}
}

func TestDuplicationAllowedAfterCrashR(t *testing.T) {
	r := Check(ev("s:a", "r:a", "cr", "r:a", "ok"))
	if r.Duplication != 0 {
		t.Fatalf("crash^R redelivery flagged as duplication: %v", r)
	}
	if r.Replay != 0 {
		// a was not completed before the crash (no OK/crash^T yet).
		t.Fatalf("in-flight redelivery flagged as replay: %v", r)
	}
}

func TestReplayViolation(t *testing.T) {
	// a completes; receiver refreshes by delivering b; then a reappears.
	r := Check(ev("s:a", "r:a", "ok", "s:b", "r:b", "ok", "r:a"))
	if r.Replay != 1 {
		t.Fatalf("Replay = %d, want 1 (%v)", r.Replay, r)
	}
	// The same redelivery also counts as a duplication (no crash^R).
	if r.Duplication != 1 {
		t.Fatalf("Duplication = %d, want 1 (%v)", r.Duplication, r)
	}
}

func TestReplayAfterCrashRViolation(t *testing.T) {
	// Completed message redelivered after crash^R: allowed as duplication
	// (crash exemption) but still a replay of a completed message.
	r := Check(ev("s:a", "r:a", "ok", "cr", "r:a"))
	if r.Duplication != 0 {
		t.Fatalf("Duplication = %d, want 0 (%v)", r.Duplication, r)
	}
	if r.Replay != 1 {
		t.Fatalf("Replay = %d, want 1 (%v)", r.Replay, r)
	}
}

func TestAbandonedByCrashTIsCompleted(t *testing.T) {
	// send a; crash^T (a joins M_alpha); receiver refreshes via crash^R;
	// then a is delivered: replay.
	r := Check(ev("s:a", "ct", "cr", "r:a"))
	if r.Replay != 1 {
		t.Fatalf("Replay = %d, want 1 (%v)", r.Replay, r)
	}
}

func TestInFlightDeliveryAfterCrashTNotReplay(t *testing.T) {
	// a is abandoned by crash^T but the receiver has NOT refreshed since
	// the abandon: the pending challenge may legitimately complete. The
	// M_alpha formulation only flags deliveries after a refresh point.
	r := Check(ev("s:a", "ct", "r:a"))
	if r.Replay != 0 {
		t.Fatalf("Replay = %d, want 0 (%v)", r.Replay, r)
	}
}

func TestLateDeliveryStraddlingOKNotReplay(t *testing.T) {
	// Second delivery of a after its OK but with no refresh between the
	// first delivery and the OK: per the paper's M_alpha definition this
	// is not a replay, but it is a duplication.
	r := Check(ev("s:a", "r:a", "ok", "r:a"))
	if r.Replay != 0 {
		t.Fatalf("Replay = %d, want 0 (%v)", r.Replay, r)
	}
	if r.Duplication != 1 {
		t.Fatalf("Duplication = %d, want 1 (%v)", r.Duplication, r)
	}
}

func TestCrashCounts(t *testing.T) {
	r := Check(ev("s:a", "ct", "cr", "cr"))
	if r.CrashT != 1 || r.CrashR != 2 {
		t.Fatalf("crash counts: %+v", r)
	}
}

func TestStringSummaries(t *testing.T) {
	clean := Check(ev("s:a", "r:a", "ok"))
	if s := clean.String(); !strings.Contains(s, "clean") {
		t.Errorf("clean String() = %q", s)
	}
	dirty := Check(ev("s:a", "ok"))
	if s := dirty.String(); !strings.Contains(s, "VIOLATIONS") {
		t.Errorf("dirty String() = %q", s)
	}
}

func TestExampleListCapped(t *testing.T) {
	var specs []string
	for i := 0; i < 20; i++ {
		specs = append(specs, "r:ghost"+string(rune('a'+i)))
	}
	r := Check(ev(specs...))
	if r.Causality != 20 {
		t.Fatalf("Causality = %d", r.Causality)
	}
	if len(r.CausalityExamples) != maxExamples {
		t.Fatalf("examples = %d, want %d", len(r.CausalityExamples), maxExamples)
	}
}

func TestEmptyExecution(t *testing.T) {
	r := Check(nil)
	if !r.Clean() || r.Violations() != 0 {
		t.Fatalf("empty execution: %v", r)
	}
}

func TestResubmissionAfterCrashTIsClean(t *testing.T) {
	// The buffering higher layer resubmits a payload whose first attempt
	// was wiped by crash^T: the second send opens a new attempt, so its
	// delivery and OK are clean even after the receiver refreshes.
	r := Check(ev("s:a", "ct", "s:b", "r:b", "ok", "s:a", "r:a", "ok"))
	if !r.Clean() {
		t.Fatalf("resubmission flagged: %v", r)
	}
	if r.Sent != 3 || r.Delivered != 2 || r.OKs != 2 || r.CrashT != 1 {
		t.Errorf("counts: %+v", r)
	}
}

func TestResubmissionLateFirstAttemptDeliveryIsClean(t *testing.T) {
	// Attempt 1 of a is delivered but its OK is lost to crash^T; the
	// resubmitted attempt 2 is then delivered too. Two sends cover two
	// deliveries: neither duplication nor replay.
	r := Check(ev("s:a", "r:a", "ct", "s:a", "r:a", "ok"))
	if !r.Clean() {
		t.Fatalf("two-send/two-delivery run flagged: %v", r)
	}
}

func TestResubmissionThirdDeliveryIsDuplication(t *testing.T) {
	// Two sends license two deliveries; the third without crash^R is a
	// duplication again.
	r := Check(ev("s:a", "r:a", "ct", "s:a", "r:a", "ok", "r:a"))
	if r.Duplication != 1 {
		t.Fatalf("Duplication = %d, want 1 (%v)", r.Duplication, r)
	}
}

func TestWindowedCleanExecution(t *testing.T) {
	// Three slots in flight at once; OKs land out of slot order and each
	// is matched to its own slot's send, so the run is clean.
	r := Check(ev(
		"s0:a", "s1:b", "s2:c",
		"r1:b", "ok1",
		"r0:a", "ok0",
		"r2:c", "ok2",
	))
	if !r.Clean() {
		t.Fatalf("clean windowed run flagged: %v", r)
	}
	if r.Sent != 3 || r.Delivered != 3 || r.OKs != 3 {
		t.Errorf("counts: %+v", r)
	}
}

func TestWindowedOKMatchedToOwnSlot(t *testing.T) {
	// Slot 1's message was delivered; slot 0's was not. An OK on slot 0
	// must not be satisfied by slot 1's delivery: the order violation is
	// attributed to slot 0's payload.
	r := Check(ev("s0:a", "s1:b", "r1:b", "ok1", "ok0"))
	if r.Order != 1 {
		t.Fatalf("Order = %d, want 1 (%v)", r.Order, r)
	}
	if len(r.OrderExamples) != 1 || r.OrderExamples[0] != "a" {
		t.Errorf("order examples: %v", r.OrderExamples)
	}
}

func TestWindowedCrashTCompletesWholeWindow(t *testing.T) {
	// One crash^T abandons every in-flight slot at once (the shared
	// crash model): after the receiver refreshes, a delivery of either
	// payload is a replay.
	r := Check(ev("s0:a", "s1:b", "s2:c", "ct", "cr", "r0:a", "r2:c"))
	if r.Replay != 2 {
		t.Fatalf("Replay = %d, want 2 (%v)", r.Replay, r)
	}
}

func TestWindowedResubmissionAfterWipeIsClean(t *testing.T) {
	// The wipe abandons both slots; both payloads are resubmitted
	// (possibly on different slots) and confirmed: k sends license k
	// deliveries, clean end to end.
	r := Check(ev(
		"s0:a", "s1:b", "ct",
		"s1:a", "s0:b",
		"r1:a", "ok1", "r0:b", "ok0",
	))
	if !r.Clean() {
		t.Fatalf("windowed resubmission flagged: %v", r)
	}
	if r.Sent != 4 || r.OKs != 2 || r.CrashT != 1 {
		t.Errorf("counts: %+v", r)
	}
}

func TestWindowedStaleSlotOKHasNoAttempt(t *testing.T) {
	// An OK on a slot with nothing in flight (stale, post-wipe) is
	// counted but attributed to no attempt — same contract as the
	// single-slot checker's unmatched OK.
	r := Check(ev("s0:a", "ct", "ok0"))
	if r.OKs != 1 {
		t.Fatalf("OKs = %d, want 1 (%v)", r.OKs, r)
	}
	if r.Order != 0 {
		t.Fatalf("stale OK raised an order violation: %v", r)
	}
}

func TestResubmissionReplayAfterAllAttemptsComplete(t *testing.T) {
	// Both attempts of a complete, the receiver refreshes (r:b), and a
	// third copy of a arrives: every attempt was already completed before
	// the refresh, so this is a replay (and a duplication: no crash^R).
	r := Check(ev("s:a", "r:a", "ct", "s:a", "r:a", "ok", "s:b", "r:b", "ok", "r:a"))
	if r.Replay != 1 {
		t.Fatalf("Replay = %d, want 1 (%v)", r.Replay, r)
	}
	if r.Duplication != 1 {
		t.Fatalf("Duplication = %d, want 1 (%v)", r.Duplication, r)
	}
}

func TestWindowedStragglerDeliveryIsNotReplay(t *testing.T) {
	// Slot 1's attempt is abandoned by crash^T with its data already in
	// flight; slot 2 keeps delivering, then slot 1's straggler lands.
	// Other slots' deliveries do not refresh slot 1's challenge, so this
	// is the licensed M_alpha delivery, not a replay.
	r := Check(ev("s1:a", "ct", "s2:b", "r2:b", "ok2", "r1:a"))
	if !r.Clean() {
		t.Fatalf("cross-slot straggler flagged: %v", r)
	}

	// The same straggler after the slot's own session moved on IS a
	// replay: slot 1 delivered a newer transfer first.
	r = Check(ev("s1:a", "ct", "s1:b", "r1:b", "ok1", "r1:a"))
	if r.Replay != 1 {
		t.Fatalf("Replay = %d, want 1 (%v)", r.Replay, r)
	}

	// crash^R refreshes every slot at once: the whole station redraws its
	// randomness, so the straggler is a replay on any slot afterwards.
	r = Check(ev("s1:a", "ct", "cr", "r1:a"))
	if r.Replay != 1 {
		t.Fatalf("Replay after crash^R = %d, want 1 (%v)", r.Replay, r)
	}
}

func TestWindowedCrashRedeliveryPlusFreshAttemptNotDup(t *testing.T) {
	// The windowed chaos-flake trace: attempt 1 of a (slot 2) delivers,
	// crash^R leaves its DATA packet facing a fresh tau_crash challenge,
	// crash^T wipes the window and the payload is resubmitted on slot 4.
	// Slot 2 then redelivers (licensed by the crash^R) and slot 4's fresh
	// attempt delivers for the first time. Three deliveries, two sends —
	// but per slot every delivery is licensed: slot 2 consumed its own
	// crash^R allowance, and slot 4's first delivery never needed one.
	r := Check(ev("s2:a", "r2:a", "cr", "ct", "s4:a", "r2:a", "r4:a"))
	if r.Duplication != 0 {
		t.Fatalf("Duplication = %d, want 0 (%v)", r.Duplication, r)
	}
	if !r.Clean() {
		t.Fatalf("licensed windowed trace flagged: %v", r)
	}

	// Order independence: the fresh attempt may land before the straggler.
	r = Check(ev("s2:a", "r2:a", "cr", "ct", "s4:a", "r4:a", "r2:a"))
	if !r.Clean() {
		t.Fatalf("licensed windowed trace (swapped) flagged: %v", r)
	}
}

func TestCrashRedeliveryThenResubmissionSameSlotNotDup(t *testing.T) {
	// Same-slot variant of the chaos flake: attempt 1 delivers, crash^R
	// licenses a redelivery, crash^T wipes the window and the payload is
	// resubmitted on the SAME slot, whose delivery then lands after the
	// redelivery. Three deliveries = two sends + one crash^R license; the
	// redelivery must consume the crash license, not the second send's.
	r := Check(ev("s1:a", "r1:a", "cr", "r1:a", "ct", "s1:a", "r1:a"))
	if r.Duplication != 0 {
		t.Fatalf("Duplication = %d, want 0 (%v)", r.Duplication, r)
	}

	// With the redelivery and the fresh delivery swapped the trace is
	// equally legal (the crash license has no expiry before the next
	// crash^R).
	r = Check(ev("s1:a", "r1:a", "cr", "ct", "s1:a", "r1:a", "r1:a"))
	if r.Duplication != 0 {
		t.Fatalf("Duplication (swapped) = %d, want 0 (%v)", r.Duplication, r)
	}

	// A fourth delivery exceeds every license: duplication.
	r = Check(ev("s1:a", "r1:a", "cr", "r1:a", "ct", "s1:a", "r1:a", "r1:a"))
	if r.Duplication != 1 {
		t.Fatalf("Duplication beyond budget = %d, want 1 (%v)", r.Duplication, r)
	}
}

func TestConsecutiveCrashRsGrantOneLicense(t *testing.T) {
	// Two crash^Rs with no delivery between them license only one
	// redelivery: after the first post-crash acceptance the receiver's
	// challenge has moved on, so a second win is the improbable event.
	r := Check(ev("s:a", "r:a", "cr", "cr", "r:a", "r:a"))
	if r.Duplication != 1 {
		t.Fatalf("Duplication = %d, want 1 (%v)", r.Duplication, r)
	}

	// A crash^R after each delivery licenses one redelivery each.
	r = Check(ev("s:a", "r:a", "cr", "r:a", "cr", "r:a"))
	if r.Duplication != 0 {
		t.Fatalf("Duplication with per-crash licenses = %d, want 0 (%v)", r.Duplication, r)
	}
}

func TestWindowedPerSlotDupStillCaught(t *testing.T) {
	// The per-slot budget does not weaken the condition inside a slot: a
	// second slot-2 delivery with no crash^R between is a duplication.
	r := Check(ev("s2:a", "r2:a", "r2:a"))
	if r.Duplication != 1 {
		t.Fatalf("Duplication = %d, want 1 (%v)", r.Duplication, r)
	}

	// One crash^R licenses one redelivery per slot, not two: the third
	// slot-2 delivery after a single crash is a duplication again.
	r = Check(ev("s2:a", "r2:a", "cr", "r2:a", "r2:a"))
	if r.Duplication != 1 {
		t.Fatalf("Duplication after exhausted crash budget = %d, want 1 (%v)", r.Duplication, r)
	}
}

// TestRecordIsCompact pins a record, the value in the checker's two maps,
// at 64 bytes: what a hop's checker holds is two maps of them.
func TestRecordIsCompact(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got > 64 {
		t.Errorf("record is %d bytes, want at most 64", got)
	}
}
