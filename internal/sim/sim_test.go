package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"ghm/internal/adversary"
	"ghm/internal/core"
	"ghm/internal/trace"
)

func fair(seed int64, cfg adversary.FairConfig) adversary.Adversary {
	return adversary.NewFair(rand.New(rand.NewSource(seed)), cfg)
}

func TestPerfectChannelCompletesClean(t *testing.T) {
	res, err := RunGHM(Config{
		Messages:  100,
		Adversary: fair(1, adversary.FairConfig{DeliverProb: 1}),
	}, core.Params{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Completed != 100 {
		t.Fatalf("Done=%v Completed=%d", res.Done, res.Completed)
	}
	if !res.Report.Clean() {
		t.Fatalf("violations on perfect channel: %v", res.Report)
	}
	if res.Report.Delivered != 100 {
		t.Fatalf("Delivered = %d", res.Report.Delivered)
	}
}

func TestLossyChannelCompletesClean(t *testing.T) {
	for _, loss := range []float64{0.2, 0.5, 0.8} {
		loss := loss
		t.Run(fmt.Sprintf("loss=%v", loss), func(t *testing.T) {
			res, err := RunGHM(Config{
				Messages:  30,
				MaxSteps:  400_000,
				Adversary: fair(2, adversary.FairConfig{Loss: loss}),
			}, core.Params{}, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Done {
				t.Fatalf("did not complete under loss %v: %+v", loss, res.Report)
			}
			if !res.Report.Clean() {
				t.Fatalf("violations under loss %v: %v", loss, res.Report)
			}
		})
	}
}

func TestDuplicatingReorderingChannelClean(t *testing.T) {
	res, err := RunGHM(Config{
		Messages:  50,
		MaxSteps:  400_000,
		Adversary: fair(3, adversary.FairConfig{Loss: 0.3, DupProb: 0.5, DeliverProb: 0.3}),
	}, core.Params{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("did not complete under dup+reorder")
	}
	if !res.Report.Clean() {
		t.Fatalf("violations under dup+reorder: %v", res.Report)
	}
	if res.DeliveredTR <= res.PacketsTR && res.DeliveredRT <= res.PacketsRT {
		// With DupProb 0.5 we expect more deliveries than sends on at
		// least one channel; if not, duplication never happened.
		t.Logf("note: no observable duplication (TR %d/%d, RT %d/%d)",
			res.DeliveredTR, res.PacketsTR, res.DeliveredRT, res.PacketsRT)
	}
}

func TestCrashLoopStaysSafe(t *testing.T) {
	adv := adversary.Compose(
		fair(4, adversary.FairConfig{Loss: 0.2}),
		&adversary.CrashLoop{EveryT: 23, EveryR: 37},
	)
	res, err := RunGHM(Config{
		Messages:  40,
		MaxSteps:  600_000,
		Adversary: adv,
	}, core.Params{}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.CrashT == 0 || res.Report.CrashR == 0 {
		t.Fatalf("crash loop never fired: %v", res.Report)
	}
	// Safety: with epsilon = 2^-20 over 40 messages, expect zero
	// violations; any would be a protocol bug at these odds.
	if !res.Report.Clean() {
		t.Fatalf("violations under crashes: %v", res.Report)
	}
}

func TestReplayFloodStaysSafe(t *testing.T) {
	adv := adversary.Compose(
		fair(5, adversary.FairConfig{}),
		adversary.NewReplay(rand.New(rand.NewSource(6)), trace.DirTR, 5),
		&adversary.CrashLoop{EveryR: 500},
	)
	res, err := RunGHM(Config{
		Messages:  20,
		MaxSteps:  400_000,
		Adversary: adv,
	}, core.Params{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Clean() {
		t.Fatalf("violations under replay flood: %v", res.Report)
	}
}

func TestSilenceNeverCompletes(t *testing.T) {
	res, err := RunGHM(Config{
		Messages:  1,
		MaxSteps:  5_000,
		Adversary: adversary.Silence{},
	}, core.Params{}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.Done || res.Completed != 0 {
		t.Fatalf("completed through a disconnected channel: %+v", res)
	}
	if !res.Report.Clean() {
		t.Fatalf("safety violated by silence: %v", res.Report)
	}
	// Liveness mechanism check: the receiver keeps retrying.
	if res.PacketsRT == 0 {
		t.Error("receiver sent no retries")
	}
}

// TestPartitionRecovers cuts the link for 1500 of every 2000 steps and
// crashes the receiver inside the first cut: nothing is delivered while
// the link is dark, the crash still lands, and the run completes in the
// light.
func TestPartitionRecovers(t *testing.T) {
	cuts := map[int][]adversary.Action{100: {{Kind: adversary.ActCrashR}}}
	for s := 0; s < 300_000; s += 2000 {
		cuts[s] = append(cuts[s], adversary.Action{Kind: adversary.ActBlackout, Dur: 1500})
	}
	res, err := RunGHM(Config{
		Messages:  10,
		MaxSteps:  300_000,
		Adversary: adversary.Compose(&adversary.Scripted{Schedule: cuts}, fair(7, adversary.FairConfig{})),
		KeepTrace: true,
	}, core.Params{}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || !res.Report.Clean() {
		t.Fatalf("partition run: done=%v report=%v", res.Done, res.Report)
	}
	if res.Report.CrashR != 1 {
		t.Errorf("crash^R inside the cut: %d recorded, want 1", res.Report.CrashR)
	}
	for _, e := range res.Events {
		if e.Kind == trace.KindDeliverPkt && e.Step%2000 < 1500 {
			t.Fatalf("delivery through a dark link: %v", e)
		}
	}
}

// TestSimulatorConformance checks that the simulator schedules the higher
// layer by the paper's axioms, under benign and hostile adversaries alike:
// no send_msg while a transfer is pending, i.e. until its OK or crash^T
// (Axiom 1); every message distinct (Axiom 2); and every deliver_pkt of a
// packet some send_pkt put on that channel.
func TestSimulatorConformance(t *testing.T) {
	adversaries := map[string]adversary.Adversary{
		"fair": fair(1, adversary.FairConfig{Loss: 0.3, DupProb: 0.3}),
		"hostile": adversary.Compose(
			fair(2, adversary.FairConfig{}),
			adversary.NewReplay(rand.New(rand.NewSource(3)), trace.DirTR, 3),
			&adversary.CrashLoop{EveryT: 41, EveryR: 67},
		),
	}
	for name, adv := range adversaries {
		t.Run(name, func(t *testing.T) {
			res, err := RunGHM(Config{Messages: 30, MaxSteps: 200_000, Adversary: adv, KeepTrace: true}, core.Params{}, 4)
			if err != nil {
				t.Fatal(err)
			}
			pending := false
			msgs := map[string]bool{}
			sent := map[[2]int64]bool{}
			for i, e := range res.Events {
				switch e.Kind {
				case trace.KindSendMsg:
					if pending {
						t.Fatalf("event %d: send_msg with a transfer pending (Axiom 1)", i)
					}
					if msgs[e.Msg] {
						t.Fatalf("event %d: message %q sent twice (Axiom 2)", i, e.Msg)
					}
					pending, msgs[e.Msg] = true, true
				case trace.KindOK, trace.KindCrashT:
					pending = false
				case trace.KindSendPkt:
					sent[[2]int64{int64(e.Dir), e.PktID}] = true
				case trace.KindDeliverPkt:
					if !sent[[2]int64{int64(e.Dir), e.PktID}] {
						t.Fatalf("event %d: %v delivers a packet never sent", i, e)
					}
				}
			}
			if len(msgs) != 30 {
				t.Errorf("%d messages sent, want 30", len(msgs))
			}
		})
	}
}

func TestDeterministicGivenSeeds(t *testing.T) {
	run := func() Result {
		res, err := RunGHM(Config{
			Messages:  20,
			Adversary: fair(13, adversary.FairConfig{Loss: 0.3, DupProb: 0.3}),
		}, core.Params{}, 14)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Steps != b.Steps || a.PacketsTR != b.PacketsTR || a.PacketsRT != b.PacketsRT ||
		a.DeliveredTR != b.DeliveredTR || a.Completed != b.Completed {
		t.Fatalf("same seeds, different runs:\n%+v\n%+v", a, b)
	}
}

func TestPerMessageAccounting(t *testing.T) {
	res, err := RunGHM(Config{
		Messages:  5,
		Adversary: fair(15, adversary.FairConfig{DeliverProb: 1}),
	}, core.Params{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerMessage) != 5 {
		t.Fatalf("PerMessage entries = %d", len(res.PerMessage))
	}
	var sumTR int
	for i, pm := range res.PerMessage {
		if !pm.OK || pm.DoneStep < pm.SendStep {
			t.Errorf("message %d window: %+v", i, pm)
		}
		if pm.PacketsTR == 0 {
			t.Errorf("message %d sent no DATA packets", i)
		}
		if pm.MaxRxBits == 0 {
			t.Errorf("message %d recorded no receiver storage", i)
		}
		sumTR += pm.PacketsTR
	}
	if sumTR > res.PacketsTR {
		t.Errorf("per-message TR packets %d exceed total %d", sumTR, res.PacketsTR)
	}
	if res.MaxRxBits == 0 || res.MaxTxBits == 0 {
		t.Errorf("storage high-water marks missing: %+v", res)
	}
}

func TestKeepTrace(t *testing.T) {
	res, err := RunGHM(Config{
		Messages:  2,
		Adversary: fair(17, adversary.FairConfig{DeliverProb: 1}),
		KeepTrace: true,
	}, core.Params{}, 18)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("KeepTrace retained no events")
	}
	var sends, oks int
	for _, e := range res.Events {
		switch e.Kind {
		case trace.KindSendMsg:
			sends++
		case trace.KindOK:
			oks++
		}
	}
	if sends != 2 || oks != 2 {
		t.Fatalf("trace has %d sends, %d OKs", sends, oks)
	}
}

func TestTraceOmittedByDefault(t *testing.T) {
	res, err := RunGHM(Config{
		Messages:  2,
		Adversary: fair(19, adversary.FairConfig{DeliverProb: 1}),
	}, core.Params{}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != nil {
		t.Fatal("Events retained without KeepTrace")
	}
}

func TestBadParamsSurface(t *testing.T) {
	if _, err := RunGHM(Config{Messages: 1}, core.Params{Epsilon: 2}, 1); err == nil {
		t.Fatal("invalid epsilon accepted")
	}
}

func TestRetryEveryThrottlesControlTraffic(t *testing.T) {
	dense, err := RunGHM(Config{
		Messages: 5, RetryEvery: 1,
		Adversary: fair(21, adversary.FairConfig{DeliverProb: 0.2}),
	}, core.Params{}, 22)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := RunGHM(Config{
		Messages: 5, RetryEvery: 10,
		Adversary: fair(21, adversary.FairConfig{DeliverProb: 0.2}),
	}, core.Params{}, 22)
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Done || !sparse.Done {
		t.Fatal("runs did not complete")
	}
	if sparse.PacketsRT >= dense.PacketsRT {
		t.Errorf("RetryEvery=10 sent %d CTL packets, dense sent %d",
			sparse.PacketsRT, dense.PacketsRT)
	}
}
