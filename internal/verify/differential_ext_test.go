package verify_test

import (
	"math/rand"
	"reflect"
	"testing"

	"ghm/internal/adversary"
	"ghm/internal/baseline"
	"ghm/internal/mcheck"
	"ghm/internal/sim"
	"ghm/internal/trace"
	"ghm/internal/verify"
)

// recorder wraps a station pair and writes down the actions the model
// checker derives from it, in the order mcheck feeds them to its checker.
type recorder struct {
	events []trace.Event
}

type recTx struct {
	sim.TxMachine
	rec *recorder
}

func (t recTx) SendMsg(m []byte) ([][]byte, error) {
	pkts, err := t.TxMachine.SendMsg(m)
	if err == nil {
		t.rec.events = append(t.rec.events, trace.Event{Kind: trace.KindSendMsg, Msg: string(m)})
	}
	return pkts, err
}

func (t recTx) ReceivePacket(p []byte) ([][]byte, bool) {
	pkts, ok := t.TxMachine.ReceivePacket(p)
	if ok {
		t.rec.events = append(t.rec.events, trace.Event{Kind: trace.KindOK})
	}
	return pkts, ok
}

func (t recTx) Crash() {
	t.TxMachine.Crash()
	t.rec.events = append(t.rec.events, trace.Event{Kind: trace.KindCrashT})
}

type recRx struct {
	sim.RxMachine
	rec *recorder
}

func (r recRx) ReceivePacket(p []byte) ([][]byte, [][]byte) {
	delivered, pkts := r.RxMachine.ReceivePacket(p)
	for _, m := range delivered {
		r.rec.events = append(r.rec.events, trace.Event{Kind: trace.KindReceiveMsg, Msg: string(m)})
	}
	return delivered, pkts
}

func (r recRx) Crash() {
	r.RxMachine.Crash()
	r.rec.events = append(r.rec.events, trace.Event{Kind: trace.KindCrashR})
}

// TestDifferentialModelCheckerSchedules: every execution mcheck runs
// against the alternating-bit baseline — each schedule of the exploration
// and each prefix it replays, thousands of short traces, a third of them
// violating — reads the same through the flat checker and the reference,
// and mcheck's counterexample report is the reference's report of one.
func TestDifferentialModelCheckerSchedules(t *testing.T) {
	var runs [][]trace.Event
	var rec *recorder
	res := mcheck.Explore(mcheck.Config{
		Depth:    5,
		Messages: 4,
		NewStations: func() (sim.TxMachine, sim.RxMachine) {
			if rec != nil {
				runs = append(runs, rec.events)
			}
			rec = &recorder{}
			return recTx{baseline.NewABPTx(), rec}, recRx{baseline.NewABPRx(), rec}
		},
	})
	runs = append(runs, rec.events)
	var violating int64
	counterexample := false
	for i, events := range runs {
		got, want := verify.Check(events), verify.RefCheck(events)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("execution %d:\n flat      %+v\n reference %+v", i, got, want)
		}
		if !want.Clean() {
			violating++
			counterexample = counterexample || reflect.DeepEqual(want, res.CounterReport)
		}
	}
	if int64(len(runs)) < res.Paths || violating < res.Violations || res.Clean() {
		t.Fatalf("recorded %d executions (%d violating) of %d schedules (%d violating)", len(runs), violating, res.Paths, res.Violations)
	}
	if !counterexample {
		t.Errorf("no recorded execution has mcheck's counterexample report %v", res.CounterReport)
	}
}

// TestDifferentialSimulatorTrace: a recorded simulator execution — the
// 2-bit-nonce protocol under a replay adversary, so that forged deliveries
// really happen — reads the same through both.
func TestDifferentialSimulatorTrace(t *testing.T) {
	tx, rx, err := sim.NewGHMPair(baseline.NaiveNonceParams(2), 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := func(salt int64) *rand.Rand { return rand.New(rand.NewSource(3 + salt)) }
	res := sim.Run(sim.Config{
		Messages: 300,
		MaxSteps: 200_000,
		Adversary: adversary.Compose(
			adversary.NewFair(rng(0), adversary.FairConfig{Loss: 0.2, DupProb: 0.1, DeliverProb: 0.5}),
			adversary.NewReplay(rng(1), trace.DirTR, 3),
			adversary.NewReplay(rng(2), trace.DirRT, 3),
		),
		KeepTrace: true,
	}, tx, rx)
	want := verify.RefCheck(res.Events)
	if want.Clean() {
		t.Fatalf("the replay adversary forced no violation in %d events: %v", len(res.Events), want)
	}
	if got := verify.Check(res.Events); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(res.Report, want) {
		t.Errorf("flat %+v\nsimulator's own %+v\nreference %+v", got, res.Report, want)
	}
}
