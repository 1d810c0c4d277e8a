package adversary

import (
	"math/rand"
	"testing"

	"ghm/internal/trace"
)

func collect(a Adversary, steps int) []Action {
	var out []Action
	for s := 0; s < steps; s++ {
		out = append(out, a.Next(s)...)
	}
	return out
}

func deliveries(acts []Action, dir trace.Dir) map[int64]int {
	got := make(map[int64]int)
	for _, a := range acts {
		if a.Kind == ActDeliver && a.Dir == dir {
			got[a.ID]++
		}
	}
	return got
}

func TestFairDeliversEverythingWithoutLoss(t *testing.T) {
	f := NewFair(rand.New(rand.NewSource(1)), FairConfig{})
	for i := int64(0); i < 50; i++ {
		f.OnNewPacket(trace.DirTR, i, 10)
	}
	got := deliveries(collect(f, 200), trace.DirTR)
	if len(got) != 50 {
		t.Fatalf("delivered %d distinct packets, want 50", len(got))
	}
	for id, n := range got {
		if n != 1 {
			t.Errorf("packet %d delivered %d times without DupProb", id, n)
		}
	}
}

func TestFairTotalLossDeliversNothing(t *testing.T) {
	f := NewFair(rand.New(rand.NewSource(2)), FairConfig{Loss: 1.0})
	for i := int64(0); i < 20; i++ {
		f.OnNewPacket(trace.DirTR, i, 10)
	}
	if acts := collect(f, 100); len(acts) != 0 {
		t.Fatalf("total loss still delivered %d actions", len(acts))
	}
}

func TestFairDuplicates(t *testing.T) {
	f := NewFair(rand.New(rand.NewSource(3)), FairConfig{DupProb: 0.5})
	for i := int64(0); i < 30; i++ {
		f.OnNewPacket(trace.DirRT, i, 10)
	}
	got := deliveries(collect(f, 400), trace.DirRT)
	dups := 0
	for _, n := range got {
		if n > 1 {
			dups++
		}
	}
	if dups == 0 {
		t.Error("DupProb=0.5 produced no duplicate deliveries over 30 packets")
	}
}

func TestFairKeepsDirectionsSeparate(t *testing.T) {
	f := NewFair(rand.New(rand.NewSource(4)), FairConfig{})
	f.OnNewPacket(trace.DirTR, 0, 10)
	f.OnNewPacket(trace.DirRT, 0, 10)
	acts := collect(f, 100)
	if len(deliveries(acts, trace.DirTR)) != 1 || len(deliveries(acts, trace.DirRT)) != 1 {
		t.Fatalf("per-direction deliveries wrong: %+v", acts)
	}
}

func TestReplayOnlyReplaysItsDirection(t *testing.T) {
	r := NewReplay(rand.New(rand.NewSource(5)), trace.DirTR, 3)
	if acts := r.Next(0); len(acts) != 0 {
		t.Fatalf("replay with empty history emitted %d actions", len(acts))
	}
	r.OnNewPacket(trace.DirRT, 99, 10) // wrong direction: ignored
	r.OnNewPacket(trace.DirTR, 1, 10)
	r.OnNewPacket(trace.DirTR, 2, 10)
	acts := collect(r, 50)
	if len(acts) != 150 {
		t.Fatalf("rate 3 over 50 steps gave %d actions", len(acts))
	}
	for _, a := range acts {
		if a.Dir != trace.DirTR || (a.ID != 1 && a.ID != 2) {
			t.Fatalf("unexpected replay action %+v", a)
		}
	}
}

func TestGuessFloodTracksLastLength(t *testing.T) {
	g := NewGuessFlood(rand.New(rand.NewSource(6)), trace.DirTR, 2)
	g.OnNewPacket(trace.DirTR, 1, 10)
	g.OnNewPacket(trace.DirTR, 2, 20)
	g.OnNewPacket(trace.DirTR, 3, 10)
	g.OnNewPacket(trace.DirTR, 4, 10) // last length: 10 -> ids {1,3,4}
	for _, a := range g.Next(0) {
		if a.ID == 2 {
			t.Fatalf("GuessFlood replayed wrong-length packet: %+v", a)
		}
	}
	g.OnNewPacket(trace.DirTR, 5, 20) // last length now 20 -> ids {2,5}
	for _, a := range g.Next(1) {
		if a.ID != 2 && a.ID != 5 {
			t.Fatalf("GuessFlood ignored length switch: %+v", a)
		}
	}
}

func TestCrashLoopSchedule(t *testing.T) {
	c := &CrashLoop{EveryT: 4, EveryR: 6}
	var crashT, crashR []int
	for s := 0; s < 24; s++ {
		for _, a := range c.Next(s) {
			switch a.Kind {
			case ActCrashT:
				crashT = append(crashT, s)
			case ActCrashR:
				crashR = append(crashR, s)
			}
		}
	}
	wantT := []int{4, 8, 12, 16, 20}
	wantR := []int{6, 12, 18}
	if len(crashT) != len(wantT) || len(crashR) != len(wantR) {
		t.Fatalf("crashT=%v crashR=%v", crashT, crashR)
	}
	for i, w := range wantT {
		if crashT[i] != w {
			t.Errorf("crashT[%d] = %d, want %d", i, crashT[i], w)
		}
	}
	for i, w := range wantR {
		if crashR[i] != w {
			t.Errorf("crashR[%d] = %d, want %d", i, crashR[i], w)
		}
	}
}

func TestSilence(t *testing.T) {
	var s Silence
	s.OnNewPacket(trace.DirTR, 1, 1)
	if acts := collect(s, 10); len(acts) != 0 {
		t.Fatalf("Silence acted: %+v", acts)
	}
}

func TestComposeMergesActionsAndNotifications(t *testing.T) {
	r1 := NewReplay(rand.New(rand.NewSource(7)), trace.DirTR, 1)
	r2 := NewReplay(rand.New(rand.NewSource(8)), trace.DirRT, 1)
	c := Compose(r1, r2)
	c.OnNewPacket(trace.DirTR, 1, 5)
	c.OnNewPacket(trace.DirRT, 2, 5)
	acts := c.Next(0)
	if len(acts) != 2 {
		t.Fatalf("composed actions = %+v", acts)
	}
	if acts[0].Dir != trace.DirTR || acts[1].Dir != trace.DirRT {
		t.Fatalf("composition order broken: %+v", acts)
	}
}
