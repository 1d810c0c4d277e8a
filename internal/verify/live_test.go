package verify

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"ghm/internal/testutil"
	"ghm/internal/trace"
)

func TestLiveMatchesBatchChecker(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindSendMsg, Msg: "a"},
		{Kind: trace.KindReceiveMsg, Msg: "a"},
		{Kind: trace.KindOK},
		{Kind: trace.KindSendMsg, Msg: "b"},
		{Kind: trace.KindCrashT},
		{Kind: trace.KindSendMsg, Msg: "c"},
		{Kind: trace.KindReceiveMsg, Msg: "c"},
		{Kind: trace.KindCrashR},
		{Kind: trace.KindOK},
	}
	var l Live
	for _, e := range events {
		l.Observe(e.Kind, []byte(e.Msg), e.Slot)
	}
	if got, want := l.Report(), Check(events); !reflect.DeepEqual(got, want) {
		t.Errorf("live report = %+v, batch = %+v", got, want)
	}
}

func TestLiveConcurrentObservers(t *testing.T) {
	var l Live
	const perSide = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < perSide; i++ {
			l.Observe(trace.KindSendMsg, []byte(fmt.Sprintf("s-%d", i)), 0)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < perSide; i++ {
			l.Observe(trace.KindCrashR, nil, 0)
		}
	}()
	wg.Wait()
	r := l.Report()
	if r.Sent != perSide || r.CrashR != perSide {
		t.Errorf("report = %+v, want %d sends and %d crashes", r, perSide, perSide)
	}
}

// TestLiveObserveAllocatesNothing: once a Live has seen a generation's
// worth of payloads, a send, deliver, OK round costs no allocation — the
// payload is digested in place and its record is a value in a map that
// has reached its size.
func TestLiveObserveAllocatesNothing(t *testing.T) {
	var l Live
	buf := make([]byte, 64)
	n := uint64(0)
	round := func() { cycle(&l, buf, n); n++ }
	for i := 0; i < 4*liveHorizon; i++ {
		round()
	}
	if got := testing.AllocsPerRun(10*liveHorizon, round); got != 0 {
		t.Errorf("send, deliver, OK through Live.Observe: %v allocs, want 0", got)
	}
	if r := l.Report(); !r.Clean() || r.OKs != int(n) {
		t.Errorf("report %v after %d clean rounds", r, n)
	}
}

// TestLiveBoundedMemory: two million events through one Live — clean
// rounds, a crash^T with its byte-identical resubmission every thousandth,
// a crash^R every five thousandth, and a never-sent delivery now and then
// — leave no more than two generations of records at any point and a heap
// no larger at the end than a tenth of the way in.
func TestLiveBoundedMemory(t *testing.T) {
	var l Live
	buf := make([]byte, 64)
	ghost := []byte("ghost-0000")
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const events = 2_000_000
	var early uint64
	ghosts := 0
	for n := uint64(0); l.c.idx < events; n++ {
		switch {
		case n%1000 == 999: // crash^T mid-flight, then the resubmission
			for i := range 8 {
				buf[i] = byte(n >> (8 * i))
			}
			l.Observe(trace.KindSendMsg, buf, 0)
			l.Observe(trace.KindCrashT, nil, 0)
		case n%5000 == 4998:
			l.Observe(trace.KindCrashR, nil, 0)
		case n%7777 == 0:
			ghost[9] = byte('0' + n%10)
			l.Observe(trace.KindReceiveMsg, ghost, 0)
			ghosts++
		}
		cycle(&l, buf, n)
		if most := 2*liveHorizon + 2; len(l.c.recs)+len(l.c.old) > most {
			t.Fatalf("after %d events: %d+%d records, want at most %d", l.c.idx, len(l.c.recs), len(l.c.old), most)
		}
		if early == 0 && l.c.idx >= events/10 {
			early = heap()
		}
	}
	if late := heap(); late > early+16<<10 {
		t.Errorf("HeapAlloc %d KB after %d events, %d KB after %d: the checker retains history", late>>10, events, early>>10, events/10)
	}
	if r := l.Report(); r.Causality != ghosts || r.Violations() != ghosts {
		t.Errorf("report %v, want exactly the %d never-sent deliveries", r, ghosts)
	}
}

// TestLiveRetainsLittle: what a Live holds after a long clean run at depth
// 1 — a relay hop's traffic — is its two generations of liveHorizon
// records, a few KB. Sixty-four of them, each through a thousand rounds,
// raise the heap by no more than 6 KB apiece.
func TestLiveRetainsLittle(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's shadow state moves the heap")
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	const lives, rounds = 64, 1000
	buf := make([]byte, 64)
	before := heap()
	ls := make([]*Live, lives)
	for i := range ls {
		ls[i] = new(Live)
		for n := uint64(0); n < rounds; n++ {
			cycle(ls[i], buf, n)
		}
	}
	per := (heap() - before) / lives
	t.Logf("a Live after %d rounds: %d bytes", rounds, per)
	if per > 6<<10 {
		t.Errorf("a Live after %d clean rounds retains %d bytes, want at most 6 KB", rounds, per)
	}
	for _, l := range ls {
		if r := l.Report(); !r.Clean() || r.OKs != rounds {
			t.Fatalf("report %v after %d clean rounds", r, rounds)
		}
	}
}
