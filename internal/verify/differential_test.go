package verify

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"ghm/internal/trace"
)

// traceGen draws executions of a k-slot station pair: attempts opened on
// free slots, delivered and OK'd in any interleaving, both crashes, the
// outbox's byte-identical resubmission of what crash^T wiped, stragglers
// of abandoned attempts — and, with faults on, every kind of violation.
type traceGen struct {
	rng    *rand.Rand
	k      int
	faults bool
	next   int
	slots  []genSlot
	wiped  []string // awaiting byte-identical resubmission, oldest first
	gone   []genOld // abandoned or completed attempts, for stragglers and replays
	events []trace.Event
}

type genSlot struct {
	msg             string
	busy, delivered bool
	// straggler is the attempt crash^T abandoned here before it delivered.
	// Until the slot refreshes, its delivery is the licensed M_alpha case.
	straggler string
}

type genOld struct {
	msg  string
	slot int
}

func (g *traceGen) emit(k trace.Kind, msg string, slot int) {
	g.events = append(g.events, trace.Event{Step: len(g.events), Kind: k, Msg: msg, Slot: slot})
}

// pick returns a random slot satisfying ok, or -1.
func (g *traceGen) pick(ok func(genSlot) bool) int {
	var fit []int
	for i, s := range g.slots {
		if ok(s) {
			fit = append(fit, i)
		}
	}
	if len(fit) == 0 {
		return -1
	}
	return fit[g.rng.Intn(len(fit))]
}

func (g *traceGen) step() {
	free := func(s genSlot) bool { return !s.busy }
	undelivered := func(s genSlot) bool { return s.busy && !s.delivered }
	delivered := func(s genSlot) bool { return s.busy && s.delivered }
	any := func(genSlot) bool { return true }

	n := 100
	if g.faults {
		n = 106
	}
	switch p := g.rng.Intn(n); {
	case p < 32: // send: a wiped payload first, as the outbox would
		i := g.pick(free)
		if i < 0 {
			return
		}
		var m string
		if len(g.wiped) > 0 {
			m, g.wiped = g.wiped[0], g.wiped[1:]
		} else {
			m = fmt.Sprintf("m-%d", g.next)
			g.next++
		}
		g.slots[i].msg, g.slots[i].busy = m, true
		g.emit(trace.KindSendMsg, m, i)
	case p < 62: // deliver
		if i := g.pick(undelivered); i >= 0 {
			g.slots[i].delivered, g.slots[i].straggler = true, ""
			g.emit(trace.KindReceiveMsg, g.slots[i].msg, i)
		}
	case p < 90: // OK
		if i := g.pick(delivered); i >= 0 {
			g.gone = append(g.gone, genOld{g.slots[i].msg, i})
			g.slots[i] = genSlot{}
			g.emit(trace.KindOK, "", i)
		}
	case p < 92: // crash^T: the whole window is wiped and resubmitted
		for i, s := range g.slots {
			if s.busy {
				g.wiped = append(g.wiped, s.msg)
				g.gone = append(g.gone, genOld{s.msg, i})
				g.slots[i] = genSlot{}
				if !s.delivered {
					g.slots[i].straggler = s.msg
				}
			}
		}
		g.emit(trace.KindCrashT, "", 0)
	case p < 94: // crash^R, and the redelivery it licenses
		g.emit(trace.KindCrashR, "", 0)
		for i := range g.slots {
			g.slots[i].straggler = ""
		}
		if i := g.pick(delivered); i >= 0 && g.rng.Intn(2) == 0 {
			g.emit(trace.KindReceiveMsg, g.slots[i].msg, i)
		}
	case p < 98: // an abandoned attempt's straggler
		if i := g.pick(func(s genSlot) bool { return s.straggler != "" }); i >= 0 {
			g.emit(trace.KindReceiveMsg, g.slots[i].straggler, i)
			g.slots[i].straggler = ""
		}
	case p < 100: // an OK with no attempt behind it: ignored
		if i := g.pick(free); i >= 0 {
			g.emit(trace.KindOK, "", i)
		}
	case p < 101: // causality fault
		g.emit(trace.KindReceiveMsg, fmt.Sprintf("ghost-%d", g.rng.Intn(4)), g.pick(any))
	case p < 102: // duplication fault
		if i := g.pick(delivered); i >= 0 {
			g.emit(trace.KindReceiveMsg, g.slots[i].msg, i)
		}
	case p < 104: // replay fault: anything ever completed, on its own slot or any other
		if len(g.gone) > 0 {
			o := g.gone[g.rng.Intn(len(g.gone))]
			if g.rng.Intn(3) == 0 {
				o.slot = g.pick(any)
			}
			g.emit(trace.KindReceiveMsg, o.msg, o.slot)
		}
	default: // order fault
		if i := g.pick(undelivered); i >= 0 {
			g.gone = append(g.gone, genOld{g.slots[i].msg, i})
			g.slots[i] = genSlot{}
			g.emit(trace.KindOK, "", i)
		}
	}
}

func genTrace(seed int64, k, steps int, faults bool) []trace.Event {
	g := &traceGen{rng: rand.New(rand.NewSource(seed)), k: k, faults: faults, slots: make([]genSlot, k)}
	for s := 0; s < k; s++ { // every slot is in use from the start, as on a station
		g.slots[s] = genSlot{msg: fmt.Sprintf("m-%d", g.next), busy: true}
		g.emit(trace.KindSendMsg, g.slots[s].msg, s)
		g.next++
	}
	for len(g.events) < steps {
		g.step()
	}
	return g.events
}

// TestDifferentialExact: with no horizon the flat checker is the reference,
// Report for Report, examples included.
func TestDifferentialExact(t *testing.T) {
	for _, k := range []int{1, 2, 8} {
		for _, faults := range []bool{false, true} {
			for seed := int64(1); seed <= 60; seed++ {
				events := genTrace(seed, k, 3000, faults)
				got, want := Check(events), refCheck(events)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("k=%d faults=%v seed=%d:\n flat      %+v\n reference %+v", k, faults, seed, got, want)
				}
				if !faults && !got.Clean() {
					t.Fatalf("k=%d seed=%d: generator produced a violation without faults: %v", k, seed, got)
				}
			}
		}
	}
}

// TestDifferentialHorizon: with a horizon — far shorter than Live's, so
// that most of each trace is retired — Clean() agrees with the reference
// after every single event, and no category is lost inside the horizon
// (Violations may differ: a retired payload's delivery is one Causality,
// where the reference may count a Replay and a Duplication). The one
// licensed difference is a payload whose bytes are sent again after its
// record retired: the reference still holds the old attempts' unused
// licenses for it, the streaming checker starts it afresh and so may only
// be stricter.
func TestDifferentialHorizon(t *testing.T) {
	var retired, stricter int
	for _, k := range []int{1, 2, 8} {
		for _, h := range []int{2, 16, 96} {
			for seed := int64(1); seed <= 40; seed++ {
				events := genTrace(seed+100, k, 4000, seed%2 == 0)
				var ref refChecker
				c := Checker{horizon: h}
				resent := false
				for i, e := range events {
					if e.Kind == trace.KindSendMsg && !resent {
						known := c.get(digestOf([]byte(e.Msg))).sends > 0
						resent = !known && ref.msgs[e.Msg] != nil && ref.msgs[e.Msg].sends > 0
					}
					ref.Observe(e)
					c.Observe(e)
					got, want := c.Report().Clean(), ref.Report().Clean()
					if got == want || (resent && !got) {
						continue
					}
					t.Fatalf("k=%d horizon=%d seed=%d event %d (%v %q slot %d): Clean() = %v, reference %v\n streaming %v\n reference %v",
						k, h, seed, i, e.Kind, e.Msg, e.Slot, got, want, c.Report(), ref.Report())
				}
				// Horizon + in flight + what completed since the stalest slot
				// refreshed: one record at depth 1, and a few per slot when
				// slots are drawn at random, as here.
				if n, most := len(c.recs)+len(c.old), 2*h+1+(k-1)*8; n > most {
					t.Errorf("k=%d horizon=%d seed=%d: %d records at the end, want at most %d", k, h, seed, n, most)
				}
				if len(c.recs)+len(c.old) < len(ref.msgs) {
					retired++
				}
				if resent && c.Report().Violations() > ref.Report().Violations() {
					stricter++
				}
			}
		}
	}
	if retired == 0 {
		t.Error("no trace retired a record: the test exercised nothing")
	}
	t.Logf("%d traces retired records; %d were stricter than the reference after a post-retirement re-send", retired, stricter)
}

// TestDifferentialStationGolden: the depth-1 station's golden trace
// (messages, crash^T, crash^R, a cancelled Send, same-length stale
// replays) reads the same through both checkers, with and without a
// horizon.
func TestDifferentialStationGolden(t *testing.T) {
	raw, err := os.ReadFile("../netlink/testdata/station_k1.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var steps []struct {
		Log []string `json:"log"`
	}
	if err := json.Unmarshal(raw, &steps); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]trace.Kind{}
	for _, k := range []trace.Kind{trace.KindSendMsg, trace.KindOK, trace.KindReceiveMsg, trace.KindCrashT, trace.KindCrashR} {
		kinds[k.String()] = k
	}
	var events []trace.Event
	for _, s := range steps {
		for _, line := range s.Log {
			var side, kind, msg string
			var slot int
			if n, _ := fmt.Sscanf(line, "tap %s %s %q slot=%d", &side, &kind, &msg, &slot); n == 4 {
				events = append(events, trace.Event{Kind: kinds[kind], Msg: msg, Slot: slot})
			}
		}
	}
	if len(events) < 20 {
		t.Fatalf("only %d tap events parsed from the golden trace", len(events))
	}
	want := refCheck(events)
	if got := Check(events); !reflect.DeepEqual(got, want) {
		t.Errorf("flat %+v\nreference %+v", got, want)
	}
	c := Checker{horizon: 2}
	for _, e := range events {
		c.Observe(e)
	}
	if got := c.Report(); got.Clean() != want.Clean() {
		t.Errorf("horizon 2: %v, reference %v", got, want)
	}
}

// cycle pushes one clean send, deliver, OK round of payload n through l.
func cycle(l *Live, buf []byte, n uint64) {
	for i := range 8 {
		buf[i] = byte(n >> (8 * i))
	}
	l.Observe(trace.KindSendMsg, buf, 0)
	l.Observe(trace.KindReceiveMsg, buf, 0)
	l.Observe(trace.KindOK, nil, 0)
}

// TestLiveHorizonSemantics: a replay of a payload the checker still holds
// is a Replay; the same replay past the horizon is a Causality — never
// sent, as far as the checker remembers. Both are violations.
func TestLiveHorizonSemantics(t *testing.T) {
	buf := make([]byte, 64)
	replay := func(after int) Report {
		var l Live
		for n := 0; n <= after; n++ {
			cycle(&l, buf, uint64(n))
		}
		if r := l.Report(); !r.Clean() {
			t.Fatalf("clean prefix reported %v", r)
		}
		clear(buf[:8]) // payload 0 again, with `after` completions since its own
		l.Observe(trace.KindReceiveMsg, buf, 0)
		return l.Report()
	}
	if r := replay(liveHorizon - 1); r.Replay != 1 || r.Causality != 0 {
		t.Errorf("replay inside the horizon: %v, want a Replay", r)
	}
	if r := replay(2 * liveHorizon); r.Causality != 1 || r.Violations() != 1 {
		t.Errorf("replay beyond the horizon: %v, want exactly one Causality", r)
	}
}
