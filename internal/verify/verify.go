// Package verify mechanically checks an execution against the
// correctness conditions of the paper's Section 2.6. Check walks a
// recorded ghm/internal/trace log, Live takes the same actions from
// running stations' taps; both count violations of each condition:
//
//   - causality: every receive_msg(m) has an earlier send_msg(m).
//   - order: every OK for m has a receive_msg(m) between send_msg(m) and it.
//   - no duplication: m is not delivered twice without an intervening
//     crash^R. Checked per receiver slot, as attempts never migrate
//     between slots: each send_msg on a slot licenses one delivery there,
//     each crash^R one redelivery on each slot that delivered m before it.
//   - no replay: a delivery of m is a replay when m was already completed
//     (OK'd, or abandoned by crash^T) before the delivering slot's last
//     refresh point (that slot's last receive_msg, or any crash^R): the
//     M_alpha formulation of Theorem 7. Until slot 3 refreshes, a straggler
//     there from an attempt crash^T abandoned is licensed, not a replay.
//
// The conditions are per attempt, not per payload: the outbox (Axiom 1's
// buffer) resubmits a payload whose attempt crash^T wiped, so a message
// sent k times may be delivered and completed k times. A single-slot
// station emits slot 0, where each rule is the paper's global one; one
// crash^T completes every slot's attempt. DESIGN.md section 9 has more.
package verify

import (
	"fmt"
	"hash/maphash"
	"strings"
	"sync"

	"ghm/internal/trace"
)

// maxExamples bounds how many violating message ids each list retains.
const maxExamples = 8

// Report summarizes the checks over one execution.
type Report struct {
	// Sent, Delivered, OKs, CrashT, CrashR count the respective actions.
	Sent, Delivered, OKs, CrashT, CrashR int

	// Causality counts deliveries of never-sent messages.
	Causality int
	// Order counts OK events whose message was not delivered between its
	// send_msg and the OK.
	Order int
	// Duplication counts re-deliveries with no crash^R since the previous
	// delivery of the same message.
	Duplication int
	// Replay counts deliveries of messages completed before the
	// receiver's last refresh point.
	Replay int

	// CausalityExamples etc. retain up to maxExamples offending message ids.
	CausalityExamples, OrderExamples, DuplicationExamples, ReplayExamples []string
}

// Violations returns the total number of condition violations.
func (r Report) Violations() int {
	return r.Causality + r.Order + r.Duplication + r.Replay
}

// Clean reports whether no condition was violated.
func (r Report) Clean() bool { return r.Violations() == 0 }

// String implements fmt.Stringer with a one-line summary.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sent=%d delivered=%d ok=%d crashT=%d crashR=%d",
		r.Sent, r.Delivered, r.OKs, r.CrashT, r.CrashR)
	if r.Clean() {
		b.WriteString(" clean")
	} else {
		fmt.Fprintf(&b, " VIOLATIONS causality=%d order=%d dup=%d replay=%d",
			r.Causality, r.Order, r.Duplication, r.Replay)
	}
	return b.String()
}

// digest keys a payload: two independently seeded 64-bit hashes of its
// bytes. Collisions are of order 2^-128, and no input can aim for one.
type digest [2]uint64

var digestSeeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}

func digestOf(msg []byte) (d digest) {
	d[0], d[1] = maphash.Bytes(digestSeeds[0], msg), maphash.Bytes(digestSeeds[1], msg)
	return d
}

// budget is one payload's delivery budget on one receiver slot. Event
// indexes count from 1, so a zero index means "never".
type budget struct {
	sends       int32 // send_msg events on this slot
	sendUsed    int32 // send licenses consumed
	crashUsed   int   // index of the last crash^R whose license was consumed
	deliveredAt int   // index of the last receive_msg
}

// slotBudget is a payload's budget on a slot other than 0, one link of a
// list hung off its record.
type slotBudget struct {
	budget
	slot int
	next *slotBudget
}

// record tracks one payload across its send attempts; the zero value is
// "never seen". It is a map value, 64 bytes: slot 0, a depth-1 station's
// only slot, lives inline, and the other slots out of line behind one
// pointer, which a depth-1 station leaves nil.
type record struct {
	sends, completions int32 // send_msg events; OK or crash^T completions granted
	sentAt             int   // index of the most recent send_msg
	deliveredAt        int   // index of the most recent receive_msg, any slot
	completedAt        int   // index of the most recent completion
	zero               budget
	more               *slotBudget
}

// on returns the payload's budget on slot, adding it on first touch.
func (r *record) on(slot int) *budget {
	if slot == 0 {
		return &r.zero
	}
	for b := r.more; b != nil; b = b.next {
		if b.slot == slot {
			return &b.budget
		}
	}
	r.more = &slotBudget{slot: slot, next: r.more}
	return &r.more.budget
}

// slotTrack is the checker's state per window slot. refreshed is the
// slot's last receive_msg index: its session moved on, and older attempts
// cannot deliver there without a fresh handshake. crash^R refreshes all.
type slotTrack struct {
	refreshed int
	live      bool   // an attempt awaits its OK
	key       digest // its payload
	msg       []byte // and the bytes, reused per attempt, for OrderExamples
}

// Checker verifies an execution incrementally: feed every event to
// Observe and read the Report at any point. The zero value keeps one flat
// record per distinct payload, which suits a finite trace. With a horizon
// (Live's) it forgets a settled record — every attempt completed, every
// slot seen so far refreshed since, so any delivery of it is a violation
// by the replay rule — once horizon other payloads have come by. That
// violation then counts under Causality: never sent, as far as it knows.
type Checker struct {
	r Report

	idx        int
	slots      []slotTrack
	lastCrashR int

	// recs holds the records touched in this generation, old the rest of
	// the previous one; a generation ends after horizon new records.
	recs, old map[digest]record
	horizon   int
}

func (c *Checker) slot(i int) *slotTrack {
	for len(c.slots) <= i {
		var t slotTrack
		c.slots = append(c.slots, t)
	}
	return &c.slots[i]
}

func (c *Checker) get(key digest) record {
	r, ok := c.recs[key]
	if !ok {
		r = c.old[key]
	}
	return r
}

// put stores a record and, once the generation has taken horizon new ones,
// turns the generations: what old still holds went untouched for a whole
// generation and goes, unless unsettled. Filled and cleared, never deleted
// from, the two maps keep their size.
func (c *Checker) put(key digest, r record) {
	c.recs[key] = r
	if c.horizon == 0 || len(c.recs) < c.horizon {
		return
	}
	floor := c.idx // the oldest refresh point over the slots seen so far
	for s := range c.slots {
		floor = min(floor, c.slots[s].refreshed)
	}
	floor = max(floor, c.lastCrashR)
	for k, r := range c.old {
		if _, fresh := c.recs[k]; !fresh && (r.completions < r.sends || r.completedAt > floor) {
			c.recs[k] = r
		}
	}
	clear(c.old)
	c.recs, c.old = c.old, c.recs
}

// Observe feeds one event; only the higher-layer actions take part.
func (c *Checker) Observe(e trace.Event) { c.observe(e.Kind, []byte(e.Msg), e.Slot) }

// observe is Observe over payload bytes, which it reads but does not keep.
func (c *Checker) observe(kind trace.Kind, msg []byte, slot int) {
	if c.recs == nil {
		// The two tables are made on the first event of a checker's life.
		c.recs, c.old = make(map[digest]record), make(map[digest]record)
	}
	c.idx++
	i := c.idx
	switch kind {
	case trace.KindSendMsg:
		c.r.Sent++
		key := digestOf(msg)
		r := c.get(key)
		r.sends++
		r.on(slot).sends++
		r.sentAt = i
		c.put(key, r)
		t := c.slot(slot)
		buf := t.msg[:0]
		buf = append(buf, msg...)
		t.live, t.key, t.msg = true, key, buf

	case trace.KindReceiveMsg:
		c.r.Delivered++
		key := digestOf(msg)
		r := c.get(key)
		if r.sends == 0 {
			c.r.Causality++
			c.r.CausalityExamples = addExample(c.r.CausalityExamples, msg)
		}

		// No-duplication: a delivery is licensed by a crash^R since this
		// slot's previous delivery of the payload (one redelivery per crash)
		// or by a send_msg on this slot. The crash license goes first: it
		// expires, send licenses keep, so greedy never rejects a legal trace.
		b := r.on(slot)
		switch {
		case b.deliveredAt > 0 && c.lastCrashR > b.deliveredAt && b.crashUsed < c.lastCrashR:
			b.crashUsed = c.lastCrashR
		case b.sendUsed < b.sends:
			b.sendUsed++
		case b.deliveredAt > 0:
			c.r.Duplication++
			c.r.DuplicationExamples = addExample(c.r.DuplicationExamples, msg)
		}

		// Replay: every attempt completed before this slot's last refresh.
		t := c.slot(slot)
		if r.completions >= r.sends && r.completions > 0 && r.completedAt <= max(t.refreshed, c.lastCrashR) {
			c.r.Replay++
			c.r.ReplayExamples = addExample(c.r.ReplayExamples, msg)
		}
		b.deliveredAt, r.deliveredAt, t.refreshed = i, i, i
		c.put(key, r)

	case trace.KindOK:
		c.r.OKs++
		if t := c.slot(slot); t.live {
			r := c.get(t.key)
			if r.deliveredAt <= r.sentAt {
				c.r.Order++
				c.r.OrderExamples = addExample(c.r.OrderExamples, t.msg)
			}
			c.complete(t, r, i)
		}

	case trace.KindCrashT:
		c.r.CrashT++
		for s := range c.slots {
			if t := &c.slots[s]; t.live {
				c.complete(t, c.get(t.key), i)
			}
		}

	case trace.KindCrashR:
		c.r.CrashR++
		c.lastCrashR = i
	}
}

// complete grants t's attempt, of the payload with record r, one
// completion (OK or crash^T wipe), capped at its send count.
func (c *Checker) complete(t *slotTrack, r record, i int) {
	t.live = false
	if r.completions < r.sends {
		r.completions++
		r.completedAt = i
		c.put(t.key, r)
	}
}

// Report returns the verification state so far.
func (c *Checker) Report() Report { return c.r }

// Check walks a complete execution and returns its Report.
func Check(events []trace.Event) Report {
	var c Checker
	for _, e := range events {
		c.Observe(e)
	}
	return c.Report()
}

func addExample(list []string, m []byte) []string {
	if len(list) < maxExamples {
		list = append(list, string(m))
	}
	return list
}

// liveHorizon is Live's Checker horizon: the depth R of a relay node's
// per-hop dedup window (DESIGN.md section 6), so a hop's checker labels a
// replay as far back as the hop's own dedup remembers it. Each of the two
// tables holds 16 to 32 records of an 80-byte digest and record, a few KB
// per checker, and the eight checkers a five-node mesh populates come to
// some 40 KB. A replay from further back counts as Causality.
const liveHorizon = 16

// Live adapts Checker for use as the tap of live netlink stations: Observe
// has the tap's signature, is safe to call from both stations' goroutines
// at once, and checks events in arrival order — which, as each station
// emits at the action's commit point (under its lock, before dependent
// packets leave), is a legitimate interleaving of the real execution. It
// checks with a horizon: O(window + liveHorizon) records whatever the
// traffic, no allocation in steady state. The zero value is ready to use.
type Live struct {
	mu sync.Mutex
	c  Checker
}

// Observe records one station action; msg is digested in place, not kept.
func (l *Live) Observe(kind trace.Kind, msg []byte, slot int) {
	l.mu.Lock()
	l.c.horizon = liveHorizon
	l.c.observe(kind, msg, slot)
	l.mu.Unlock()
}

// Report returns the verification state so far.
func (l *Live) Report() Report {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.c.Report()
}
