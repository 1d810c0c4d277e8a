package verify

import "ghm/internal/trace"

// The reference: the checker as it stood before the streaming rewrite,
// moved here verbatim (type names aside). It keeps every payload it has
// ever seen — four maps and two growing slices each — which is what the
// rewrite removes; the differential tests hold the flat, retiring Checker
// to its Report on every trace.

// refChecker verifies an execution incrementally: feed every event to
// Observe and read the Report at any point. Streaming matters because
// hostile-adversary executions run to tens of millions of packet events;
// the checker's state stays proportional to the number of distinct
// messages. The zero value is ready to use.
type refChecker struct {
	r Report

	idx        int
	msgs       map[string]*refMsgState
	lastCrashR int
	// refreshed holds each receiver slot's last receive_msg index: the
	// slot's session moved on, so older abandoned attempts on that slot
	// can no longer deliver without a fresh handshake. crash^R refreshes
	// every slot at once (the whole station redraws its randomness), so a
	// slot's effective refresh point is max(refreshed[slot], lastCrashR).
	refreshed map[int]int
	inFlight  map[int]string // slot -> payload awaiting its OK
	init      bool
}

// refMsgState tracks one payload across all of its send attempts. Sends and
// deliveries are additionally keyed by slot: the slot index is framed
// into every packet, so an attempt admitted on slot s can only ever be
// delivered by the receiver's slot-s machine, and the no-duplication
// allowance (k slot-s sends license k slot-s deliveries, plus one
// crash^R redelivery) is a per-slot budget.
type refMsgState struct {
	sends           int         // send_msg events for this payload
	slotSends       map[int]int // send_msg events per slot
	lastSentAt      int         // index of the most recent send_msg
	deliveredAt     []int       // indices of every receive_msg
	slotDelivered   map[int][]int
	slotSendUsed    map[int]int // send licenses consumed per slot
	slotCrashUsed   map[int]int // index of the last crash^R license consumed per slot
	completions     int         // OK or crash^T completions granted
	lastCompletedAt int         // index of the most recent completion
}

func (c *refChecker) ensure() {
	if c.init {
		return
	}
	c.msgs = make(map[string]*refMsgState)
	c.inFlight = make(map[int]string)
	c.refreshed = make(map[int]int)
	c.lastCrashR = -1
	c.init = true
}

// complete grants one attempt-completion (OK or crash^T wipe) to a
// payload, capped at its send count.
func (c *refChecker) complete(st *refMsgState, i int) {
	if st.completions < st.sends {
		st.completions++
		st.lastCompletedAt = i
	}
}

func (c *refChecker) state(m string) *refMsgState {
	st, ok := c.msgs[m]
	if !ok {
		st = &refMsgState{
			lastSentAt:      -1,
			lastCompletedAt: -1,
			slotSends:       make(map[int]int),
			slotDelivered:   make(map[int][]int),
			slotSendUsed:    make(map[int]int),
			slotCrashUsed:   make(map[int]int),
		}
		c.msgs[m] = st
	}
	return st
}

// Observe feeds one event. Packet-level events are ignored; only the
// higher-layer actions participate in the Section 2.6 conditions.
func (c *refChecker) Observe(e trace.Event) {
	c.ensure()
	i := c.idx
	c.idx++
	switch e.Kind {
	case trace.KindSendMsg:
		c.r.Sent++
		st := c.state(e.Msg)
		st.sends++
		st.slotSends[e.Slot]++
		st.lastSentAt = i
		c.inFlight[e.Slot] = e.Msg

	case trace.KindReceiveMsg:
		c.r.Delivered++
		st := c.state(e.Msg)

		if st.sends == 0 {
			c.r.Causality++
			c.r.CausalityExamples = refAddExample(c.r.CausalityExamples, e.Msg)
		}

		// No-duplication: every delivery must be licensed, either by a
		// crash^R that postdates this slot's previous delivery of the
		// payload (the old packet re-accepted against the fresh challenge —
		// one redelivery per crash) or by a send_msg on this slot (each
		// attempt licenses one delivery). The crash license is consumed
		// first: it expires at the next crash^R or never recurs, while send
		// licenses keep, so the greedy order never rejects a legal trace. A
		// crash^R-licensed redelivery on another slot does not touch this
		// slot's budget (attempts never migrate slots — the slot index is
		// framed into every packet); with a single slot everything lands on
		// slot 0 and the rule is the original global one.
		prev := st.slotDelivered[e.Slot]
		switch {
		case len(prev) > 0 && c.lastCrashR > prev[len(prev)-1] &&
			st.slotCrashUsed[e.Slot] < c.lastCrashR:
			st.slotCrashUsed[e.Slot] = c.lastCrashR
		case st.slotSendUsed[e.Slot] < st.slotSends[e.Slot]:
			st.slotSendUsed[e.Slot]++
		case len(prev) > 0:
			c.r.Duplication++
			c.r.DuplicationExamples = refAddExample(c.r.DuplicationExamples, e.Msg)
		}

		refresh := c.lastCrashR
		if r, ok := c.refreshed[e.Slot]; ok && r > refresh {
			refresh = r
		}
		if st.completions >= st.sends && st.completions > 0 &&
			st.lastCompletedAt <= refresh {
			// Every attempt was completed before this slot's last refresh:
			// the slot's session had drawn a fresh challenge since, so this
			// is the replay Theorem 7 makes improbable. The refresh point is
			// per slot — a windowed receiver's other slots delivering says
			// nothing about this slot's challenge freshness.
			c.r.Replay++
			c.r.ReplayExamples = refAddExample(c.r.ReplayExamples, e.Msg)
		}

		st.deliveredAt = append(st.deliveredAt, i)
		st.slotDelivered[e.Slot] = append(st.slotDelivered[e.Slot], i)
		c.refreshed[e.Slot] = i

	case trace.KindOK:
		c.r.OKs++
		if m, live := c.inFlight[e.Slot]; live {
			st := c.state(m)
			ok := false
			for _, d := range st.deliveredAt {
				if d > st.lastSentAt && d < i {
					ok = true
					break
				}
			}
			if !ok {
				c.r.Order++
				c.r.OrderExamples = refAddExample(c.r.OrderExamples, m)
			}
			c.complete(st, i)
			delete(c.inFlight, e.Slot)
		}

	case trace.KindCrashT:
		c.r.CrashT++
		// crash^T erases the whole station: every slot's in-flight attempt
		// joins M_alpha at once (the shared crash model of windowed
		// stations; a single-slot station has at most slot 0 live).
		for slot, m := range c.inFlight {
			c.complete(c.state(m), i)
			delete(c.inFlight, slot)
		}

	case trace.KindCrashR:
		c.r.CrashR++
		c.lastCrashR = i
	}
}

// Report returns the verification state so far.
func (c *refChecker) Report() Report { return c.r }

// refCheck walks a complete execution through the reference.
func refCheck(events []trace.Event) Report {
	var c refChecker
	for _, e := range events {
		c.Observe(e)
	}
	return c.Report()
}

func refAddExample(list []string, m string) []string {
	if len(list) < maxExamples {
		list = append(list, m)
	}
	return list
}
