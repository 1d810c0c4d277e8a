package netlink

import (
	"ghm/internal/metrics"
)

// Metric names exported by the netlink layer. The tx.* and rx.* families
// are cumulative across station crashes: the stations flush the core
// state machines' per-incarnation counters into the registry as deltas
// before every crash^T / crash^R wipes them.
//
// The link.* family is shared by every ImpairedConn registered under the
// same prefix, so with both directions of a link on one registry the
// counters report link totals.

// The names are declared as constants (not inline literals) so the full
// inventory is greppable and a typo cannot silently fork a metric — the
// metricname analyzer in internal/lint enforces this.
const (
	mTxSendMsgs         = "tx.send_msgs"
	mTxOKs              = "tx.oks"
	mTxCrashes          = "tx.crashes"
	mTxAbandoned        = "tx.abandoned"
	mTxPacketsSent      = "tx.packets_sent"
	mTxPacketsReceived  = "tx.packets_received"
	mTxErrorsCounted    = "tx.errors_counted"
	mTxTagExtensions    = "tx.tag_extensions"
	mTxReplayRejections = "tx.replay_rejections"
	mTxOKLatencyMS      = "tx.ok_latency_ms"
)

// The window counters of the same two families. Every station registers
// them, whatever its depth: a depth-1 station is a window of one slot, so
// its tx.window_inflight reads 0 or 1 and its rx.window_pending stays 0.
const (
	mTxWindowAdmitted   = "tx.window_admitted"    // messages admitted into window slots
	mTxWindowInflight   = "tx.window_inflight"    // gauge: slots currently occupied
	mTxWindowWiped      = "tx.window_wiped"       // in-flight messages wiped by a crash^T
	mRxWindowPending    = "rx.window_pending"     // gauge: deliveries held for in-order release
	mRxWindowReleased   = "rx.window_released"    // deliveries released in admission order
	mRxWindowDupDropped = "rx.window_dup_dropped" // resubmission duplicates dropped by seq
)

const (
	mRxDelivered         = "rx.delivered"
	mRxCrashes           = "rx.crashes"
	mRxPacketsSent       = "rx.packets_sent"
	mRxPacketsReceived   = "rx.packets_received"
	mRxErrorsCounted     = "rx.errors_counted"
	mRxChallengeExts     = "rx.challenge_extensions"
	mRxReplayRejections  = "rx.replay_rejections"
	mRxRetries           = "rx.retries"     // wheel firings that fired RETRY on at least one slot
	mRxRetryCTLs         = "rx.retry_ctls"  // CTL packets those firings put on the wire
	mRxRetryEarly        = "rx.retry_early" // firings brought forward by a challenge extension, or room after a held ack
	mRxDeliveriesDropped = "rx.deliveries_dropped"
	mRxIngressShed       = "rx.ingress_shed"      // packets the capacity gate refused: 0 unless a delivery was forged on a held slot
	mRxAcksHeld          = "rx.acks_held"         // replies held back while the delivery buffer was at its mark
	mRxRetryIntervalMS   = "rx.retry_interval_ms" // gauge: the gap to the next RETRY of the slot that fired last
)

// Adversary metrics (the attacker-in-the-middle; see
// internal/netlink/attacker.go): attacks mounted by the strategy,
// suppressed by circumstance, and landed on the wire.
const (
	mAdvObserved   = "adversary.packets_observed"   // packets that crossed the attacker
	mAdvCaptured   = "adversary.packets_captured"   // packets retained for replay
	mAdvMounted    = "adversary.attacks_mounted"    // attack actions emitted
	mAdvLanded     = "adversary.attacks_landed"     // attack actions executed
	mAdvSuppressed = "adversary.attacks_suppressed" // attack actions that fizzled
	mAdvReplayed   = "adversary.replays_injected"   // captured packets re-sent
	mAdvCrashes    = "adversary.crashes_injected"   // crash hooks invoked
	mAdvBlackouts  = "adversary.blackouts_injected" // blackout windows applied
)

// An impaired link's fate counters.
const (
	mLinkSent         = "link.sent"
	mLinkDelivered    = "link.delivered"
	mLinkDuplicated   = "link.duplicated"
	mLinkDelayed      = "link.delayed"
	mLinkDropIID      = "link.drop_iid"
	mLinkDropBurst    = "link.drop_burst"
	mLinkDropBlackout = "link.drop_blackout"
	mLinkDropQueue    = "link.drop_queue"
)

// senderMetrics are the transmitting station's registry hooks.
type senderMetrics struct {
	sendMsgs         *metrics.Counter // send_msg actions accepted
	oks              *metrics.Counter // transfers completed (OK)
	crashes          *metrics.Counter // crash^T events (API, cancel, close)
	abandoned        *metrics.Counter // transfers wiped before their OK
	packetsSent      *metrics.Counter // DATA packets emitted
	packetsReceived  *metrics.Counter // protocol rounds (packets processed)
	errorsCounted    *metrics.Counter // same-length tag mismatches (num^T)
	tagExtensions    *metrics.Counter // tag regenerations (t^T increments)
	replayRejections *metrics.Counter // malformed/stale/idle packets ignored
	okLatencyMS      *metrics.Histogram
	windowAdmitted   *metrics.Counter // messages admitted into slots
	windowInflight   *metrics.Gauge   // slots currently occupied
	windowWiped      *metrics.Counter // in-flight messages lost to a crash^T
}

func newSenderMetrics(r *metrics.Registry) senderMetrics {
	if r == nil {
		r = metrics.Default()
	}
	return senderMetrics{
		sendMsgs:         r.Counter(mTxSendMsgs),
		oks:              r.Counter(mTxOKs),
		crashes:          r.Counter(mTxCrashes),
		abandoned:        r.Counter(mTxAbandoned),
		packetsSent:      r.Counter(mTxPacketsSent),
		packetsReceived:  r.Counter(mTxPacketsReceived),
		errorsCounted:    r.Counter(mTxErrorsCounted),
		tagExtensions:    r.Counter(mTxTagExtensions),
		replayRejections: r.Counter(mTxReplayRejections),
		okLatencyMS:      r.Histogram(mTxOKLatencyMS),
		windowAdmitted:   r.Counter(mTxWindowAdmitted),
		windowInflight:   r.Gauge(mTxWindowInflight),
		windowWiped:      r.Counter(mTxWindowWiped),
	}
}

// receiverMetrics are the receiving station's registry hooks.
type receiverMetrics struct {
	delivered         *metrics.Counter // receive_msg actions committed
	crashes           *metrics.Counter // crash^R events
	packetsSent       *metrics.Counter // CTL packets emitted
	packetsReceived   *metrics.Counter // protocol rounds (packets processed)
	errorsCounted     *metrics.Counter // same-length challenge mismatches
	challengeExts     *metrics.Counter // challenge regenerations (t^R)
	replayRejections  *metrics.Counter // malformed/stale packets ignored
	retries           *metrics.Counter // wheel firings that fired RETRY on at least one slot
	retryCTLs         *metrics.Counter // CTL packets RETRY put on the wire
	retryEarly        *metrics.Counter // firings brought forward by an extension, or room after a held ack
	deliveriesDropped *metrics.Counter // committed deliveries lost to Close
	ingressShed       *metrics.Counter // packets the capacity gate shed unprocessed
	acksHeld          *metrics.Counter // replies held back by a full delivery buffer
	retryIntervalMS   *metrics.Gauge   // the (possibly backed-off) gap of the slot that fired last
	windowPending     *metrics.Gauge   // deliveries parked for resequencing
	windowReleased    *metrics.Counter // deliveries released in admission order
	windowDupDropped  *metrics.Counter // resubmission duplicates dropped by seq
}

func newReceiverMetrics(r *metrics.Registry) receiverMetrics {
	if r == nil {
		r = metrics.Default()
	}
	return receiverMetrics{
		delivered:         r.Counter(mRxDelivered),
		crashes:           r.Counter(mRxCrashes),
		packetsSent:       r.Counter(mRxPacketsSent),
		packetsReceived:   r.Counter(mRxPacketsReceived),
		errorsCounted:     r.Counter(mRxErrorsCounted),
		challengeExts:     r.Counter(mRxChallengeExts),
		replayRejections:  r.Counter(mRxReplayRejections),
		retries:           r.Counter(mRxRetries),
		retryCTLs:         r.Counter(mRxRetryCTLs),
		retryEarly:        r.Counter(mRxRetryEarly),
		deliveriesDropped: r.Counter(mRxDeliveriesDropped),
		ingressShed:       r.Counter(mRxIngressShed),
		acksHeld:          r.Counter(mRxAcksHeld),
		retryIntervalMS:   r.Gauge(mRxRetryIntervalMS),
		windowPending:     r.Gauge(mRxWindowPending),
		windowReleased:    r.Counter(mRxWindowReleased),
		windowDupDropped:  r.Counter(mRxWindowDupDropped),
	}
}

// adversaryMetrics are an Attacker's registry hooks.
type adversaryMetrics struct {
	observed   *metrics.Counter // packets that crossed the attacker
	captured   *metrics.Counter // packets retained for replay
	mounted    *metrics.Counter // attack actions emitted by the strategy
	landed     *metrics.Counter // attack actions executed against the link
	suppressed *metrics.Counter // attack actions that could not execute
	replayed   *metrics.Counter // captured packets re-injected
	crashes    *metrics.Counter // crash hooks invoked
	blackouts  *metrics.Counter // blackout windows applied
}

func newAdversaryMetrics(r *metrics.Registry) adversaryMetrics {
	if r == nil {
		r = metrics.Default()
	}
	return adversaryMetrics{
		observed:   r.Counter(mAdvObserved),
		captured:   r.Counter(mAdvCaptured),
		mounted:    r.Counter(mAdvMounted),
		landed:     r.Counter(mAdvLanded),
		suppressed: r.Counter(mAdvSuppressed),
		replayed:   r.Counter(mAdvReplayed),
		crashes:    r.Counter(mAdvCrashes),
		blackouts:  r.Counter(mAdvBlackouts),
	}
}

// linkMetrics are an impaired link's registry hooks; links sharing a
// registry share the counters (their counts sum).
type linkMetrics struct {
	sent         *metrics.Counter // packets accepted from the caller
	delivered    *metrics.Counter // packets released to the underlying conn
	duplicated   *metrics.Counter // extra copies injected
	delayed      *metrics.Counter // packets held by latency/jitter/bandwidth
	dropIID      *metrics.Counter // drops by the i.i.d. loss probability
	dropBurst    *metrics.Counter // drops by the Gilbert–Elliott machine
	dropBlackout *metrics.Counter // drops during a blackout window
	dropQueue    *metrics.Counter // drops past the queue cap
}

func newLinkMetrics(r *metrics.Registry) linkMetrics {
	if r == nil {
		r = metrics.Default()
	}
	return linkMetrics{
		sent:         r.Counter(mLinkSent),
		delivered:    r.Counter(mLinkDelivered),
		duplicated:   r.Counter(mLinkDuplicated),
		delayed:      r.Counter(mLinkDelayed),
		dropIID:      r.Counter(mLinkDropIID),
		dropBurst:    r.Counter(mLinkDropBurst),
		dropBlackout: r.Counter(mLinkDropBlackout),
		dropQueue:    r.Counter(mLinkDropQueue),
	}
}

// count mirrors one fate decision into the registry (deliveries are
// counted as they happen, by the driver).
func (m *linkMetrics) count(f Fate) {
	m.sent.Inc()
	switch f.Drop {
	case DropIID:
		m.dropIID.Inc()
		return
	case DropBurst:
		m.dropBurst.Inc()
		return
	case DropBlackout:
		m.dropBlackout.Inc()
		return
	}
	copies := 1
	if f.Dup {
		copies = 2
		m.duplicated.Inc()
	}
	m.dropQueue.Add(int64(copies - f.N))
	for _, d := range f.Delay[:f.N] {
		if d > 0 {
			m.delayed.Inc()
		}
	}
}
