package ghm

import (
	//lint:allow cryptorand WithSeed is the documented deterministic-mode escape hatch; see its doc comment
	"math/rand"
	"time"

	"ghm/internal/bitstr"
	"ghm/internal/core"
)

// Option configures a Sender or Receiver.
type Option interface {
	apply(*options)
}

type options struct {
	epsilon       float64
	retryInterval time.Duration
	retryBackoff  time.Duration
	seed          int64
	hasSeed       bool
	size          func(t int) int
	bound         func(t int) int
	tap           func(Event)
	window        int
	epoch         uint64
}

// windowDepth resolves the window option: 0 (unset) means depth 1; any
// other value is passed through for the constructors to validate.
func (o options) windowDepth() int {
	if o.window == 0 {
		return 1
	}
	return o.window
}

func applyOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt.apply(&o)
	}
	return o
}

func (o options) params() core.Params {
	p := core.Params{
		Epsilon: o.epsilon,
		Size:    o.size,
		Bound:   o.bound,
	}
	if o.hasSeed {
		//lint:allow cryptorand WithSeed deliberately trades the ε-bounds for reproducibility; its doc says tests only
		p.Source = bitstr.NewMathSource(rand.New(rand.NewSource(o.seed)))
	}
	return p
}

type epsilonOption float64

func (e epsilonOption) apply(o *options) { o.epsilon = float64(e) }

// WithEpsilon sets the permitted error probability per message
// (0 < eps < 1). Smaller epsilon means longer random strings in every
// packet; the default 2^-20 costs about 25 bits per string.
func WithEpsilon(eps float64) Option { return epsilonOption(eps) }

type retryOption time.Duration

// WithRetryInterval paces the receiving station's RETRY action (default
// 2ms), counted from the slot's last CTL, so a busy link sends no RETRY at
// all: each window slot asks again only when this long has passed since the
// last control packet it sent, be that an acknowledgement or an earlier
// RETRY. Shorter intervals recover from loss faster at the cost of idle
// control traffic; an interval above the link's round trip keeps RETRY off
// exchanges that are merely in flight. Senders ignore this option: the
// protocol's transmitter is purely reactive.
func WithRetryInterval(d time.Duration) Option { return retryOption(d) }

func (r retryOption) apply(o *options) { o.retryInterval = time.Duration(r) }

type retryBackoffOption time.Duration

// WithRetryBackoff enables the receiving station's adaptive retry pacing,
// per window slot: while a slot hears nothing (the link is idle, or
// blacked out) the gap to its next RETRY doubles, up to max, and the first
// packet to arrive for the slot brings it back to the WithRetryInterval
// base — a replay aimed at one slot does not reset the pacing of the
// others. Idle links stop burning control traffic without giving up the
// "infinitely often" retries the protocol's liveness needs. Senders ignore
// this option.
func WithRetryBackoff(max time.Duration) Option { return retryBackoffOption(max) }

func (r retryBackoffOption) apply(o *options) { o.retryBackoff = time.Duration(r) }

type tapOption func(Event)

// WithTap registers a callback observing the station's lifecycle actions
// (send_msg, OK, receive_msg, crashes) at the moment they commit. The
// callback runs on the station's internal goroutines with its lock held:
// it must be fast and must not call back into the station. Taps exist for
// chaos testing, conformance checking and monitoring.
func WithTap(fn func(Event)) Option { return tapOption(fn) }

func (t tapOption) apply(o *options) { o.tap = t }

type seedOption int64

// WithSeed makes the station's random strings deterministic, for tests and
// reproducible experiments. Production stations should omit it and use the
// default crypto-quality source: the protocol's guarantees against
// malicious schedulers assume the adversary cannot predict the strings.
func WithSeed(seed int64) Option { return seedOption(seed) }

func (s seedOption) apply(o *options) {
	o.seed = int64(s)
	o.hasSeed = true
}

// MaxWindow is the largest sliding-window depth WithWindow accepts.
const MaxWindow = core.MaxWindow

type windowOption int

// WithWindow sets the station's sliding-window depth k (1..MaxWindow,
// default 1): up to k Send calls proceed concurrently on one station,
// each confirmed by its own slot of the protocol, and the receiving
// station releases deliveries to Recv in admission order, exactly once.
// Both stations must use the same depth. The stop-and-wait protocol
// confirms one message per link round trip; a window of k confirms up to
// k per round trip on latency-bound links.
//
// One crash model covers the whole window: cancelling any in-flight Send
// (or Crash) erases the entire station, failing every concurrent Send
// with ErrCrashed. Every wiped payload must be resubmitted byte-identical
// or the receiver's in-order release stalls at the hole — NewSession does
// this automatically; manual callers own that contract, exactly as with
// lane multiplexing.
//
// A windowed Receiver outliving its Sender needs WithEpoch on each
// rebuilt Sender: a fresh Sender restarts its internal sequence numbers,
// and without a higher epoch the receiver's in-order release treats the
// restarted stream as a replay and silently drops it.
func WithWindow(k int) Option { return windowOption(k) }

func (w windowOption) apply(o *options) { o.window = int(w) }

type epochOption uint64

// WithEpoch identifies a windowed Sender's incarnation (default 0) to a
// windowed Receiver that outlives it. Each Sender restarts its internal
// admission sequence numbers at zero; the receiver distinguishes a
// rebuilt sender from a replay of the old one only by the epoch, adopting
// the highest it sees and resetting its release cursor for it. Pass a
// strictly higher epoch each time a new Sender is attached to a
// long-lived windowed Receiver — reusing an epoch makes the receiver
// silently drop the new stream as duplicates while Send reports success.
// A pair built and torn down together can leave it 0. Raising the epoch
// abandons the previous incarnation's dedup state, so delivery across a
// rebuild is at-least-once. Receivers and single-slot (window 1) stations
// ignore this option; NewSession manages epochs automatically.
func WithEpoch(epoch uint64) Option { return epochOption(epoch) }

func (e epochOption) apply(o *options) { o.epoch = uint64(e) }

type scheduleOption struct {
	size  func(t int) int
	bound func(t int) int
}

// WithSchedule overrides the paper's size/bound schedule: size(t) is the
// number of fresh bits drawn at extension level t, bound(t) the number of
// same-length mismatches tolerated before extending. The paper's
// conclusions pose choosing these well as an open problem; see experiment
// E8 in EXPERIMENTS.md for measured tradeoffs. Either function may be nil
// to keep its default.
func WithSchedule(size, bound func(t int) int) Option {
	return scheduleOption{size: size, bound: bound}
}

func (s scheduleOption) apply(o *options) {
	if s.size != nil {
		o.size = s.size
	}
	if s.bound != nil {
		o.bound = s.bound
	}
}
