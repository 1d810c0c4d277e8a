// Package swarm boots very large populations of protocol station pairs
// — tens of thousands to hundreds of thousands — on an in-memory fabric
// under a virtual clock, and soaks them through a seeded fault schedule
// entirely in virtual time.
//
// The harness is single-threaded: every station is a pure state machine
// (ghm/internal/core) whose I/O runs inline in fabric delivery handlers
// and clock callbacks, so a 100k-station, 60-virtual-second soak is one
// goroutine walking one event heap. That shape is what makes two things
// possible at once: scale (no goroutine stacks, no channel buffers per
// station) and determinism (a fixed seed replays the identical event
// sequence, byte for byte).
//
// A sampled subset of pairs streams its higher-layer actions through
// ghm/internal/verify, checking the paper's Section 2.6 correctness
// conditions live under crashes, blackouts and loss pulses; every
// pair's actions additionally feed a running trace digest, so two runs
// can be compared for equality without retaining the trace.
package swarm

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"strconv"
	"time"

	"ghm/internal/bitstr"
	"ghm/internal/clock"
	"ghm/internal/core"
	"ghm/internal/fabric"
	"ghm/internal/netlink"
	"ghm/internal/trace"
	"ghm/internal/verify"
)

// LinkProfile is the impairment model applied to every pair's link,
// in both directions (see fabric.LinkConfig for semantics).
type LinkProfile struct {
	Loss    float64       `json:"loss"`
	DupProb float64       `json:"dup_prob"`
	Latency time.Duration `json:"latency"`
	Jitter  time.Duration `json:"jitter"`
}

// FaultProfile shapes the virtual-time chaos schedule. Faults fire on a
// world-level timer; each firing picks one pair (alternating between
// the whole population and the verified sample, so the checkers always
// see crash traffic) and one fault: transmitter crash, receiver crash,
// link blackout, or a loss pulse.
type FaultProfile struct {
	// Every is the interval between fault injections; 0 picks a default
	// (25ms), negative disables faults entirely.
	Every time.Duration `json:"every"`
	// BlackoutMax bounds blackout and loss-pulse windows (default 250ms;
	// actual windows are drawn uniformly from [Every, BlackoutMax]).
	BlackoutMax time.Duration `json:"blackout_max"`
	// PulseLoss is the loss probability during a loss pulse (default 0.5).
	PulseLoss float64 `json:"pulse_loss"`
}

// Config parameterizes one swarm soak.
type Config struct {
	// Stations is the number of protocol stations to boot; they are
	// wired into Stations/2 transmitter–receiver pairs, one fabric link
	// each. Required.
	Stations int `json:"stations"`
	// Duration is the virtual length of the soak (default 60s).
	Duration time.Duration `json:"duration"`
	// Seed fixes the whole run: station randomness, link schedules,
	// fault schedule, submission phases (default 1).
	Seed int64 `json:"seed"`
	// Epsilon is the per-message error probability (default
	// core.DefaultEpsilon).
	Epsilon float64 `json:"epsilon,omitempty"`
	// MsgEvery paces each pair's higher layer: one message submission
	// attempt per interval (default 2s).
	MsgEvery time.Duration `json:"msg_every"`
	// RetryEvery paces each receiver's RETRY action (default 1s).
	RetryEvery time.Duration `json:"retry_every"`
	// Link is every pair's impairment model.
	Link LinkProfile `json:"link"`
	// Faults is the chaos schedule.
	Faults FaultProfile `json:"faults"`
	// Sample is how many pairs run under full Section 2.6 verification
	// (default 64, capped at the pair count). Sampling keeps checker
	// state off the fast path for the bulk of the population.
	Sample int `json:"sample"`
	// TraceWriter, when set, receives one line per higher-layer action
	// of every pair, in execution order — the run's full trace. Two runs
	// with the same Config produce identical streams.
	TraceWriter io.Writer `json:"-"`
}

func (cfg Config) withDefaults() (Config, error) {
	if cfg.Stations < 2 {
		return cfg, errors.New("swarm: need at least 2 stations")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 60 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MsgEvery <= 0 {
		cfg.MsgEvery = 2 * time.Second
	}
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = time.Second
	}
	if cfg.Faults.Every == 0 {
		cfg.Faults.Every = 25 * time.Millisecond
	}
	if cfg.Faults.BlackoutMax <= 0 {
		cfg.Faults.BlackoutMax = 250 * time.Millisecond
	}
	if cfg.Faults.PulseLoss == 0 {
		cfg.Faults.PulseLoss = 0.5
	}
	if cfg.Sample == 0 {
		cfg.Sample = 64
	}
	if n := cfg.Stations / 2; cfg.Sample > n {
		cfg.Sample = n
	}
	return cfg, nil
}

// SampleReport is one verified pair's Section 2.6 outcome.
type SampleReport struct {
	Pair      int    `json:"pair"`
	Attempted int    `json:"attempted"`
	Completed int    `json:"completed"`
	Delivered int    `json:"delivered"`
	CrashT    int    `json:"crash_t"`
	CrashR    int    `json:"crash_r"`
	Clean     bool   `json:"clean"`
	Report    string `json:"report"`
}

// Result summarizes one swarm soak.
type Result struct {
	Stations       int     `json:"stations"`
	Pairs          int     `json:"pairs"`
	VirtualSeconds float64 `json:"virtual_seconds"`
	WallSeconds    float64 `json:"wall_seconds"`
	// Rate is the harness capacity datapoint: station×virtual-seconds
	// simulated per wall-second.
	Rate float64 `json:"station_virtual_seconds_per_wall_second"`

	Attempted int64 `json:"attempted"`
	Completed int64 `json:"completed"`
	Delivered int64 `json:"delivered"`
	CrashT    int64 `json:"crash_t"`
	CrashR    int64 `json:"crash_r"`
	Blackouts int64 `json:"blackouts"`
	Pulses    int64 `json:"loss_pulses"`

	PacketsSent      int64 `json:"packets_sent"`
	PacketsDelivered int64 `json:"packets_delivered"`
	PacketsDropped   int64 `json:"packets_dropped"`
	Instants         int64 `json:"clock_instants"`

	// TraceHash digests every pair's higher-layer actions in execution
	// order (FNV-64a); equal hashes mean equal executions.
	TraceHash string `json:"trace_hash"`
	// Clean reports that every sampled pair verified clean.
	Clean   bool           `json:"clean"`
	Sampled []SampleReport `json:"sampled"`
}

// pair is one transmitter–receiver station pair and its link.
type pair struct {
	id int
	tx *core.Transmitter
	rx *core.Receiver
	pt *fabric.Port // transmitter's end of the link
	pr *fabric.Port // receiver's end

	seq       int // next message sequence number
	attempted int
	completed int
	delivered int
	crashT    int
	crashR    int

	step    int             // per-pair action counter (trace ordering)
	checker *verify.Checker // non-nil for sampled pairs
}

// world is the running soak.
type world struct {
	cfg   Config
	clk   *clock.Virtual
	fab   *fabric.Fabric
	pairs []*pair

	rng       clock.SplitMix // fault schedule + fault parameter draws
	faults    int            // fault firings so far (sample targeting alternation)
	blackouts int64
	pulses    int64

	hash   hash.Hash64
	wbuf   []byte
	writer io.Writer
}

// Run executes one swarm soak to completion and reports it.
func Run(cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	v := clock.NewVirtual(time.Time{}, cfg.Seed)
	fab := fabric.New(fabric.Config{Clock: v, Seed: clock.MixSeed(cfg.Seed, 0x5a)})
	w := &world{
		cfg:    cfg,
		clk:    v,
		fab:    fab,
		rng:    clock.SplitMix(clock.MixSeed(cfg.Seed, 0xfa)),
		hash:   fnv.New64a(),
		writer: cfg.TraceWriter,
	}

	nPairs := cfg.Stations / 2
	w.pairs = make([]*pair, nPairs)
	for i := 0; i < nPairs; i++ {
		p, err := w.newPair(i)
		if err != nil {
			return nil, err
		}
		w.pairs[i] = p
	}
	// Sampled pairs spread evenly across the population so faults and
	// phase offsets hit a representative slice.
	for s := 0; s < cfg.Sample; s++ {
		w.pairs[s*nPairs/cfg.Sample].checker = &verify.Checker{}
	}
	w.arm()

	start := v.Now()
	wallStart := time.Now()
	v.AdvanceUntil(start.Add(cfg.Duration))
	wall := time.Since(wallStart)

	return w.collect(wall), nil
}

func (w *world) newPair(i int) (*pair, error) {
	ptx := core.Params{
		Epsilon: w.cfg.Epsilon,
		Source:  bitstr.NewSeededSource(clock.MixSeed(w.cfg.Seed, int64(2*i+1))),
	}
	prx := core.Params{
		Epsilon: w.cfg.Epsilon,
		Source:  bitstr.NewSeededSource(clock.MixSeed(w.cfg.Seed, int64(2*i+2))),
	}
	tx, err := core.NewTransmitter(ptx)
	if err != nil {
		return nil, fmt.Errorf("swarm: pair %d: %w", i, err)
	}
	rx, err := core.NewReceiver(prx)
	if err != nil {
		return nil, fmt.Errorf("swarm: pair %d: %w", i, err)
	}
	pt, pr := w.fab.Link(fabric.LinkConfig{
		LinkModel: netlink.LinkModel{
			Loss:    w.cfg.Link.Loss,
			DupProb: w.cfg.Link.DupProb,
			Latency: w.cfg.Link.Latency,
			Jitter:  w.cfg.Link.Jitter,
		},
	})
	p := &pair{id: i, tx: tx, rx: rx, pt: pt, pr: pr}
	// Inline ingress: a CTL packet arriving at the transmitter's port or
	// a DATA packet at the receiver's runs the station machine right at
	// its virtual delivery instant.
	pt.SetHandler(func(pkt []byte) {
		out := p.tx.ReceivePacket(pkt)
		if out.OK {
			p.completed++
			w.observe(p, trace.KindOK, "")
		}
		w.route(p.pt, out.Packets)
	})
	pr.SetHandler(func(pkt []byte) {
		out := p.rx.ReceivePacket(pkt)
		for _, m := range out.Delivered {
			p.delivered++
			w.observe(p, trace.KindReceiveMsg, string(m))
		}
		w.route(p.pr, out.Packets)
	})
	return p, nil
}

// arm schedules every pair's submission and retry pacing plus the fault
// driver. Phases are deterministic per pair and spread uniformly so the
// population does not fire in lockstep.
func (w *world) arm() {
	for _, p := range w.pairs {
		p := p
		msgPhase := time.Duration(uint64(clock.MixSeed(w.cfg.Seed, int64(3*p.id+1))) % uint64(w.cfg.MsgEvery))
		var mt clock.Timer
		mt = w.clk.AfterFunc(msgPhase, func() {
			w.submit(p)
			mt.Reset(w.cfg.MsgEvery)
		})
		retryPhase := time.Duration(uint64(clock.MixSeed(w.cfg.Seed, int64(3*p.id+2))) % uint64(w.cfg.RetryEvery))
		var rt clock.Timer
		rt = w.clk.AfterFunc(retryPhase, func() {
			w.route(p.pr, p.rx.Retry().Packets)
			rt.Reset(w.cfg.RetryEvery)
		})
	}
	if w.cfg.Faults.Every < 0 {
		return
	}
	var ft clock.Timer
	ft = w.clk.AfterFunc(w.cfg.Faults.Every, func() {
		w.injectFault()
		ft.Reset(w.cfg.Faults.Every)
	})
}

// submit pushes the pair's next unique message when its transmitter is
// free (Axiom 1: one in-flight message at a time).
func (w *world) submit(p *pair) {
	if p.tx.Busy() {
		return
	}
	m := "s" + strconv.Itoa(p.id) + "m" + strconv.Itoa(p.seq)
	p.seq++
	out, err := p.tx.SendMsg([]byte(m))
	if err != nil {
		return
	}
	p.attempted++
	w.observe(p, trace.KindSendMsg, m)
	w.route(p.pt, out.Packets)
}

// route places station output packets on the pair's link.
func (w *world) route(port *fabric.Port, pkts [][]byte) {
	for _, pkt := range pkts {
		// Fabric ports only fail when closed, and swarm links never
		// close mid-run.
		_ = port.Send(pkt)
	}
}

// injectFault fires one chaos action on one pair. Firings alternate
// between the full population and the verified sample, so conformance
// checking always sees crash and partition traffic.
func (w *world) injectFault() {
	w.faults++
	var p *pair
	if w.faults%2 == 0 && w.cfg.Sample > 0 {
		s := int(w.rng.Next() % uint64(w.cfg.Sample))
		p = w.pairs[s*len(w.pairs)/w.cfg.Sample]
	} else {
		p = w.pairs[int(w.rng.Next()%uint64(len(w.pairs)))]
	}
	span := w.cfg.Faults.BlackoutMax - w.cfg.Faults.Every
	window := w.cfg.Faults.Every
	if span > 0 {
		window += time.Duration(w.rng.Next() % uint64(span))
	}
	switch w.rng.Next() % 4 {
	case 0:
		p.tx.Crash()
		p.crashT++
		w.observe(p, trace.KindCrashT, "")
	case 1:
		p.rx.Crash()
		p.crashR++
		w.observe(p, trace.KindCrashR, "")
	case 2:
		w.blackouts++
		p.pt.SetBlackout(true)
		p.pr.SetBlackout(true)
		w.clk.AfterFunc(window, func() {
			p.pt.SetBlackout(false)
			p.pr.SetBlackout(false)
		})
	case 3:
		w.pulses++
		p.pt.SetLoss(w.cfg.Faults.PulseLoss)
		p.pr.SetLoss(w.cfg.Faults.PulseLoss)
		w.clk.AfterFunc(window, func() {
			p.pt.SetLoss(w.cfg.Link.Loss)
			p.pr.SetLoss(w.cfg.Link.Loss)
		})
	}
}

// observe records one higher-layer action: per-pair step ordering, the
// sampled checker, the world trace digest, and the optional trace
// stream. The digest covers every pair, so two runs are comparable in
// O(1) memory.
func (w *world) observe(p *pair, kind trace.Kind, msg string) {
	p.step++
	if p.checker != nil {
		p.checker.Observe(trace.Event{Step: p.step, Kind: kind, Msg: msg})
	}
	b := w.wbuf[:0]
	b = append(b, 's')
	b = strconv.AppendInt(b, int64(p.id), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, w.clk.Now().UnixNano(), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(kind), 10)
	b = append(b, ' ')
	b = append(b, msg...)
	b = append(b, '\n')
	w.wbuf = b
	w.hash.Write(b)
	if w.writer != nil {
		w.writer.Write(b)
	}
}

// collect aggregates the run.
func (w *world) collect(wall time.Duration) *Result {
	res := &Result{
		Stations:       len(w.pairs) * 2,
		Pairs:          len(w.pairs),
		VirtualSeconds: w.cfg.Duration.Seconds(),
		WallSeconds:    wall.Seconds(),
		Blackouts:      w.blackouts,
		Pulses:         w.pulses,
		Instants:       w.clk.Steps(),
		TraceHash:      fmt.Sprintf("%016x", w.hash.Sum64()),
		Clean:          true,
	}
	if res.WallSeconds > 0 {
		res.Rate = float64(res.Stations) * res.VirtualSeconds / res.WallSeconds
	}
	for _, p := range w.pairs {
		res.Attempted += int64(p.attempted)
		res.Completed += int64(p.completed)
		res.Delivered += int64(p.delivered)
		res.CrashT += int64(p.crashT)
		res.CrashR += int64(p.crashR)
		for _, st := range []*fabric.Port{p.pt, p.pr} {
			s := st.Stats()
			res.PacketsSent += s.Sent
			res.PacketsDelivered += s.Delivered
			res.PacketsDropped += s.DropIID + s.DropBurst + s.DropBlackout + s.DropQueue
		}
		if p.checker == nil {
			continue
		}
		rep := p.checker.Report()
		clean := rep.Clean()
		res.Clean = res.Clean && clean
		res.Sampled = append(res.Sampled, SampleReport{
			Pair:      p.id,
			Attempted: p.attempted,
			Completed: p.completed,
			Delivered: p.delivered,
			CrashT:    p.crashT,
			CrashR:    p.crashR,
			Clean:     clean,
			Report:    rep.String(),
		})
	}
	return res
}
