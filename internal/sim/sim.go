// Package sim composes the protocol stations, the communication channels
// and an adversary into the system of the paper's Figure 1, and runs it as
// a deterministic discrete-event simulation.
//
// The simulator is single-threaded: one logical step sends any pending
// higher-layer message, fires the receiver's RETRY action, and applies the
// adversary's delivery and crash decisions. Every externally visible
// action is recorded in a trace log, which is checked against the
// Section 2.6 correctness conditions by ghm/internal/verify.
//
// Stations are plugged in through the TxMachine/RxMachine interfaces, so
// the same harness runs both the paper's protocol (ghm/internal/core) and
// the comparison baselines (ghm/internal/baseline).
package sim

import (
	"fmt"

	"ghm/internal/adversary"
	"ghm/internal/channel"
	"ghm/internal/trace"
	"ghm/internal/verify"
)

// TxMachine is a pluggable transmitting station.
type TxMachine interface {
	// SendMsg accepts the next higher-layer message; it may emit packets.
	SendMsg(m []byte) ([][]byte, error)
	// ReceivePacket processes one packet from the R->T channel; ok
	// reports the OK action.
	ReceivePacket(p []byte) (pkts [][]byte, ok bool)
	// Crash erases all state (crash^T).
	Crash()
	// Busy reports whether a message is in flight.
	Busy() bool
}

// RxMachine is a pluggable receiving station.
type RxMachine interface {
	// ReceivePacket processes one packet from the T->R channel, returning
	// delivered messages and packets to send.
	ReceivePacket(p []byte) (delivered [][]byte, pkts [][]byte)
	// Retry fires the internal RETRY action.
	Retry() [][]byte
	// Crash erases all state (crash^R).
	Crash()
}

// TxTicker is optionally implemented by transmitting stations that
// retransmit on a timer. The paper's transmitter is purely reactive (the
// receiver's RETRY drives liveness), but the deterministic baselines are
// transmitter-driven stop-and-wait protocols and need this hook. It fires
// on the RetryEvery schedule.
type TxTicker interface {
	Tick() [][]byte
}

// StorageMeter is optionally implemented by machines to report the random
// string (or counter) storage they currently hold, in bits. The simulator
// samples it for the storage experiments (E5).
type StorageMeter interface {
	StorageBits() int
}

// Config parameterizes one simulation run.
type Config struct {
	// Messages is the number of unique messages to push through; the i-th
	// body is "m-%06d" of i, so bodies are unique (Axiom 2).
	Messages int
	// RetryEvery fires the receiver's RETRY action every so many steps.
	// Defaults to 1.
	RetryEvery int
	// MaxSteps bounds the run; a run that does not complete all messages
	// within it reports Completed=false. Defaults to 1_000_000.
	MaxSteps int
	// Adversary schedules deliveries and crashes. Required.
	Adversary adversary.Adversary
	// KeepTrace retains the full event log in the result (it can be
	// large); the verification report is always computed.
	KeepTrace bool
}

// PerMessage records accounting for one attempted message.
type PerMessage struct {
	SendStep  int  // step of the send_msg action
	DoneStep  int  // step of the OK (or crash^T abandon); -1 if never
	OK        bool // completed with OK rather than abandoned
	PacketsTR int  // DATA packets sent while this message was in flight
	PacketsRT int  // CTL packets sent while this message was in flight
	MaxTxBits int  // max transmitter storage during the window
	MaxRxBits int  // max receiver storage during the window
}

// Result summarizes one simulation run.
type Result struct {
	// Report is the Section 2.6 verification of the recorded execution.
	Report verify.Report
	// Events is the execution (only when Config.KeepTrace).
	Events []trace.Event
	// Attempted and Completed count messages pushed and OK'd.
	Attempted, Completed int
	// Steps is the number of simulated steps consumed.
	Steps int
	// Done reports that all messages completed within MaxSteps.
	Done bool
	// PacketsTR/RT count send_pkt actions per channel; DeliveredTR/RT
	// count deliver_pkt actions (duplicates included).
	PacketsTR, PacketsRT, DeliveredTR, DeliveredRT int
	// PerMessage has one entry per attempted message.
	PerMessage []PerMessage
	// MaxTxBits/MaxRxBits are the storage high-water marks over the run.
	MaxTxBits, MaxRxBits int
}

// Run simulates the composed system until all messages complete or the
// step budget is exhausted.
func Run(cfg Config, tx TxMachine, rx RxMachine) Result {
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = 1
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 1_000_000
	}
	if cfg.Adversary == nil {
		cfg.Adversary = adversary.Silence{}
	}

	s := &runner{
		cfg:  cfg,
		tx:   tx,
		rx:   rx,
		chTR: channel.New(trace.DirTR),
		chRT: channel.New(trace.DirRT),
	}
	return s.run()
}

type runner struct {
	cfg     Config
	tx      TxMachine
	rx      RxMachine
	chTR    *channel.Channel
	chRT    *channel.Channel
	log     trace.Log // populated only when cfg.KeepTrace
	checker verify.Checker
	res     Result
	step    int
	cur     int // index into PerMessage of the in-flight message, -1 if none
	// blackoutUntil is the first step at which deliveries resume after an
	// ActBlackout; releases attempted during the window are lost.
	blackoutUntil int
}

// record streams an event to the verifier and, when requested, the log.
// Streaming (rather than retaining the full log) keeps hostile runs --
// tens of millions of packet events -- in constant memory.
func (s *runner) record(e trace.Event) {
	s.checker.Observe(e)
	if s.cfg.KeepTrace {
		s.log.Append(e)
	}
}

func (s *runner) run() Result {
	s.cur = -1
	for s.step = 0; s.step < s.cfg.MaxSteps; s.step++ {
		// Higher layer: Axiom 1 lets us submit only after OK or crash^T.
		if !s.tx.Busy() && s.res.Attempted < s.cfg.Messages {
			s.submit()
		}

		// Internal RETRY action of the receiving station.
		if s.step%s.cfg.RetryEvery == 0 {
			s.record(trace.Event{Step: s.step, Kind: trace.KindRetry})
			s.routeRT(s.rx.Retry())
			if tk, ok := s.tx.(TxTicker); ok {
				s.routeTR(tk.Tick())
			}
		}

		// Forgeries (channels without the causality axiom): fabricated
		// packets enter the channel and are delivered immediately.
		if f, ok := s.cfg.Adversary.(adversary.PacketForger); ok {
			for _, fg := range f.Forge(s.step) {
				s.inject(fg)
			}
		}

		// Adversary decisions.
		for _, act := range s.cfg.Adversary.Next(s.step) {
			s.apply(act)
		}

		s.sampleStorage()

		if s.res.Attempted == s.cfg.Messages && !s.tx.Busy() {
			s.res.Done = true
			s.step++
			break
		}
	}

	s.res.Steps = s.step
	s.res.Report = s.checker.Report()
	if s.cfg.KeepTrace {
		s.res.Events = s.log.Events()
	}
	return s.res
}

func (s *runner) submit() {
	m := []byte(fmt.Sprintf("m-%06d", s.res.Attempted))
	pkts, err := s.tx.SendMsg(m)
	if err != nil {
		// Busy was checked; any error here is a machine bug surfaced to
		// the caller through a failed run rather than a panic.
		return
	}
	s.res.Attempted++
	s.res.PerMessage = append(s.res.PerMessage, PerMessage{SendStep: s.step, DoneStep: -1})
	s.cur = len(s.res.PerMessage) - 1
	s.record(trace.Event{Step: s.step, Kind: trace.KindSendMsg, Msg: string(m)})
	s.routeTR(pkts)
}

// inject places a forged packet on the channel and delivers it at once;
// it also notifies the adversary, which may replay the forgery later like
// any other packet.
func (s *runner) inject(fg adversary.Forgery) {
	switch fg.Dir {
	case trace.DirTR:
		id, l := s.chTR.Inject(fg.Packet)
		s.cfg.Adversary.OnNewPacket(trace.DirTR, id, l)
		s.apply(adversary.Action{Kind: adversary.ActDeliver, Dir: trace.DirTR, ID: id})
	case trace.DirRT:
		id, l := s.chRT.Inject(fg.Packet)
		s.cfg.Adversary.OnNewPacket(trace.DirRT, id, l)
		s.apply(adversary.Action{Kind: adversary.ActDeliver, Dir: trace.DirRT, ID: id})
	}
}

func (s *runner) apply(act adversary.Action) {
	switch act.Kind {
	case adversary.ActDeliver:
		if s.step < s.blackoutUntil {
			return // the link is dark: the release is a loss
		}
		switch act.Dir {
		case trace.DirTR:
			p, ok := s.chTR.Deliver(act.ID)
			if !ok {
				return
			}
			s.res.DeliveredTR++
			s.record(trace.Event{Step: s.step, Kind: trace.KindDeliverPkt,
				Dir: trace.DirTR, PktID: act.ID, PktLen: len(p)})
			delivered, pkts := s.rx.ReceivePacket(p)
			for _, m := range delivered {
				s.record(trace.Event{Step: s.step, Kind: trace.KindReceiveMsg, Msg: string(m)})
			}
			s.routeRT(pkts)
		case trace.DirRT:
			p, ok := s.chRT.Deliver(act.ID)
			if !ok {
				return
			}
			s.res.DeliveredRT++
			s.record(trace.Event{Step: s.step, Kind: trace.KindDeliverPkt,
				Dir: trace.DirRT, PktID: act.ID, PktLen: len(p)})
			pkts, okAction := s.tx.ReceivePacket(p)
			if okAction {
				s.record(trace.Event{Step: s.step, Kind: trace.KindOK})
				s.finish(true)
			}
			s.routeTR(pkts)
		}

	case adversary.ActCrashT:
		s.tx.Crash()
		s.record(trace.Event{Step: s.step, Kind: trace.KindCrashT})
		s.finish(false)

	case adversary.ActCrashR:
		s.rx.Crash()
		s.record(trace.Event{Step: s.step, Kind: trace.KindCrashR})

	case adversary.ActBlackout:
		if until := s.step + act.Dur; until > s.blackoutUntil {
			s.blackoutUntil = until
		}
	}
}

// finish closes the in-flight message's accounting window.
func (s *runner) finish(ok bool) {
	if s.cur < 0 {
		return
	}
	pm := &s.res.PerMessage[s.cur]
	pm.DoneStep = s.step
	pm.OK = ok
	if ok {
		s.res.Completed++
	}
	s.cur = -1
}

func (s *runner) routeTR(pkts [][]byte) {
	for _, p := range pkts {
		id, l := s.chTR.Send(p)
		s.res.PacketsTR++
		if s.cur >= 0 {
			s.res.PerMessage[s.cur].PacketsTR++
		}
		s.record(trace.Event{Step: s.step, Kind: trace.KindSendPkt,
			Dir: trace.DirTR, PktID: id, PktLen: l})
		s.cfg.Adversary.OnNewPacket(trace.DirTR, id, l)
	}
}

func (s *runner) routeRT(pkts [][]byte) {
	for _, p := range pkts {
		id, l := s.chRT.Send(p)
		s.res.PacketsRT++
		if s.cur >= 0 {
			s.res.PerMessage[s.cur].PacketsRT++
		}
		s.record(trace.Event{Step: s.step, Kind: trace.KindSendPkt,
			Dir: trace.DirRT, PktID: id, PktLen: l})
		s.cfg.Adversary.OnNewPacket(trace.DirRT, id, l)
	}
}

func (s *runner) sampleStorage() {
	if m, ok := s.tx.(StorageMeter); ok {
		b := m.StorageBits()
		if b > s.res.MaxTxBits {
			s.res.MaxTxBits = b
		}
		if s.cur >= 0 && b > s.res.PerMessage[s.cur].MaxTxBits {
			s.res.PerMessage[s.cur].MaxTxBits = b
		}
	}
	if m, ok := s.rx.(StorageMeter); ok {
		b := m.StorageBits()
		if b > s.res.MaxRxBits {
			s.res.MaxRxBits = b
		}
		if s.cur >= 0 && b > s.res.PerMessage[s.cur].MaxRxBits {
			s.res.PerMessage[s.cur].MaxRxBits = b
		}
	}
}
