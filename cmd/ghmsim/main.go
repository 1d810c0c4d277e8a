// Command ghmsim runs one simulation of a data-link protocol against an
// adversary and reports the execution's statistics and its verification
// against the paper's Section 2.6 correctness conditions.
//
// Examples:
//
//	ghmsim -messages 100 -loss 0.4 -dup 0.3
//	ghmsim -protocol abp -crash-t 50 -crash-r 80
//	ghmsim -protocol stenning -crash-r 100
//	ghmsim -adversary replay -crash-r 300 -messages 50 -trace 30
//	ghmsim -protocol naive -naive-bits 8 -adversary replay -crash-r 200
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"ghm/internal/adversary"
	"ghm/internal/baseline"
	"ghm/internal/core"
	"ghm/internal/netlink"
	"ghm/internal/sim"
	"ghm/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ghmsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ghmsim", flag.ContinueOnError)
	var (
		protocol   = fs.String("protocol", "ghm", "protocol: ghm | abp | nvabp | stenning | naive")
		advName    = fs.String("adversary", "fair", "adversary: fair | netlike | replay | guessflood | silence")
		messages   = fs.Int("messages", 100, "messages to transfer")
		eps        = fs.Float64("eps", core.DefaultEpsilon, "error probability per message (ghm)")
		naiveBits  = fs.Int("naive-bits", 8, "nonce bits for -protocol naive")
		loss       = fs.Float64("loss", 0.2, "packet loss probability")
		dup        = fs.Float64("dup", 0.1, "packet duplication probability")
		deliver    = fs.Float64("deliver", 0.5, "per-step delivery probability")
		replayRate = fs.Int("replay-rate", 3, "replays per step for replay/guessflood adversaries")
		latency    = fs.Int("latency", 4, "base delivery delay in steps (netlike)")
		jitter     = fs.Int("jitter", 4, "extra random delay of up to N steps (netlike)")
		bandwidth  = fs.Int("bandwidth", 0, "bytes per direction per step, 0 = unlimited (netlike)")
		crashT     = fs.Int("crash-t", 0, "crash the transmitter every N steps (0 = never)")
		crashR     = fs.Int("crash-r", 0, "crash the receiver every N steps (0 = never)")
		seed       = fs.Int64("seed", 1, "random seed")
		maxSteps   = fs.Int("max-steps", 2_000_000, "step budget")
		retryEvery = fs.Int("retry-every", 1, "fire the receiver's RETRY every N steps")
		traceTail  = fs.Int("trace", 0, "print the last N trace events")
		traceOut   = fs.String("trace-out", "", "write the full execution trace as JSONL (inspect with ghmtrace)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	adv, err := buildAdversary(advConfig{
		name: *advName, seed: *seed, loss: *loss, dup: *dup, deliver: *deliver,
		rate: *replayRate, latency: *latency, jitter: *jitter, bandwidth: *bandwidth,
	})
	if err != nil {
		return err
	}
	if *crashT > 0 || *crashR > 0 {
		adv = adversary.Compose(adv, &adversary.CrashLoop{EveryT: *crashT, EveryR: *crashR})
	}

	cfg := sim.Config{
		Messages:   *messages,
		MaxSteps:   *maxSteps,
		RetryEvery: *retryEvery,
		Adversary:  adv,
		KeepTrace:  *traceTail > 0 || *traceOut != "",
	}

	var res sim.Result
	switch *protocol {
	case "ghm":
		res, err = sim.RunGHM(cfg, core.Params{Epsilon: *eps}, *seed)
		if err != nil {
			return err
		}
	case "naive":
		res, err = sim.RunGHM(cfg, baseline.NaiveNonceParams(*naiveBits), *seed)
		if err != nil {
			return err
		}
	case "abp":
		res = sim.Run(cfg, baseline.NewABPTx(), baseline.NewABPRx())
	case "nvabp":
		res = sim.Run(cfg, baseline.NewNVABPTx(), baseline.NewNVABPRx())
	case "stenning":
		res = sim.Run(cfg, baseline.NewSeqTx(), baseline.NewSeqRx())
	default:
		return fmt.Errorf("unknown protocol %q", *protocol)
	}

	fmt.Fprintf(out, "protocol   %s\n", *protocol)
	fmt.Fprintf(out, "adversary  %s (loss=%.2f dup=%.2f deliver=%.2f crashT=%d crashR=%d)\n",
		*advName, *loss, *dup, *deliver, *crashT, *crashR)
	fmt.Fprintf(out, "steps      %d (budget %d, completed: %v)\n", res.Steps, *maxSteps, res.Done)
	fmt.Fprintf(out, "messages   attempted=%d completed=%d\n", res.Attempted, res.Completed)
	fmt.Fprintf(out, "packets    T->R sent=%d delivered=%d   R->T sent=%d delivered=%d\n",
		res.PacketsTR, res.DeliveredTR, res.PacketsRT, res.DeliveredRT)
	fmt.Fprintf(out, "storage    max tx=%d bits, max rx=%d bits\n", res.MaxTxBits, res.MaxRxBits)
	fmt.Fprintf(out, "verify     %s\n", res.Report)

	if *traceTail > 0 {
		events := res.Events
		if len(events) > *traceTail {
			events = events[len(events)-*traceTail:]
		}
		fmt.Fprintln(out, "trace tail:")
		for _, e := range events {
			fmt.Fprintf(out, "  %s\n", e)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		if err := trace.WriteJSONL(f, res.Events); err != nil {
			f.Close()
			return fmt.Errorf("trace-out: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		fmt.Fprintf(out, "trace      %d events written to %s\n", len(res.Events), *traceOut)
	}
	if !res.Report.Clean() {
		return fmt.Errorf("execution violated the correctness conditions")
	}
	return nil
}

// advConfig bundles the adversary flags.
type advConfig struct {
	name                       string
	seed                       int64
	loss, dup, deliver         float64
	rate                       int
	latency, jitter, bandwidth int
}

func buildAdversary(c advConfig) (adversary.Adversary, error) {
	name, seed, loss, dup, deliver, rate := c.name, c.seed, c.loss, c.dup, c.deliver, c.rate
	rng := func(salt int64) *rand.Rand { return rand.New(rand.NewSource(seed + salt)) }
	base := adversary.NewFair(rng(0), adversary.FairConfig{
		Loss: loss, DupProb: dup, DeliverProb: deliver,
	})
	switch name {
	case "fair":
		return base, nil
	case "netlike":
		// A NetLike step is a second of link time: durations count steps
		// and Bandwidth is bytes per step.
		return sim.NewNetLike(netlink.LinkModel{
			Latency: time.Duration(c.latency) * time.Second, Jitter: time.Duration(c.jitter) * time.Second,
			Loss: loss, DupProb: dup, Bandwidth: c.bandwidth,
		}, seed+5), nil
	case "replay":
		return adversary.Compose(base,
			adversary.NewReplay(rng(1), trace.DirTR, rate),
			adversary.NewReplay(rng(2), trace.DirRT, rate),
		), nil
	case "guessflood":
		return adversary.Compose(base,
			adversary.NewGuessFlood(rng(3), trace.DirTR, rate),
			adversary.NewGuessFlood(rng(4), trace.DirRT, rate),
		), nil
	case "silence":
		return adversary.Silence{}, nil
	default:
		return nil, fmt.Errorf("unknown adversary %q", name)
	}
}
