// Command ghmsoak stress-tests the protocol for a wall-clock budget:
// it keeps generating randomized adversary mixes (loss, duplication,
// reordering, latency, replay floods, crash schedules, forgery), runs a
// simulation under each, verifies every execution against the Section 2.6
// conditions, and reports. Any safety violation fails the run.
//
//	ghmsoak -duration 30s
//	ghmsoak -duration 5m -eps 0.000001 -seed 42
//
// With -chaos the soak instead targets the live runtime: a seeded chaos
// scenario (Gilbert–Elliott burst loss, latency, jitter, scheduled
// station crashes, blackout windows, loss ramps) executes against a real
// Sender/Receiver pair while messages flow, and the live conformance
// checker verifies the execution against the same Section 2.6
// conditions. The scenario is a pure function of the seed and is
// printed as JSON; -scenario-out saves it. The other live modes only
// choose which generator draws the -seed scenario:
//
//   - -chaos -supervised adds a wedge (a half-dead link view only the
//     progress watchdog can detect), so the sender runs under the
//     self-healing session supervisor and every enqueued payload must
//     arrive end-to-end; the run reports the restarts, wedges and
//     failed starts the session absorbed.
//   - -adversary mounts an adaptive attacker-in-the-middle on the link:
//     seeded strategies that observe packet identifiers, lengths and
//     timing (the paper's oblivious model) and key replay floods,
//     duplication bursts, crashes and blackouts to the protocol phases
//     those lengths leak. Its counters are reported, and at least one
//     attack must be mounted.
//   - -relay runs a five-node relay mesh instead of a single link: the
//     scenario impairs a minority of the links (blackouts, loss ramps)
//     and crashes one intermediate relay node outright while payloads
//     flow source to destination over link-disjoint routes. Every
//     payload must arrive exactly once and every hop's live conformance
//     stay clean.
//
// -scenario replays a saved file, and the file alone decides what runs:
// its mesh spec, adversary spec and wedges are the experiment. A mode
// flag given with -scenario only checks that the file is of its family
// (-chaos accepts any).
//
//	ghmsoak -chaos -seed 42 -messages 500
//	ghmsoak -chaos -supervised -seed 42 -messages 200
//	ghmsoak -adversary -seed 42 -messages 300 -scenario-out attack.json
//	ghmsoak -relay -seed 42 -messages 200
//	ghmsoak -scenario attack.json
//
// With -sweep the run measures the empirical security model instead of
// soaking: the realized per-message failure probability under the full
// adversary mix at every default Params point (which must stay at or
// below the promised epsilon), plus the E8-style schedule auto-tuner's
// proposal. -sweep-out archives the JSON artifact.
//
//	ghmsoak -sweep -seed 42 -sweep-out secmodel.json
//
// Liveness note: completion is demanded only of mixes where Theorem 9
// actually promises it — fair channels without recurring crashes or
// forgery. Recurring crash^R resets the retry counter the transmitter's
// reply throttle tracks, and forged packets poison it outright; both are
// outside the theorem's premises, so such runs count toward safety
// checking only.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"ghm/internal/adversary"
	"ghm/internal/chaos"
	"ghm/internal/core"
	"ghm/internal/metrics"
	"ghm/internal/netlink"
	"ghm/internal/secmodel"
	"ghm/internal/sim"
	"ghm/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ghmsoak:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ghmsoak", flag.ContinueOnError)
	var (
		duration = fs.Duration("duration", 30*time.Second, "wall-clock soak budget")
		eps      = fs.Float64("eps", core.DefaultEpsilon, "error probability per message")
		seed     = fs.Int64("seed", 1, "base random seed")
		report   = fs.Duration("report", 5*time.Second, "progress report interval")
		verbose  = fs.Bool("v", false, "log every run")

		chaosMode   = fs.Bool("chaos", false, "run a live-station chaos soak instead of simulator mixes")
		supervised  = fs.Bool("supervised", false, "chaos: drive a self-healing supervised session (adds a wedge action); with -scenario, require a wedge")
		relayMode   = fs.Bool("relay", false, "run a multi-hop relay-mesh chaos soak (five nodes, faulty links, a node crash); with -scenario, require a mesh spec")
		advMode     = fs.Bool("adversary", false, "run a live-station soak with an adaptive attacker-in-the-middle mounted on the link; with -scenario, require an adversary spec")
		sweepMode   = fs.Bool("sweep", false, "run the empirical security-model sweep and auto-tuner instead of a soak")
		sweepOut    = fs.String("sweep-out", "", "sweep: write the combined sweep+tuner JSON artifact to this file")
		chaosMsgs   = fs.Int("messages", 500, "unique messages per chaos soak")
		scenarioIn  = fs.String("scenario", "", "chaos: replay a scenario JSON file instead of generating one; the file decides what runs")
		scenarioOut = fs.String("scenario-out", "", "chaos: write the scenario JSON to this file")

		metricsOut  = fs.Bool("metrics", false, "print a JSON metrics snapshot when the run ends")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while the run lasts")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *metricsAddr != "" {
		srv, err := metrics.Serve(*metricsAddr, metrics.Default())
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(out, "metrics: serving http://%s/metrics\n", srv.Addr())
	}
	if *metricsOut {
		// Deferred so the snapshot lands even when the run fails — a
		// violating run is exactly when the counters are interesting.
		defer func() {
			fmt.Fprintf(out, "metrics:\n%s\n", metrics.Default().Snapshot().JSON())
		}()
	}

	if *sweepMode {
		return runSweep(out, *seed, *sweepOut)
	}
	if *chaosMode || *supervised || *advMode || *relayMode || *scenarioIn != "" {
		return runLive(out, liveOptions{
			seed: *seed, messages: *chaosMsgs, eps: *eps, budget: *duration,
			scenarioIn: *scenarioIn, scenarioOut: *scenarioOut, verbose: *verbose,
			supervised: *supervised, adversary: *advMode, relay: *relayMode,
		})
	}

	rng := rand.New(rand.NewSource(*seed))
	deadline := time.Now().Add(*duration)
	nextReport := time.Now().Add(*report)

	var (
		runs, messages, violations int
		completed, livenessRuns    int
		crashes                    int
	)
	for time.Now().Before(deadline) {
		mix := randomMix(rng, *eps)
		runStart := time.Now()
		res, err := sim.RunGHM(sim.Config{
			Messages:   mix.messages,
			MaxSteps:   mix.maxSteps,
			RetryEvery: mix.retryEvery,
			Adversary:  mix.adv,
		}, core.Params{Epsilon: *eps}, rng.Int63())
		if err != nil {
			return err
		}
		runs++
		messages += res.Attempted
		violations += res.Report.Violations()
		crashes += res.Report.CrashT + res.Report.CrashR
		if mix.livenessExpected {
			livenessRuns++
			if res.Done {
				completed++
			}
		}
		if *verbose {
			fmt.Fprintf(out, "run %d: %s — %d msgs, %d steps, done=%v in %v\n",
				runs, mix.desc, res.Attempted, res.Steps, res.Done,
				time.Since(runStart).Round(time.Millisecond))
		}
		if res.Report.Violations() > 0 {
			fmt.Fprintf(out, "VIOLATION in run %d (%s): %s\n", runs, mix.desc, res.Report)
		}
		if time.Now().After(nextReport) {
			fmt.Fprintf(out, "soak: %d runs, %d messages, %d crashes, %d violations\n",
				runs, messages, crashes, violations)
			nextReport = time.Now().Add(*report)
		}
	}

	fmt.Fprintf(out, "done: %d runs, %d messages, %d crashes injected\n",
		runs, messages, crashes)
	fmt.Fprintf(out, "safety:   %d violations\n", violations)
	if livenessRuns > 0 {
		fmt.Fprintf(out, "liveness: %d/%d liveness-eligible runs completed\n", completed, livenessRuns)
	}
	if violations > 0 {
		return fmt.Errorf("%d safety violations across %d messages", violations, messages)
	}
	if livenessRuns > 0 && completed < livenessRuns {
		return fmt.Errorf("%d liveness-eligible runs did not complete", livenessRuns-completed)
	}
	return nil
}

// liveOptions collects the flag values of the live modes.
type liveOptions struct {
	seed        int64
	messages    int
	eps         float64
	budget      time.Duration
	scenarioIn  string
	scenarioOut string
	verbose     bool
	// The mode flags: which generator draws the -seed scenario, or which
	// family a -scenario file must be of. -chaos alone is neither.
	supervised, adversary, relay bool
}

// liveScenario gives a live run its scenario: the -scenario file, which
// must be of the family every mode flag given names, or the one the mode
// flags' generator draws for -seed.
func liveScenario(o liveOptions) (chaos.Scenario, error) {
	if o.scenarioIn == "" {
		gen := chaos.GenConfig{}
		if o.supervised {
			// The wedge is the supervisor's signature fault: only a
			// watchdog-driven redial recovers from it.
			gen.Wedges = 1
		}
		switch {
		case o.relay:
			return chaos.GenerateMesh(o.seed, chaos.MeshGenConfig{}), nil
		case o.adversary:
			return chaos.GenerateAdversary(o.seed, gen), nil
		}
		return chaos.Generate(o.seed, gen), nil
	}
	data, err := os.ReadFile(o.scenarioIn)
	if err != nil {
		return chaos.Scenario{}, err
	}
	sc, err := chaos.ParseScenario(data)
	if err != nil {
		return sc, err
	}
	for _, m := range []struct {
		set, has   bool
		spec, flag string
	}{
		{o.relay, sc.Mesh != nil, "mesh spec", "-relay"},
		{o.adversary, sc.Adversary != nil, "adversary spec", "-adversary"},
		{o.supervised, sc.Supervised(), "wedge_sender action", "-chaos -supervised"},
	} {
		if m.set && !m.has {
			return sc, fmt.Errorf("scenario %s has no %s; generate one with %s -scenario-out", o.scenarioIn, m.spec, m.flag)
		}
	}
	return sc, nil
}

// runLive executes one live chaos run with chaos.Run, prints what its
// family observed, and returns the run's verdict.
func runLive(out io.Writer, o liveOptions) error {
	sc, err := liveScenario(o)
	if err != nil {
		return err
	}
	// Every line is prefixed with the family's mode flag.
	mode, flags := "chaos", "-chaos"
	switch {
	case sc.Mesh != nil:
		mode, flags = "relay", "-relay"
	case sc.Adversary != nil:
		mode, flags = "adversary", "-adversary"
	}
	if sc.Supervised() {
		flags += " -supervised"
	}
	if o.scenarioIn != "" {
		fmt.Fprintf(out, "%s: replaying %s (seed %d)\n", mode, o.scenarioIn, sc.Seed)
	} else {
		fmt.Fprintf(out, "%s: seed %d (rerun with %s -seed %d)\n", mode, o.seed, flags, o.seed)
	}
	if o.scenarioOut != "" {
		if err := os.WriteFile(o.scenarioOut, []byte(sc.JSON()+"\n"), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: scenario written to %s\n", mode, o.scenarioOut)
	}
	if o.verbose {
		fmt.Fprintln(out, sc.JSON())
	}

	env := chaos.Env{Messages: o.messages, Epsilon: o.eps}
	switch {
	case sc.Mesh != nil:
		fmt.Fprintf(out, "relay: %d nodes, %d links, %d disjoint routes %d->%d; %d node crashes, %d link blackouts, %d loss ramps over %v\n",
			sc.Mesh.Topology.Nodes, len(sc.Mesh.Topology.Links), sc.Mesh.Routes,
			sc.Mesh.Source, sc.Mesh.Dest,
			sc.Count(chaos.CrashNode), sc.Count(chaos.BlackoutStart),
			sc.Count(chaos.SetLoss), sc.Duration)
		if env.WALDir, err = os.MkdirTemp("", "ghmsoak-relay-"); err != nil {
			return err
		}
		defer os.RemoveAll(env.WALDir)
	case sc.Adversary != nil:
		kinds := make([]string, 0, len(sc.Adversary.Strategies))
		for _, st := range sc.Adversary.Strategies {
			kinds = append(kinds, st.Kind)
		}
		fmt.Fprintf(out, "adversary: strategies %v on top of %d crashes^T, %d crashes^R, %d blackouts, %d loss ramps, %d wedges over %v\n",
			kinds, sc.Count(chaos.CrashSender), sc.Count(chaos.CrashReceiver),
			sc.Count(chaos.BlackoutStart), sc.Count(chaos.SetLoss),
			sc.Count(chaos.WedgeSender), sc.Duration)
	default:
		fmt.Fprintf(out, "chaos: %d crashes^T, %d crashes^R, %d blackouts, %d loss ramps, %d wedges over %v\n",
			sc.Count(chaos.CrashSender), sc.Count(chaos.CrashReceiver),
			sc.Count(chaos.BlackoutStart), sc.Count(chaos.SetLoss),
			sc.Count(chaos.WedgeSender), sc.Duration)
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.budget)
	defer cancel()
	res, err := chaos.Run(ctx, sc, env)
	if err != nil {
		return err
	}
	printLive(out, sc, res, o.verbose)
	return res.Err()
}

// printLive reports what a live run observed, in its family's terms.
func printLive(out io.Writer, sc chaos.Scenario, res chaos.Result, verbose bool) {
	elapsed := res.Elapsed.Round(time.Millisecond)
	if sc.Mesh != nil {
		st := res.Mesh
		fmt.Fprintf(out, "done: %d/%d payloads delivered exactly once end-to-end, %v elapsed\n",
			res.Enqueued-len(res.Missing), res.Enqueued, elapsed)
		fmt.Fprintf(out, "mesh: hops=%d reroutes=%d dup-suppressed=%d node-restarts=%d routes-usable=%d/%d\n",
			st.Hops, st.Reroutes, st.DupSuppressed, st.NodeRestarts, st.RoutesUsable, st.Routes)
		for id, rep := range res.HopReports {
			if verbose || !rep.Clean() {
				fmt.Fprintf(out, "hop %s: %s\n", id, rep)
			}
		}
		return
	}
	if sc.Supervised() {
		st := res.Session
		fmt.Fprintf(out, "done: %d/%d payloads delivered end-to-end, %v elapsed\n",
			res.Enqueued-len(res.Missing), res.Enqueued, elapsed)
		fmt.Fprintf(out, "session: restarts=%d wedges=%d start-failures=%d resubmits=%d transitions=%d health=%s\n",
			st.Restarts, st.Wedges, st.StartFailures, st.Resubmits, res.Transitions, st.Health)
	} else {
		fmt.Fprintf(out, "done: %d messages delivered, %d sends wiped by crash^T and reissued, %v elapsed\n",
			res.Delivered, res.Abandoned, elapsed)
	}
	link := res.LinkTR
	link.Sent += res.LinkRT.Sent
	link.Delivered += res.LinkRT.Delivered
	link.Duplicated += res.LinkRT.Duplicated
	link.DropIID += res.LinkRT.DropIID
	link.DropBurst += res.LinkRT.DropBurst
	link.DropBlackout += res.LinkRT.DropBlackout
	link.DropQueue += res.LinkRT.DropQueue
	observed := 0.0
	if link.Sent > 0 {
		observed = float64(link.DropIID) / float64(link.Sent)
	}
	fmt.Fprintf(out, "link: %d packets sent, %d delivered, %d duplicated; drops iid=%d burst=%d blackout=%d queue=%d — observed i.i.d. loss %.3f (nominal %.3f)\n",
		link.Sent, link.Delivered, link.Duplicated,
		link.DropIID, link.DropBurst, link.DropBlackout, link.DropQueue,
		observed, sc.Link.Loss)
	if sc.Adversary != nil {
		st := res.Attacker
		fmt.Fprintf(out, "attacker: %d packets observed, %d captured; %d attacks mounted, %d landed, %d suppressed (%d replays, %d crashes, %d blackouts)\n",
			st.Observed, st.Captured, st.Mounted, st.Landed, st.Suppressed,
			st.Replayed, st.Crashes, st.Blackouts)
	}
	fmt.Fprintf(out, "conformance: %s\n", res.Report)
}

// runSweep executes the empirical security-model sweep (realized failure
// probability vs epsilon at every default Params point) plus the
// schedule auto-tuner, prints both, and fails if any swept point's
// realized failure probability exceeds its epsilon. With -sweep-out the
// combined JSON artifact is archived for diffing across revisions.
func runSweep(out io.Writer, seed int64, artifact string) error {
	sweep, err := secmodel.Sweep(secmodel.SweepConfig{Seed: seed})
	if err != nil {
		return err
	}
	for _, p := range sweep.Points {
		fmt.Fprintf(out, "sweep: %s eps=%g — %d violations / %d messages (realized %.2g, 95%% upper %.2g) within-eps=%v\n",
			p.Point.Label(), p.Point.Epsilon, p.Violations, p.Messages,
			p.Realized, p.RealizedUpper, p.WithinEpsilon)
	}
	tune, err := secmodel.Tune(secmodel.TuneConfig{Seed: seed})
	if err != nil {
		return err
	}
	for _, c := range tune.Candidates {
		fmt.Fprintf(out, "tune: %-16s %d violations / %d messages, %.1f packets/msg, max rho %d — admissible=%v\n",
			c.Schedule.Label(), c.Measured.Violations, c.Measured.Messages,
			c.CostPerMsg, c.Measured.MaxRhoBits, c.Admissible)
	}
	fmt.Fprintf(out, "tune: proposed schedule %q for eps=%g\n", tune.Proposed, tune.Epsilon)

	if artifact != "" {
		combined := fmt.Sprintf("{\n\"sweep\": %s,\n\"tune\": %s\n}\n", sweep.JSON(), tune.JSON())
		if err := os.WriteFile(artifact, []byte(combined), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "sweep: artifact written to %s\n", artifact)
	}
	if !sweep.AllWithinEpsilon() {
		return fmt.Errorf("realized failure probability exceeded epsilon at a swept point")
	}
	if tune.Proposed == "" {
		return fmt.Errorf("auto-tuner found no admissible schedule")
	}
	return nil
}

// mix is one randomized soak configuration.
type mix struct {
	adv        adversary.Adversary
	desc       string
	messages   int
	maxSteps   int
	retryEvery int
	// livenessExpected marks mixes whose completion within the step
	// budget is predictable: plain fair/network channels. Attack layers
	// (floods, recurring crashes, forgery) either void Theorem 9's
	// premises or make progress arbitrarily slow though still certain;
	// those runs are checked for safety only.
	livenessExpected bool
}

// randomMix draws a hostile configuration: a random base channel plus a
// random subset of attack layers.
func randomMix(rng *rand.Rand, eps float64) mix {
	m := mix{
		messages:         20 + rng.Intn(120),
		maxSteps:         400_000,
		retryEvery:       1 + rng.Intn(8),
		livenessExpected: true,
	}
	var parts []adversary.Adversary
	if rng.Intn(2) == 0 {
		loss := rng.Float64() * 0.6
		dup := rng.Float64() * 0.5
		parts = append(parts, adversary.NewFair(rand.New(rand.NewSource(rng.Int63())),
			adversary.FairConfig{Loss: loss, DupProb: dup, DeliverProb: 0.2 + rng.Float64()*0.8}))
		m.desc = fmt.Sprintf("fair(loss=%.2f,dup=%.2f)", loss, dup)
	} else {
		lat := 1 + rng.Intn(6)
		seed := rng.Int63()
		parts = append(parts, sim.NewNetLike(netlink.LinkModel{
			Latency: time.Duration(lat) * time.Second, // a NetLike step is a second
			Jitter:  time.Duration(rng.Intn(8)) * time.Second,
			Loss:    rng.Float64() * 0.5, DupProb: rng.Float64() * 0.4,
			Bandwidth: 20 * rng.Intn(6), // bytes per step, ~a packet per 20; 0 = unlimited
		}, seed))
		m.desc = fmt.Sprintf("netlike(lat=%d)", lat)
		m.retryEvery = 2*lat + 8 // pace retries past the RTT
	}
	if rng.Intn(2) == 0 {
		parts = append(parts,
			adversary.NewGuessFlood(rand.New(rand.NewSource(rng.Int63())), trace.DirTR, 1+rng.Intn(4)),
			adversary.NewGuessFlood(rand.New(rand.NewSource(rng.Int63())), trace.DirRT, 1+rng.Intn(4)))
		m.desc += "+guessflood"
		m.livenessExpected = false // progress certain but unboundedly slow
	}
	if rng.Intn(3) == 0 {
		parts = append(parts,
			adversary.NewReplay(rand.New(rand.NewSource(rng.Int63())), trace.DirTR, 1+rng.Intn(4)))
		m.desc += "+replay"
		m.livenessExpected = false // progress certain but unboundedly slow
	}
	if rng.Intn(2) == 0 {
		// Crashes: crash^T included so replay-poisoned i^T always unwedges.
		parts = append(parts, &adversary.CrashLoop{
			EveryT: 200 + rng.Intn(2000),
			EveryR: 100 + rng.Intn(1000),
			Offset: rng.Intn(100),
		})
		m.desc += "+crashes"
		m.livenessExpected = false // Theorem 9 assumes crashes stop
	}
	if rng.Intn(6) == 0 {
		// Forgery (causality dropped): safety must hold; liveness may not.
		parts = append(parts, adversary.NewForger(rand.New(rand.NewSource(rng.Int63())),
			rng.Intn(2) == 0, true, 1+rng.Intn(2), core.DefaultSize(1, eps)))
		m.desc += "+forgery"
		m.livenessExpected = false // the paper gives up liveness here
		m.maxSteps = 150_000       // forged CTL stalls by design; bound the burn
	}
	m.adv = adversary.Compose(parts...)
	return m
}
