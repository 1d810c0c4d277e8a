package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	"ghm"
)

// A run is made of phases, and every phase builds the workload afresh in a
// process of its own: the benchmark re-executes itself with -phase and reads
// one JSON line back. A fresh process because a fresh instance in the same
// process is not fresh: Mesh.Close leaves twelve timer-wheel goroutines
// ticking every 100 µs and the memory they reach, so the seventh mesh built
// in one process ran at half the speed of the first (README, Known hazards).
// Several phases because goodput on the fast workloads has modes that last
// as long as an instance does (86k or 118k msgs/s on link-perfect, same
// build, same seed — how the scheduler happened to spread the station's
// goroutines): slices of one instance agree with each other and say little,
// while fresh instances sample the modes and their median lands on the
// common one.
//
// An untraced run is one phaseWeigh and `instances` times phaseSlice; every
// end-to-end value is the median over the slices. A traced run is
// phaseLadder, phaseReference and phaseTraced.
const (
	phaseWeigh     = "weigh"     // set up, stop the clients, read the live heap
	phaseSlice     = "slice"     // set up, time one slice: the end-to-end metrics
	phaseReference = "reference" // set up, time one slice untraced: layer counters, tail latency, GC
	phaseTraced    = "traced"    // set up with the tracer on, time one slice: spans
	phaseLadder    = "ladder"    // no workload: the layer ladder
)

// instances is how many slices an untraced run times, each --seconds/instances long.
const instances = 7

// Shares of a traced run's --seconds: the untraced reference phase, then
// the traced phase; the ladder takes about what is left.
const (
	referenceShare = 0.3
	tracedShare    = 0.4
)

// phaseGrace is how long a phase may take beyond its slice before the
// parent kills it and counts a failure.
const phaseGrace = 40 * time.Second

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseResult is what one phase hands back, as one JSON line when it ran in
// a child process.
type phaseResult struct {
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	FirstFail string `json:"first_fail,omitempty"`
	Loopback  bool   `json:"loopback,omitempty"`
	Samples   int64  `json:"samples,omitempty"` // confirm latencies in the slice

	// Values are the phase's figures by metric name: end-to-end metrics of
	// one slice, or per-layer metrics.
	Values map[string]float64 `json:"values"`

	Traced      int    `json:"traced,omitempty"`
	Unexplained int    `json:"unexplained,omitempty"`
	TracePath   string `json:"trace_path,omitempty"`
}

// runResult is one run of one workload. The exported part is the last line
// a driver run prints; the rest feeds the human report and the suite file.
type runResult struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	workload  string
	slices    map[string][]float64 // the per-slice values behind every median
	samples   int64                // confirm latencies behind confirm_us_p50
	firstFail string
	loopback  bool
	traced    *phaseResult       // the traced phase, in a traced run
	ladder    map[string]float64 // the ladder's metrics, for the suite to reuse
}

func (r *runResult) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = value{v, d.unit}
			return
		}
	}
	panic("bench: metric " + name + " is not declared")
}

// absorb adds a phase's books to the run's.
func (r *runResult) absorb(p phaseResult) {
	r.Attempted += p.Attempted
	r.Failed += p.Failed
	if r.firstFail == "" {
		r.firstFail = p.FirstFail
	}
	r.loopback = r.loopback || p.Loopback
}

type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	outDir  string
	log     io.Writer          // the human report
	ladder  map[string]float64 // a ladder already run (the suite runs it once)

	// inProcess runs the phases in this process instead of children, and
	// quick runs them at smoke-test scale: one slice, a tenth of the
	// warm-up, a twentieth of the ladder's batches. Both are for tests.
	inProcess, quick bool
}

// runWorkload is one benchmark run of one workload: the untraced run that
// yields the end-to-end metrics, or the traced run that yields the
// per-layer metrics.
func runWorkload(w *spec, cfg runConfig) *runResult {
	res := &runResult{workload: w.name, Metrics: make(map[string]value), slices: make(map[string][]float64)}
	if cfg.trace {
		runTraced(w, cfg, res)
	} else {
		runUntraced(w, cfg, res)
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // the contract wants at least one; nothing ran, so it failed
		res.Failed = 1
	}
	res.Correct = res.Failed == 0
	return res
}

func runUntraced(w *spec, cfg runConfig, res *runResult) {
	n := instances
	if cfg.quick {
		n = 1
	}
	phases := []string{phaseWeigh}
	for i := 0; i < n; i++ {
		phases = append(phases, phaseSlice)
	}
	for _, kind := range phases {
		p := cfg.phase(w, kind, cfg.seconds/time.Duration(n))
		res.absorb(p)
		res.samples += p.Samples
		for name, v := range p.Values {
			res.slices[name] = append(res.slices[name], v)
		}
		if p.Failed > 0 && len(p.Values) == 0 {
			break // it could not even set up: the other phases would fail the same way, a watchdog period at a time
		}
	}
	for _, d := range endToEnd {
		res.set(endToEnd, d.name, median(res.slices[d.name]))
	}
}

func runTraced(w *spec, cfg runConfig, res *runResult) {
	for _, d := range perLayer {
		res.Metrics[d.name] = value{0, d.unit}
	}
	// The ladder does not depend on the workload; it runs in every traced
	// run because the contract wants every per-layer metric from each.
	if res.ladder = cfg.ladder; res.ladder == nil {
		p := cfg.phase(w, phaseLadder, 0)
		res.absorb(p)
		res.ladder = p.Values
		printLadder(cfg.log, cfg.seed, res.ladder)
	}
	ref := cfg.phase(w, phaseReference, time.Duration(float64(cfg.seconds)*referenceShare))
	res.absorb(ref)
	res.samples = ref.Samples
	traced := cfg.phase(w, phaseTraced, time.Duration(float64(cfg.seconds)*tracedShare))
	res.absorb(traced)
	res.traced = &traced
	const goodput = "client.goodput_msgs_s"
	if g := ref.Values[goodput]; g > 0 {
		res.set(perLayer, "trace.overhead_ratio", traced.Values[goodput]/g)
	}
	for _, d := range timing {
		delete(traced.Values, d.name) // the client's figures come from the untraced reference phase
	}
	for _, values := range []map[string]float64{res.ladder, ref.Values, traced.Values} {
		for name, v := range values {
			res.set(perLayer, name, v)
		}
	}
}

// phase runs one phase of workload w, in a child process unless the
// config says otherwise, and never fails to return a result: a child that
// cannot be started, dies, hangs or prints nonsense is a failed operation.
func (cfg runConfig) phase(w *spec, kind string, slice time.Duration) phaseResult {
	if cfg.inProcess {
		return runPhase(w, kind, slice, cfg)
	}
	broken := func(format string, args ...any) phaseResult {
		return phaseResult{Attempted: 1, Failed: 1, FirstFail: fmt.Sprintf("phase %s: ", kind) + fmt.Sprintf(format, args...)}
	}
	self, err := os.Executable()
	if err != nil {
		return broken("%v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), slice+phaseGrace)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-phase", kind, "-workload", w.name,
		"-seed", fmt.Sprint(cfg.seed), "-slice", slice.String(), "-out", cfg.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return broken("%v", err)
	}
	var p phaseResult
	if err := json.Unmarshal(bytes.TrimSpace(out), &p); err != nil {
		return broken("unreadable result %q: %v", out, err)
	}
	return p
}

// snap is what a phase reads at the ends of its slice.
type snap struct {
	at                time.Time
	confirmed         int64
	pkts, wireBytes   int64
	cpu               time.Duration
	mallocs, allocced uint64
	gcs               uint32
	gcPause           uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (in *instance) snap() snap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snap{at: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, allocced: ms.TotalAlloc, gcs: ms.NumGC, gcPause: ms.PauseTotalNs}
	s.confirmed, s.pkts, s.wireBytes = in.totals()
	return s
}

// measure times one slice of length d and returns the snapshots at its
// ends. Clients run straight through; only the slot they record latencies
// into changes.
func (in *instance) measure(d time.Duration) (a, b snap) {
	in.slice.Store(1)
	a = in.snap()
	time.Sleep(time.Until(a.at.Add(d)))
	in.slice.Store(0)
	return a, in.snap()
}

// warmTime is the warm-up of every timed phase, and with the build before
// it the whole of setup_s, as the issue defines it. It is a time, not a
// message count, so that setup_s repeats on a box whose speed does not: what
// moves it is work added to building the workload.
const warmTime = 100 * time.Millisecond

// warmUp lets the clients run for d, or, with d zero, until the workload's
// warm-up count of messages is confirmed (the weigh phase: live heap is
// compared at a fixed message count). A program that confirms nothing in
// several watchdog periods has failed.
func (in *instance) warmUp(d time.Duration) bool {
	if d > 0 {
		time.Sleep(d)
		if c, _, _ := in.totals(); c > 0 {
			return true
		}
		in.warmLeft.Store(1) // nothing confirmed yet: wait for the first
	}
	select {
	case <-in.warmDone:
		return true
	case <-time.After(4 * in.td.timeout):
		in.fail("warm-up: nothing confirmed, or %d messages short, after %v", in.warmLeft.Load(), 4*in.td.timeout)
		return false
	}
}

// liveHeap is HeapAlloc after two forced collections (the second empties
// what sync.Pool kept through the first), in MB of 10^6 bytes. The caller
// has halted the clients; the program under test is still open.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// counterSnap reads the process-wide registry and the mesh's books.
type counterSnap struct {
	c    map[string]int64
	mesh ghm.MeshStats
}

func (in *instance) counters() counterSnap {
	s := counterSnap{c: ghm.Metrics().Counters}
	if in.mesh != nil {
		s.mesh = in.mesh.Stats()
	}
	return s
}

// runPhase performs one phase in this process.
func runPhase(w *spec, kind string, slice time.Duration, cfg runConfig) (p phaseResult) {
	p.Values = make(map[string]float64)
	if kind == phaseLadder {
		p.Values = runLadder(cfg)
		p.Attempted = int64(len(rungs))
		for _, r := range rungs {
			if _, ran := p.Values[r.name+".ns"]; !ran {
				p.Failed++
				p.FirstFail = "ladder rung " + r.name + " failed"
			}
		}
		return p
	}

	var tr *tracer
	if kind == phaseTraced {
		tr = newTracer(w.mesh, w.traceEvery)
	}
	var td testDouble
	if cfg.quick {
		td.warm = w.warm/10 + 1
	}
	t0 := time.Now()
	in, err := build(w, cfg.seed, tr, td)
	defer func() {
		in.close()
		p.Attempted, p.Failed, p.Loopback = in.attempted.Load(), in.failed.Load(), in.loopback
		if f := in.firstFail.Load(); f != nil {
			p.FirstFail = *f
		}
	}()
	if err != nil {
		in.attempted.Add(1)
		in.fail("set-up: %v", err)
		return p
	}
	if kind == phaseWeigh {
		// Live heap is read at a fixed message count and not after a timed
		// slice: what the program retains per message (the mesh's conformance
		// checkers keep every one) would otherwise make a faster program look
		// fatter.
		if in.warmUp(0) {
			in.halt()
			p.Values["live_heap_mb"] = liveHeap()
		}
		return p
	}
	warm := warmTime
	if cfg.quick {
		warm /= 10
	}
	if !in.warmUp(warm) {
		return p
	}
	if kind == phaseSlice {
		p.Values["setup_s"] = time.Since(t0).Seconds()
	}

	var before counterSnap
	pendingMax := make(chan float64, 1)
	if kind == phaseReference {
		before = in.counters()
		go func() { pendingMax <- in.watchWindowPending() }()
	}
	a, b := in.measure(slice)
	in.halt()
	lat := in.latency(1)
	p.Samples = int64(lat.n)
	msgs := float64(b.confirmed - a.confirmed)
	if msgs == 0 {
		return p // nothing confirmed, so no per-message figures; the watchdog has failed the operations
	}
	p.Values["client.goodput_msgs_s"] = msgs / b.at.Sub(a.at).Seconds()
	p.Values["client.confirm_us_p50"] = lat.quantile(0.5) / 1e3
	p.Values["client.confirm_ms_p99"] = lat.quantile(0.99) / 1e6
	p.Values["client.cpu_us_per_msg"] = float64(b.cpu-a.cpu) / 1e3 / msgs

	switch kind {
	case phaseSlice:
		p.Values["allocs_per_msg"] = float64(b.mallocs-a.mallocs) / msgs
		p.Values["alloc_bytes_per_msg"] = float64(b.allocced-a.allocced) / msgs
		p.Values["pkts_per_msg"] = float64(b.pkts-a.pkts) / msgs
		p.Values["wire_bytes_per_msg"] = float64(b.wireBytes-a.wireBytes) / msgs

	case phaseReference:
		after := in.counters()
		delta := func(names ...string) float64 {
			var d int64
			for _, name := range names {
				d += after.c[name] - before.c[name]
			}
			return float64(d) / msgs
		}
		p.Values["netlink.retries_per_msg"] = delta("rx.retries")
		p.Values["netlink.shed_per_msg"] = delta("rx.ingress_shed")
		p.Values["netlink.errors_per_msg"] = delta("tx.errors_counted", "rx.errors_counted")
		p.Values["netlink.ext_per_msg"] = delta("tx.tag_extensions", "rx.challenge_extensions")
		p.Values["netlink.window_pending_max"] = <-pendingMax
		p.Values["netlink.useful_pkt_ratio"] = 2 * msgs / float64(b.pkts-a.pkts)
		p.Values["netlink.recover_ms_p50"] = in.recoverLat.quantile(0.5) / 1e6
		var injected int64
		for _, r := range in.replays {
			injected += r.injected.Load()
		}
		p.Values["adversary.injected_per_msg"] = float64(injected) / float64(b.confirmed)
		p.Values["relay.hops_per_msg"] = float64(after.mesh.Hops-before.mesh.Hops) / msgs
		p.Values["relay.reroutes_per_msg"] = float64(after.mesh.Reroutes-before.mesh.Reroutes) / msgs
		p.Values["relay.dup_suppressed_per_msg"] = float64(after.mesh.DupSuppressed-before.mesh.DupSuppressed) / msgs
		p.Values["gc.cycles"] = float64(b.gcs - a.gcs)
		p.Values["gc.pause_ms"] = float64(b.gcPause-a.gcPause) / 1e6

	case phaseTraced:
		sum := tr.summarize()
		for name, v := range sum.P50us {
			p.Values[name] = v
		}
		p.Traced, p.Unexplained = sum.Traced, sum.Unexplained
		if sum.Traced == 0 || float64(sum.Unexplained) > unexplainedLimit*float64(sum.Traced) {
			in.fail("trace: the spans of %d of %d traced messages do not add up to their confirm latency within %.0f %%", sum.Unexplained, sum.Traced, sumTolerance*100)
		}
		if p.TracePath, err = tr.write(cfg.outDir, w.name); err != nil {
			in.fail("trace: %v", err)
		}
	}
	return p
}

// watchWindowPending samples the windowed receiver's resequencing backlog
// until the instance stops and returns the highest value seen.
func (in *instance) watchWindowPending() float64 {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	var max float64
	for {
		select {
		case <-in.stop:
			return max
		case <-tick.C:
			if v := ghm.Metrics().Gauges["rx.window_pending"]; v > max {
				max = v
			}
		}
	}
}
