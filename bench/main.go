// Command bench is the repo's benchmark: six workloads over the public
// ghm API, the end-to-end metrics of each, a layer ladder and a traced run
// that price the layers from outside. See README.md in this directory for
// the glossary and BENCHMARK.json at the repo root for the contract.
//
//	bash bench/run.sh                                   # the whole suite, writes bench/out/result.json
//	bash bench/run.sh -workload link-wan -seed 7 -seconds 14 -trace 0
//	bash bench/run.sh -compare old.json new.json        # gate: non-zero exit on a regression
//	bash bench/run.sh -selfcheck                        # the suite twice; must agree within the bounds
//
// bench/ is a module of its own, so that the repo's `go build ./...` and
// `go test ./...` do not depend on it; run.sh builds it and runs the binary
// from the root of the checkout, where the default paths point.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "run this one workload and print its result as the last line (default: the whole suite)")
		seed      = fs.Int64("seed", 1, "workload seed: payload bytes, link fault schedules and the replay shim derive from it")
		seconds   = fs.Int("seconds", 14, "seconds one run measures (BENCHMARK.json's run_seconds)")
		trace     = fs.Int("trace", 0, "with -workload: 0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
		outDir    = fs.String("out", filepath.Join("bench", "out"), "directory for trace files, the suite result and scratch files")
		contract  = fs.String("contract", "BENCHMARK.json", "the contract file -compare and -selfcheck take bounds from")
		compare   = fs.Bool("compare", false, "compare two suite results: bench -compare old.json new.json")
		selfcheck = fs.Bool("selfcheck", false, "run the suite twice on the same build and seed; fail if they disagree beyond the bounds")

		// What a run passes to the child process of each of its phases.
		phase = fs.String("phase", "", "internal: run this one phase of -workload and print its result")
		slice = fs.Duration("slice", 0, "internal: the phase's slice length")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	// Load is sized to the machine: the workloads keep at most a few
	// goroutines runnable, and more than four Ps only adds idle spinning.
	if runtime.NumCPU() > 4 {
		runtime.GOMAXPROCS(4)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, outDir: *outDir, log: stdout}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two suite result files: old.json new.json")
			return 2
		}
		return compareFiles(*contract, fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *selfcheck:
		return selfCheck(*contract, cfg, stdout, stderr)
	case *workload == "":
		res := runSuite(cfg)
		if err := res.write(filepath.Join(cfg.outDir, "result.json")); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nwrote %s\n", filepath.Join(cfg.outDir, "result.json"))
		if !res.correct() {
			return 1
		}
		return 0
	}

	w := findWorkload(*workload)
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(names, ", "))
		return 2
	}
	if *phase != "" {
		line, err := json.Marshal(runPhase(w, *phase, *slice, cfg))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return 0
	}
	cfg.trace = *trace == 1
	printEnv(stdout, cfg)
	res := runWorkload(w, cfg)
	res.report(stdout)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// environment is recorded with every result so a reader can tell a noisy
// run from a slow one, and one machine from another.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Kernel     string `json:"kernel"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	SliceS     string `json:"slice_length"`
}

func currentEnv(cfg runConfig) environment {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH, Kernel: kernel,
		Seed: cfg.seed, Seconds: int(cfg.seconds / time.Second),
		SliceS: fmt.Sprintf("%v (untraced run: %d fresh processes, one slice each)", (cfg.seconds / instances).Round(time.Millisecond), instances),
	}
}

func printEnv(w io.Writer, cfg runConfig) {
	e := currentEnv(cfg)
	fmt.Fprintf(w, "environment: nproc=%d GOMAXPROCS=%d %s %s kernel=%s seed=%d seconds=%d slices=%s\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.OSArch, e.Kernel, e.Seed, e.Seconds, e.SliceS)
}

// report prints one run for a human: every metric by name with its unit,
// the per-slice values behind every median, and the verdict.
func (r *runResult) report(w io.Writer) {
	spec := findWorkload(r.workload)
	kind := fmt.Sprintf("%d closed-loop client(s) on one link", spec.clients)
	if spec.mesh {
		kind = fmt.Sprintf("closed loop, %d payload(s) outstanding", spec.clients)
	}
	run := "untraced run: end-to-end metrics"
	if r.traced != nil {
		run = "traced run: per-layer metrics"
	}
	fmt.Fprintf(w, "\nworkload %s, %s\n  %s, %d B messages\n  why: %s\n", r.workload, run, kind, spec.payload, spec.why)
	if spec.name == "link-udp" {
		fmt.Fprintf(w, "  UDP traffic crossed the host's loopback interface (127.0.0.1), not a real link: %v\n", r.loopback)
	}
	defs := endToEnd
	if r.traced != nil {
		defs = perLayer
	}
	line := func(d metricDef, v float64) {
		l := fmt.Sprintf("  %-28s %14.4f %-6s", d.name, v, d.unit)
		if s := r.slices[d.name]; len(s) > 1 {
			l += fmt.Sprintf(" spread %5.1f %%  slices %s", 100*spread(s), fmtSlices(s))
		}
		fmt.Fprintln(w, l)
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		if _, inTable := r.ladder[d.name]; !ok || inTable {
			continue // the ladder's table has already shown its rungs
		}
		line(d, v.Value)
	}
	if r.traced == nil {
		fmt.Fprintln(w, "  not gated (a shared box does not repeat them; a traced run reports them as layer metrics):")
		for _, d := range timing {
			line(d, median(r.slices[d.name]))
		}
	}
	fmt.Fprintf(w, "  confirm-latency samples %d; operations attempted %d, failed %d\n", r.samples, r.Attempted, r.Failed)
	if r.traced != nil {
		fmt.Fprintf(w, "  traced messages %d, of which %d unexplained by their spans; spans written to %s\n", r.traced.Traced, r.traced.Unexplained, r.traced.TracePath)
	}
	if r.firstFail != "" {
		fmt.Fprintf(w, "  FAILED: %s\n", r.firstFail)
	}
}

func fmtSlices(s []float64) string {
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
