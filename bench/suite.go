package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// suiteMetric is one end-to-end metric of one workload in a suite result:
// the median and the per-slice values behind it.
type suiteMetric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Slices []float64 `json:"slices,omitempty"`
}

type suiteWorkload struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Samples   int64                  `json:"confirm_samples"`
	Loopback  bool                   `json:"udp_loopback,omitempty"`
	EndToEnd  map[string]suiteMetric `json:"end_to_end"`
	Timing    map[string]suiteMetric `json:"timing_not_gated"` // medians over the untraced run's slices
	PerLayer  map[string]value       `json:"per_layer"`
}

// suiteResult is what a suite run writes and -compare reads.
type suiteResult struct {
	Env       environment              `json:"environment"`
	Workloads map[string]suiteWorkload `json:"workloads"`
}

// runSuite runs every workload untraced and traced, and the ladder once.
func runSuite(cfg runConfig) *suiteResult {
	printEnv(cfg.log, cfg)
	out := &suiteResult{Env: currentEnv(cfg), Workloads: make(map[string]suiteWorkload)}
	for i := range workloads {
		w := &workloads[i]
		cfg.trace = false
		plain := runWorkload(w, cfg)
		plain.report(cfg.log)
		cfg.trace = true
		traced := runWorkload(w, cfg)
		traced.report(cfg.log)
		cfg.ladder = traced.ladder // it does not depend on the workload: later traced runs reuse it
		sw := suiteWorkload{
			Correct:   plain.Correct && traced.Correct,
			Attempted: plain.Attempted + traced.Attempted,
			Failed:    plain.Failed + traced.Failed,
			Samples:   plain.samples,
			Loopback:  plain.loopback,
			EndToEnd:  make(map[string]suiteMetric),
			Timing:    make(map[string]suiteMetric),
			PerLayer:  traced.Metrics,
		}
		for name, v := range plain.Metrics {
			sw.EndToEnd[name] = suiteMetric{v.Value, v.Unit, plain.slices[name]}
		}
		for _, d := range timing {
			sw.Timing[d.name] = suiteMetric{median(plain.slices[d.name]), d.unit, plain.slices[d.name]}
		}
		out.Workloads[w.name] = sw
	}
	return out
}

func (s *suiteResult) correct() bool {
	for _, w := range s.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

func (s *suiteResult) write(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Verdicts of one workload × metric row.
const (
	vBetter     = "better"
	vWithin     = "within bound"
	vWorse      = "worse"
	vUnresolved = "unresolved"
)

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction (negative = better).
func worseBy(m boundedMetric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge compares one metric of one workload. The per-slice values stand in
// for repeated runs: where they spread wider than the bound the row is
// unresolved, not unchanged, unless every slice of one side beats every
// slice of the other.
func judge(m boundedMetric, old, new suiteMetric) (verdict string, change, spr float64) {
	change = worseBy(m, old.Value, new.Value)
	spr = spread(old.Slices)
	if s := spread(new.Slices); s > spr {
		spr = s
	}
	allWorse := len(old.Slices) > 0 && len(new.Slices) > 0
	allBetter := allWorse
	for _, a := range old.Slices {
		for _, b := range new.Slices {
			if worseBy(m, a, b) <= 0 {
				allWorse = false
			}
			if worseBy(m, a, b) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case change > m.Bound && (spr <= m.Bound || allWorse):
		return vWorse, change, spr
	case change > m.Bound || spr > m.Bound && !allBetter:
		return vUnresolved, change, spr
	case change < 0 && (allBetter || -change > spr):
		return vBetter, change, spr
	}
	return vWithin, change, spr
}

// compareSuites prints one row per workload × metric and returns how many
// rows are worse. More failed operations than before is always worse.
func compareSuites(contract *benchmarkFile, old, new *suiteResult, w io.Writer) (worse int) {
	fmt.Fprintf(w, "%-16s %-22s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "old", "new", "change", "bound", "spread", "verdict")
	for _, spec := range workloads {
		o, okO := old.Workloads[spec.name]
		n, okN := new.Workloads[spec.name]
		if !okO || !okN {
			fmt.Fprintf(w, "%-16s missing from one side: %s\n", spec.name, vWorse)
			worse++
			continue
		}
		for _, m := range contract.EndToEnd {
			v, change, spr := judge(m, o.EndToEnd[m.Name], n.EndToEnd[m.Name])
			if v == vWorse {
				worse++
			}
			fmt.Fprintf(w, "%-16s %-22s %14.4f %14.4f %+8.1f%% %7.0f%% %7.1f%%  %s\n",
				spec.name, m.Name, o.EndToEnd[m.Name].Value, n.EndToEnd[m.Name].Value, 100*change, 100*m.Bound, 100*spr, v)
		}
		// The client's speed figures, for the reader: judged like the rest,
		// against the widest bound, but a shared box moves them by more than
		// that on its own, so they never fail the comparison.
		for _, d := range timing {
			m := boundedMetric{Name: d.name, Unit: d.unit, Better: better(d.name), Bound: 0.25}
			v, change, spr := judge(m, o.Timing[d.name], n.Timing[d.name])
			fmt.Fprintf(w, "%-16s %-22s %14.4f %14.4f %+8.1f%% %8s %7.1f%%  (%s; not gated)\n",
				spec.name, d.name, o.Timing[d.name].Value, n.Timing[d.name].Value, 100*change, "", 100*spr, v)
		}
		v := vWithin
		if float64(n.Failed)*float64(o.Attempted) > float64(o.Failed)*float64(n.Attempted) || !n.Correct {
			v = vWorse
			worse++
		}
		fmt.Fprintf(w, "%-16s %-22s %14d %14d %35s  %s\n", spec.name, "failed operations", o.Failed, n.Failed, "any increase", v)
	}
	return worse
}

func compareFiles(contractPath, oldPath, newPath string, stdout, stderr io.Writer) int {
	contract, err := readJSON[benchmarkFile](contractPath)
	var old, new *suiteResult
	if err == nil {
		old, err = readJSON[suiteResult](oldPath)
	}
	if err == nil {
		new, err = readJSON[suiteResult](newPath)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if worse := compareSuites(contract, old, new, stdout); worse > 0 {
		fmt.Fprintf(stdout, "\n%d row(s) worse than the bound allows\n", worse)
		return 1
	}
	return 0
}

// selfCheck runs the suite twice back to back on the same build and seed.
// The two must agree on every end-to-end metric within the metric's own
// bound, in either direction: a benchmark that cannot repeat itself cannot
// gate anything.
func selfCheck(contractPath string, cfg runConfig, stdout, stderr io.Writer) int {
	contract, err := readJSON[benchmarkFile](contractPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	quiet := cfg
	quiet.log = io.Discard
	printEnv(stdout, cfg)
	fmt.Fprintln(stdout, "selfcheck: the whole suite twice, same build, same seed")
	first := runSuite(quiet)
	second := runSuite(quiet)
	bad := 0
	fmt.Fprintf(stdout, "%-16s %-22s %14s %14s %9s %8s  %s\n", "workload", "metric", "first", "second", "differ", "bound", "verdict")
	for _, spec := range workloads {
		a, b := first.Workloads[spec.name], second.Workloads[spec.name]
		for _, m := range contract.EndToEnd {
			x, y := a.EndToEnd[m.Name].Value, b.EndToEnd[m.Name].Value
			d := worseBy(m, x, y)
			if r := worseBy(m, y, x); r > d {
				d = r
			}
			v := "agree"
			if d > m.Bound {
				v = "DISAGREE"
				bad++
			}
			fmt.Fprintf(stdout, "%-16s %-22s %14.4f %14.4f %8.1f%% %7.0f%%  %s\n", spec.name, m.Name, x, y, 100*d, 100*m.Bound, v)
		}
		if !a.Correct || !b.Correct {
			bad++
			fmt.Fprintf(stdout, "%-16s failed operations: first %d of %d, second %d of %d\n", spec.name, a.Failed, a.Attempted, b.Failed, b.Attempted)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "\nselfcheck FAILED: %d disagreement(s)\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "\nselfcheck passed: every end-to-end metric of every workload repeats within its bound, no failed operations")
	return 0
}
