// Command ghmbench regenerates the experiment tables indexed in DESIGN.md
// and recorded in EXPERIMENTS.md: one table per claim of the paper.
//
//	ghmbench                 # run the full suite at full scale
//	ghmbench -run E2,E6      # run selected experiments
//	ghmbench -scale 0.2      # quick pass
//	ghmbench -markdown       # emit GitHub-flavoured tables (for EXPERIMENTS.md)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ghm/internal/experiments"
	"ghm/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ghmbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ghmbench", flag.ContinueOnError)
	var (
		runList  = fs.String("run", "all", "comma-separated experiment ids (E1..E10) or 'all'")
		scale    = fs.Float64("scale", 1.0, "workload scale factor")
		seed     = fs.Int64("seed", 1, "base random seed")
		markdown = fs.Bool("markdown", false, "emit markdown tables")

		metricsOut  = fs.Bool("metrics", false, "print a JSON metrics snapshot when the suite ends")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while the suite runs")
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
		defer func() {
			fmt.Fprintf(out, "metrics:\n%s\n", metrics.Default().Snapshot().JSON())
		}()
	}

	opt := experiments.Options{Scale: *scale, Seed: *seed}
	var selected []experiments.Experiment
	if *runList == "all" || *runList == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*runList, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.Lookup(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (have E1..E10)", id)
			}
			selected = append(selected, e)
		}
	}

	for i, e := range selected {
		if i > 0 {
			fmt.Fprintln(out)
		}
		start := time.Now()
		table := e.Run(opt)
		if *markdown {
			fmt.Fprint(out, table.Markdown())
		} else {
			table.Render(out)
		}
		fmt.Fprintf(out, "[%s completed in %v at scale %v]\n", e.ID, time.Since(start).Round(time.Millisecond), *scale)
	}
	return nil
}
