// Command ghmvet runs the ghm-specific analyzers (see internal/lint)
// over the module:
//
//	go run ./cmd/ghmvet ./...
//	go run ./cmd/ghmvet -only wheelclock,metricname ./internal/netlink
//
// It is the same run internal/lint's TestModuleIsClean makes inside
// `go test ./...`; the command exists to name a subset or a package
// while working. Findings go to stderr, one per line, as
// `file:line:col: [analyzer] message`.
//
// Exit codes: 0 clean, 1 findings, 2 operational error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ghm/internal/lint"
)

func main() {
	fs := flag.NewFlagSet("ghmvet", flag.ExitOnError)
	only := fs.String("only", "", "comma-separated subset of analyzers to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ghmvet [-only a,b] [-list] packages...\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			summary, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Printf("%-20s %s\n", a.Name, summary)
		}
		return
	}
	if *only != "" {
		names := strings.Split(*only, ",")
		analyzers = lint.ByName(names)
		if len(analyzers) != len(names) {
			fmt.Fprintf(os.Stderr, "ghmvet: unknown analyzer in -only=%s (use -list)\n", *only)
			os.Exit(2)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	findings, err := lint.Check(analyzers, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ghmvet: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
