package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// The escape-diff harness: `ghmvet -escapes` asks the compiler (not an
// approximation of it) which values in the runtime packages escape to
// the heap, normalizes the answer into a deterministic summary, and
// diffs it against the committed allowlist. The hotpathalloc analyzer
// reasons about allocation syntactically; this harness pins the ground
// truth, so a change that quietly adds a heap allocation to a hot path
// fails CI even if it slips past the static check — and an //lint:allow
// hotpathalloc justified by "the compiler stack-allocates this" stays
// honest, because the day that stops being true the diff breaks.
//
// Exit codes: 0 clean (or -escapes-update), 1 regressions, 2 harness error.

// escapePkgs are the packages whose escape behaviour is pinned: the
// protocol core under the hot roots, the runtime scope of the
// whole-program analyzers, the outbox every session and mesh hop enqueues
// into, and the conformance checker every mesh hop's taps feed.
var escapePkgs = []string{
	"ghm/internal/bitstr",
	"ghm/internal/wire",
	"ghm/internal/core",
	"ghm/internal/engine",
	"ghm/internal/netlink",
	"ghm/internal/outbox",
	"ghm/internal/session",
	"ghm/internal/supervise",
	"ghm/internal/relay",
	"ghm/internal/fabric",
	"ghm/internal/verify",
}

// escapeLineRe splits one compiler diagnostic. Positions (line:col) are
// stripped during normalization so the summary is stable under edits
// that merely move code; multiplicity is kept as a count so a *new*
// allocation at an old shape still shows.
var escapeLineRe = regexp.MustCompile(`^(.+\.go):\d+:\d+: (.+)$`)

// escapeDirs are the source prefixes the summary keeps: the compiler
// may echo diagnostics for whatever else the build touches (pattern
// spillover, rebuilt dependencies), but only the runtime packages'
// decisions are pinned.
var escapeDirs = []string{
	"internal/bitstr/",
	"internal/wire/",
	"internal/core/",
	"internal/engine/",
	"internal/netlink/",
	"internal/outbox/",
	"internal/session/",
	"internal/supervise/",
	"internal/relay/",
	"internal/fabric/",
	"internal/verify/",
}

// normalizeEscapes reduces `go build -gcflags=-m` output to a
// deterministic multiset: "file: message" -> count, keeping only the
// heap decisions ("escapes to heap", "moved to heap") in the runtime
// packages and dropping the inlining/leaking chatter and all positions.
func normalizeEscapes(out []byte) map[string]int {
	counts := make(map[string]int)
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := escapeLineRe.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		file, msg := m[1], m[2]
		inScope := false
		for _, d := range escapeDirs {
			if strings.HasPrefix(file, d) {
				inScope = true
				break
			}
		}
		if !inScope {
			continue
		}
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		counts[file+": "+msg]++
	}
	return counts
}

// readEscapeAllowlist parses the committed summary: lines of
// "<count>\t<key>", comments (#) and blanks ignored.
func readEscapeAllowlist(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n, key, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q (want count<TAB>key)", path, line)
		}
		c, err := strconv.Atoi(n)
		if err != nil {
			return nil, fmt.Errorf("%s: bad count in %q: %v", path, line, err)
		}
		counts[key] = c
	}
	return counts, nil
}

func formatEscapeAllowlist(counts map[string]int) []byte {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# ghmvet escape allowlist: the compiler's heap decisions for the\n")
	b.WriteString("# runtime packages, normalized (positions stripped, counts kept).\n")
	b.WriteString("# Regenerate with: go run ./cmd/ghmvet -escapes-update\n")
	b.WriteString("# A new or grown entry is an escape regression and fails CI.\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%d\t%s\n", counts[k], k)
	}
	return []byte(b.String())
}

// runEscapes builds the runtime packages with -gcflags=-m (the build
// cache replays the compiler output on cache hits, so this is cheap and
// repeatable), normalizes, and either rewrites the allowlist (update) or
// diffs against it.
func runEscapes(update bool, allowPath string) int {
	args := append([]string{"build", "-gcflags=ghm/internal/...=-m"}, escapePkgs...)
	cmd := exec.Command("go", args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "ghmvet: escapes: go build: %v\n%s", err, out.String())
		return 2
	}
	got := normalizeEscapes(out.Bytes())

	if update {
		if err := os.WriteFile(allowPath, formatEscapeAllowlist(got), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "ghmvet: escapes: %v\n", err)
			return 2
		}
		fmt.Printf("ghmvet: escapes: wrote %d entries to %s\n", len(got), allowPath)
		return 0
	}

	want, err := readEscapeAllowlist(allowPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ghmvet: escapes: %v (run -escapes-update to create it)\n", err)
		return 2
	}

	var regressions, improvements []string
	for k, g := range got {
		if w := want[k]; g > w {
			regressions = append(regressions, fmt.Sprintf("%s (%d -> %d)", k, w, g))
		}
	}
	for k, w := range want {
		if g := got[k]; g < w {
			improvements = append(improvements, fmt.Sprintf("%s (%d -> %d)", k, w, g))
		}
	}
	sort.Strings(regressions)
	sort.Strings(improvements)

	for _, s := range improvements {
		fmt.Printf("ghmvet: escapes: improved: %s (refresh with -escapes-update)\n", s)
	}
	if len(regressions) > 0 {
		for _, s := range regressions {
			fmt.Fprintf(os.Stderr, "ghmvet: escape regression: %s\n", s)
		}
		fmt.Fprintf(os.Stderr, "ghmvet: escapes: %d regression(s) vs %s — a runtime-package value newly escapes to the heap; fix it or (if deliberate) regenerate with -escapes-update and justify in the PR\n",
			len(regressions), allowPath)
		return 1
	}
	fmt.Printf("ghmvet: escapes: clean (%d pinned entries)\n", len(want))
	return 0
}
