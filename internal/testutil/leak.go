// Package testutil holds shared test harness pieces; the headline one is
// the goroutine-leak guard. The runtime rewrite's core promise is a
// bounded goroutine budget — one pump per conn plus the process-wide
// wheel — and a leaked pump is precisely the bug the budget exists to
// prevent, so the engine, netlink and session suites fail when a test
// exits with goroutines it created still running.
package testutil

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// leakAllowlist matches goroutines that may legitimately outlive a test,
// by a frame or the creation site in their stack dump:
//
//   - the process-wide timer wheel is started once, by engine.DefaultWheel,
//     and deliberately never stopped; it alone runs under runDefault —
//     every other wheel must be stopped by whoever made it;
//   - the testing package's own machinery (tRunner waiters, parallel
//     test scaffolding);
//   - runtime helpers that surface in dumps on some platforms.
var leakAllowlist = []string{
	"ghm/internal/engine.(*Wheel).runDefault(",
	"created by testing.",
	"created by runtime.",
	"created by os/signal.",
}

func allowed(block string) bool {
	for _, marker := range leakAllowlist {
		if strings.Contains(block, marker) {
			return true
		}
	}
	return false
}

// goroutines snapshots every live goroutine, keyed by id, with its full
// stack block as the value.
func goroutines() map[int]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	out := make(map[int]string)
	for _, block := range strings.Split(string(buf), "\n\n") {
		var id int
		if _, err := fmt.Sscanf(block, "goroutine %d ", &id); err == nil {
			out[id] = block
		}
	}
	return out
}

// leakedSince diffs the current goroutines against a baseline snapshot,
// retrying until the diff (minus the allowlist) drains or the deadline
// passes: goroutines unblocked by a Close need a few scheduler turns to
// actually exit, and a guard without a grace window would flake on
// exactly the teardowns it is meant to bless.
func leakedSince(base map[int]string, wait time.Duration) []string {
	deadline := time.Now().Add(wait)
	for {
		var leaked []string
		for id, block := range goroutines() {
			if _, ok := base[id]; ok {
				continue
			}
			if !allowed(block) {
				leaked = append(leaked, block)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// VerifyNoLeaks arms the leak guard for one test: it snapshots the live
// goroutines now and, when the test ends, fails it if goroutines created
// since are still running (allowlist aside). Call it first thing in the
// test. A test that already failed is left alone — its teardown may
// legitimately have been cut short, and the first failure is the one
// worth reading.
func VerifyNoLeaks(t testing.TB) {
	t.Helper()
	base := goroutines()
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		if leaked := leakedSince(base, 2*time.Second); len(leaked) > 0 {
			t.Errorf("goroutine leak: %d goroutine(s) created by this test still running:\n\n%s",
				len(leaked), strings.Join(leaked, "\n\n"))
		}
	})
}

// Main is a TestMain body that guards the whole package: every goroutine
// alive after m.Run that was not alive before it (allowlist aside) fails
// the suite. Use it where per-test guards would race parallel tests:
//
//	func TestMain(m *testing.M) { testutil.Main(m) }
func Main(m *testing.M) {
	base := goroutines()
	code := m.Run()
	if code == 0 {
		if leaked := leakedSince(base, 5*time.Second); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr,
				"testutil: goroutine leak: %d goroutine(s) still running after the suite:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}
