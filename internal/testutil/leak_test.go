package testutil

import (
	"testing"

	"ghm/internal/engine"
)

// recordingTB is a testing.TB that notes a failure instead of failing, and
// runs its cleanups on demand.
type recordingTB struct {
	testing.TB
	failed   bool
	cleanups []func()
}

func (r *recordingTB) Helper()               {}
func (r *recordingTB) Failed() bool          { return r.failed }
func (r *recordingTB) Errorf(string, ...any) { r.failed = true }
func (r *recordingTB) Cleanup(f func())      { r.cleanups = append(r.cleanups, f) }
func (r *recordingTB) finish() (leakFound bool) {
	for _, f := range r.cleanups {
		f()
	}
	return r.failed
}

// TestGuardSeesEveryWheelButTheDefault: the process-wide wheel may start
// during a guarded test and stay; any other wheel left running fails it.
// The allowlist used to name the function every wheel's goroutine is
// created in, so no leaked wheel could fail a test.
func TestGuardSeesEveryWheelButTheDefault(t *testing.T) {
	ok := &recordingTB{TB: t}
	VerifyNoLeaks(ok)
	engine.DefaultWheel() // this package has no other test: it starts here
	if ok.finish() {
		t.Error("the guard reported the process-wide wheel as a leak")
	}

	leaky := &recordingTB{TB: t}
	VerifyNoLeaks(leaky)
	w := engine.NewWheel(0, 0)
	defer w.Stop()
	if !leaky.finish() {
		t.Error("a wheel left running went unreported")
	}
}
