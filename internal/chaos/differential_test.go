package chaos

import (
	"context"
	"testing"
	"time"

	"ghm/internal/clock"
	"ghm/internal/metrics"
)

// TestSupervisedSoakDifferentialVirtual runs the same seeded chaos
// scenario twice — once on the wall clock over the classic impaired
// pipe, once on a virtual clock over the goroutine-free fabric — and
// demands the same end-to-end outcome from both: every enqueued payload
// delivered and a clean Section 2.6 conformance report. Payload names
// are deterministic (m-%08d in submission order), so "no Missing" in
// both runs means the guaranteed-delivery sets agree exactly on the
// common enqueued prefix; only the filler tail may differ, because the
// two clocks pace the enqueue loop against different timelines.
//
// This is the differential claim of the virtual-time refactor: the
// clock seam changes when things run, never what the protocol does.
func TestSupervisedSoakDifferentialVirtual(t *testing.T) {
	sc := Generate(77, GenConfig{Duration: 600 * time.Millisecond, Wedges: 1})
	const messages = 60

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Real clock, default pipe links.
	real, err := Run(ctx, sc, Env{Messages: messages, Metrics: metrics.New()})
	if err != nil {
		t.Fatalf("real-clock soak: %v", err)
	}

	// Virtual clock, fabric links. The soak's goroutines block on
	// virtual timers; a driver advances the clock until the soak
	// returns. The horizon is generous — the soak finishes long before
	// and closes done, which stops the driver.
	v := clock.NewVirtual(time.Time{}, sc.Seed)
	v.SetSettle(4)
	var (
		virt    Result
		virtErr error
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		virt, virtErr = Run(ctx, sc, Env{
			Messages: messages,
			Metrics:  metrics.New(),
			Clock:    v,
			Links:    FabricLinks,
		})
	}()
	v.Run(v.Now().Add(time.Hour), done)
	<-done
	if virtErr != nil {
		t.Fatalf("virtual-clock soak: %v", virtErr)
	}

	for _, run := range []struct {
		name string
		res  Result
	}{{"real+pipe", real}, {"virtual+fabric", virt}} {
		if !run.res.Report.Clean() {
			t.Errorf("%s: conformance violations: %s", run.name, run.res.Report)
		}
		if len(run.res.Missing) > 0 {
			t.Errorf("%s: %d enqueued payloads never delivered: %v",
				run.name, len(run.res.Missing), run.res.Missing)
		}
		if run.res.Enqueued < messages {
			t.Errorf("%s: enqueued = %d, want >= %d", run.name, run.res.Enqueued, messages)
		}
		if run.res.Session.Pending != 0 {
			t.Errorf("%s: session did not drain: %+v", run.name, run.res.Session)
		}
		if err := run.res.Err(); err != nil {
			t.Errorf("%s: verdict: %v", run.name, err)
		}
	}

	// Both links must actually have impaired traffic — a differential
	// pass over a silent link would prove nothing.
	if real.LinkTR.Sent == 0 || virt.LinkTR.Sent == 0 {
		t.Errorf("no traffic traversed a link: real=%+v virtual=%+v", real.LinkTR, virt.LinkTR)
	}
	if virt.LinkTR.DropIID+virt.LinkTR.DropBurst+virt.LinkTR.DropBlackout == 0 &&
		sc.Link.Loss > 0 {
		t.Errorf("virtual fabric dropped nothing under loss %v: %+v", sc.Link.Loss, virt.LinkTR)
	}
}
