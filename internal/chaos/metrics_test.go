package chaos

import (
	"context"
	"math"
	"testing"
	"time"

	"ghm/internal/metrics"
)

// TestSoakMetricsCrossCheck is the golden metrics test: a seeded soak
// over a link with a known i.i.d. loss probability must produce a
// snapshot whose observed drop counters agree with the injected loss,
// and whose counters cohere with the soak's own result and the links'
// ImpairStats.
func TestSoakMetricsCrossCheck(t *testing.T) {
	reg := metrics.New()
	const loss = 0.25
	// About five packets cross the link per message; 150 messages clear
	// the 500-packet floor below with room (100 sat right on it and failed
	// whenever a loaded machine paced fewer retries).
	const messages = 150
	sc := Scenario{
		Name:     "metrics-golden",
		Seed:     4242,
		Duration: 400 * time.Millisecond,
		Link:     LinkSpec{Loss: loss, Latency: 100 * time.Microsecond},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, sc, Env{Messages: messages, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Clean() {
		t.Fatalf("conformance violations: %s", res.Report)
	}

	snap := reg.Snapshot()
	c := func(name string) int64 { return snap.Counters[name] }

	// Injected vs observed loss: the scenario injects i.i.d. loss at a
	// known probability, the instrumented link counts what it actually
	// dropped. With thousands of packets the binomial rate must land
	// within a few standard deviations of the configured probability.
	sent, dropped := c("link.sent"), c("link.drop_iid")
	if sent < 500 {
		t.Fatalf("only %d packets crossed the link; soak too quiet to cross-check", sent)
	}
	rate := float64(dropped) / float64(sent)
	if math.Abs(rate-loss) > 0.06 {
		t.Errorf("observed drop rate %.3f diverges from injected loss %.3f (%d/%d)",
			rate, loss, dropped, sent)
	}

	// The registry's link counters and the conns' own ImpairStats are two
	// bookkeepings of the same events; they must agree exactly.
	tr, rt := res.LinkTR, res.LinkRT
	for _, tc := range []struct {
		name string
		want int64
	}{
		{"link.sent", tr.Sent + rt.Sent},
		{"link.delivered", tr.Delivered + rt.Delivered},
		{"link.duplicated", tr.Duplicated + rt.Duplicated},
		{"link.drop_iid", tr.DropIID + rt.DropIID},
		{"link.drop_burst", tr.DropBurst + rt.DropBurst},
		{"link.drop_blackout", tr.DropBlackout + rt.DropBlackout},
		{"link.drop_queue", tr.DropQueue + rt.DropQueue},
	} {
		if c(tc.name) != tc.want {
			t.Errorf("%s = %d, ImpairStats say %d", tc.name, c(tc.name), tc.want)
		}
	}

	// Station counters must cohere with the soak result. No crashes are
	// scheduled, so every completed send has exactly one OK and one
	// latency sample, and deliveries match the drained count.
	if c("tx.oks") != messages || c("chaos.sends") != messages {
		t.Errorf("tx.oks = %d, chaos.sends = %d, want %d each", c("tx.oks"), c("chaos.sends"), messages)
	}
	if got := snap.Histograms["tx.ok_latency_ms"]; got.Count != messages || got.P50 <= 0 || got.P99 < got.P50 {
		t.Errorf("ok latency histogram incoherent: %+v", got)
	}
	if c("chaos.delivered") != int64(res.Delivered) || c("rx.delivered") != int64(res.Delivered) {
		t.Errorf("delivered counters disagree: chaos=%d rx=%d result=%d",
			c("chaos.delivered"), c("rx.delivered"), res.Delivered)
	}
	if c("tx.crashes") != 0 || c("rx.crashes") != 0 || c("tx.abandoned") != 0 {
		t.Errorf("crash counters nonzero in a crash-free scenario: %+v", snap.Counters)
	}
	if c("rx.retries") == 0 || c("rx.packets_sent") == 0 || c("tx.packets_sent") == 0 {
		t.Errorf("traffic counters missing: %+v", snap.Counters)
	}
}

// TestRunCountsInjectedActions checks the chaos.*_injected counters
// against a scripted timeline run on a live link: every action has its
// target, so each one counted is one carried out.
func TestRunCountsInjectedActions(t *testing.T) {
	reg := metrics.New()
	sc := Scenario{
		Name:     "count-actions",
		Duration: 40 * time.Millisecond,
		Actions: []Action{
			{At: 1 * time.Millisecond, Kind: CrashSender},
			{At: 2 * time.Millisecond, Kind: CrashReceiver},
			{At: 3 * time.Millisecond, Kind: CrashSender},
			{At: 4 * time.Millisecond, Kind: BlackoutStart},
			{At: 5 * time.Millisecond, Kind: BlackoutEnd},
			{At: 6 * time.Millisecond, Kind: SetLoss, Loss: 0.5},
		},
	}
	if _, err := Run(context.Background(), sc, Env{Messages: 20, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["chaos.crash_t_injected"] != 2 ||
		snap.Counters["chaos.crash_r_injected"] != 1 ||
		snap.Counters["chaos.blackouts_injected"] != 1 ||
		snap.Counters["chaos.loss_ramps_injected"] != 1 {
		t.Errorf("injection counters wrong: %+v", snap.Counters)
	}
	if snap.Gauges["chaos.loss_current"] != 0.5 {
		t.Errorf("chaos.loss_current = %v, want 0.5", snap.Gauges["chaos.loss_current"])
	}
}
