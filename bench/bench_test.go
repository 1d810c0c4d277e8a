package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func quickConfig(t *testing.T, trace bool) runConfig {
	return runConfig{seed: 1, seconds: 200 * time.Millisecond, trace: trace, outDir: t.TempDir(), log: io.Discard, quick: true, inProcess: true}
}

// TestSmokeEveryWorkload runs every workload for one 200 ms slice at smoke
// scale and wants every end-to-end metric reported, none of them zero, and
// no operation failed.
func TestSmokeEveryWorkload(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res := runWorkload(w, quickConfig(t, false))
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%d of %d operations failed: %s", res.Failed, res.Attempted, res.firstFail)
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.name]; !ok || v.Value <= 0 || v.Unit != d.unit {
					t.Errorf("%s = %+v (reported %v), want a positive value in %s", d.name, v, ok, d.unit)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("an untraced run reported %d metrics, want the %d end-to-end ones", len(res.Metrics), len(endToEnd))
			}
			if w.name == "link-udp" && !res.loopback {
				t.Error("link-udp did not record that its traffic crossed loopback")
			}
		})
	}
}

// TestSmokeTraced runs the traced run — ladder, reference phase, traced
// phase, span file — on one link workload and one mesh workload.
func TestSmokeTraced(t *testing.T) {
	for _, name := range []string{"link-perfect", "mesh-pingpong"} {
		t.Run(name, func(t *testing.T) {
			cfg := quickConfig(t, true)
			cfg.seconds = time.Second
			res := runWorkload(findWorkload(name), cfg)
			if !res.Correct {
				t.Fatalf("%d of %d operations failed: %s", res.Failed, res.Attempted, res.firstFail)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("a traced run reported %d metrics, want every one of the %d per-layer ones", len(res.Metrics), len(perLayer))
			}
			for _, r := range rungs {
				if res.Metrics[r.name+".ns"].Value <= 0 {
					t.Errorf("ladder rung %s did not run", r.name)
				}
			}
			if res.traced == nil || res.traced.Traced == 0 {
				t.Error("no message was traced")
			}
			if data, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+name+".json")); err != nil || !bytes.Contains(data, []byte(`"spans":[{`)) {
				t.Errorf("span file missing or empty: %v", err)
			}
			span := "netlink.tx_complete_us"
			if name == "mesh-pingpong" {
				span = "relay.forward_us"
			}
			if res.Metrics[span].Value <= 0 {
				t.Errorf("%s = %v, want a positive median self-time", span, res.Metrics[span].Value)
			}
		})
	}
}

// TestContract holds BENCHMARK.json to the code and to the limits the
// builder's contract sets: the driver refuses a file outside them before a
// single run.
func TestContract(t *testing.T) {
	c, err := readJSON[benchmarkFile](filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(kind, n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("%s name %q is malformed or used twice", kind, n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s %s: unit %q is malformed", kind, n, u)
		}
	}

	if len(c.Workloads) != 6 || len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code, want 6", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		check("workload", w.Name, "")
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the code, or their reasons differ", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if len(c.EndToEnd) > 16 || len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code, at most 16 allowed", len(c.EndToEnd), len(endToEnd))
	}
	for i, m := range c.EndToEnd {
		check("end-to-end metric", m.Name, m.Unit)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d is %s [%s] in BENCHMARK.json and %s [%s] in the code", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v must be in (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != better(m.Name) {
			t.Errorf("%s: better is %q, want %q", m.Name, m.Better, better(m.Name))
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better")
		}
	}
	if !seen["setup_s"] {
		t.Error("the contract wants a setup_s metric")
	}

	if len(c.PerLayer) > 128 || len(c.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code, at most 128 allowed", len(c.PerLayer), len(perLayer))
	}
	for i, m := range c.PerLayer {
		check("per-layer metric", m.Name, m.Unit)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json and %s [%s] in the code", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Better != better(m.Name) {
			t.Errorf("%s: better is %q, want %q", m.Name, m.Better, better(m.Name))
		}
	}

	if len(c.Paths) != 1 || c.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", c.Paths)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", c.RunSeconds)
	}
}

// recConn records what is sent through it.
type recConn struct{ sent [][]byte }

func (r *recConn) Send(p []byte) error {
	r.sent = append(r.sent, append([]byte(nil), p...))
	return nil
}
func (r *recConn) Recv() ([]byte, error) { select {} }
func (r *recConn) Close() error          { return nil }

// TestReplayShimSameLength: whatever mix of lengths crosses the shim, an
// injected packet has exactly the length of the packet it follows, and is
// a copy of a packet forwarded earlier — stale, never invented.
func TestReplayShimSameLength(t *testing.T) {
	rec := &recConn{}
	shim := newReplayConn(rec, 0.5, 7)
	var forwarded [][]byte
	for i := 0; i < 5000; i++ {
		p := bytes.Repeat([]byte{byte(i)}, 20+i%7)
		p[0] = byte(i >> 8)
		before := len(rec.sent)
		if err := shim.Send(p); err != nil {
			t.Fatal(err)
		}
		got := rec.sent[before:]
		if len(got) == 0 || !bytes.Equal(got[0], p) {
			t.Fatalf("packet %d was not forwarded first and intact", i)
		}
		for _, inj := range got[1:] {
			if len(inj) != len(p) {
				t.Fatalf("packet %d (%d bytes) was followed by an injected packet of %d bytes", i, len(p), len(inj))
			}
			stale := false
			for _, f := range forwarded[max(0, len(forwarded)-replayHistory):] {
				stale = stale || bytes.Equal(f, inj)
			}
			if !stale {
				t.Fatalf("packet %d was followed by a packet the shim never forwarded within its history", i)
			}
		}
		if len(got) > 2 {
			t.Fatalf("packet %d was followed by %d injected packets, want at most 1", i, len(got)-1)
		}
		forwarded = append(forwarded, p)
	}
	if n := shim.injected.Load(); n < 1000 || int(n) != len(rec.sent)-len(forwarded) {
		t.Errorf("injected %d packets, conn saw %d extra, want about half of 5000", n, len(rec.sent)-len(forwarded))
	}
}

// TestSpanSumCatchesDroppedSpan: a message whose spans tile its confirm
// latency is explained; drop one span, or let one run backwards, and it is
// not.
func TestSpanSumCatchesDroppedSpan(t *testing.T) {
	for _, chain := range [][]segment{linkChain, meshChain} {
		full := msgTrace{id: 1}
		for st := stSubmit; st <= stDone; st++ {
			full.t[st] = int64(1000 * (st + 1))
		}
		if !full.explained(chain) {
			t.Fatal("a complete chain is reported unexplained")
		}
		for _, s := range chain {
			if !s.onPath || s.to == stDone {
				continue
			}
			dropped := full
			dropped.t[s.to] = 0
			if dropped.explained(chain) {
				t.Errorf("dropping the end of %s went unnoticed", s.name)
			}
			backwards := full
			backwards.t[s.to] = full.t[s.from] - 1
			if backwards.explained(chain) {
				t.Errorf("%s running backwards went unnoticed", s.name)
			}
		}
		// A chain with a hole worth more than the tolerance: the spans no
		// longer add up to the latency.
		holed := append([]segment(nil), chain...)
		holed = append(holed[:1], holed[2:]...)
		if full.explained(holed) {
			t.Error("a chain missing one span still adds up")
		}
	}
}

// TestWatchdog: a program that stalls every operation for 5 s produces
// failed operations, not a hung benchmark.
func TestWatchdog(t *testing.T) {
	start := time.Now()
	in, err := build(findWorkload("link-perfect"), 1, nil, testDouble{stall: 5 * time.Second, timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	in.close()
	if in.failed.Load() == 0 {
		t.Error("stalled operations were not counted as failed")
	}
	if c, _, _ := in.totals(); c != 0 {
		t.Errorf("%d operations confirmed through a 5 s stall", c)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("stopping a stalled run took %v", d)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for i := 1; i <= 100000; i++ {
		h.record(int64(i) * 37)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000 * 37
		if got := h.quantile(q); math.Abs(got-want)/want > 0.02 {
			t.Errorf("quantile %v = %v, want %v within 2 %%", q, got, want)
		}
	}
	for _, v := range []int64{0, 1, 63, 64, 65, 1000, 1 << 20, 1<<40 + 12345} {
		lo, hi := histBounds(histBucket(v))
		if float64(v) < lo || float64(v) >= hi {
			t.Errorf("value %d landed in bucket [%v, %v)", v, lo, hi)
		}
	}
}

// TestJudge pins the four verdicts of -compare.
func TestJudge(t *testing.T) {
	lower := boundedMetric{Name: "confirm_us_p50", Better: "lower", Bound: 0.10}
	higher := boundedMetric{Name: "goodput_msgs_s", Better: "higher", Bound: 0.10}
	m := func(v float64, slices ...float64) suiteMetric { return suiteMetric{Value: v, Slices: slices} }
	for _, c := range []struct {
		metric   boundedMetric
		old, new suiteMetric
		want     string
	}{
		{lower, m(100, 99, 100, 101), m(101, 100, 101, 102), vWithin},
		{lower, m(100, 99, 100, 101), m(120, 119, 120, 121), vWorse},
		{lower, m(100, 99, 100, 101), m(80, 79, 80, 81), vBetter},
		{lower, m(100, 80, 100, 125), m(104, 85, 104, 130), vUnresolved},
		{lower, m(100, 80, 100, 125), m(115, 85, 115, 130), vUnresolved},
		{lower, m(100, 80, 100, 125), m(200, 190, 200, 230), vWorse},
		{higher, m(1000, 990, 1000, 1010), m(850, 840, 850, 860), vWorse},
		{higher, m(1000, 990, 1000, 1010), m(1200, 1190, 1200, 1210), vBetter},
		{higher, m(1000, 990, 1000, 1010), m(960, 950, 960, 970), vWithin},
	} {
		if got, _, _ := judge(c.metric, c.old, c.new); got != c.want {
			t.Errorf("%s %v -> %v: verdict %q, want %q", c.metric.Name, c.old.Value, c.new.Value, got, c.want)
		}
	}
}

// TestDriverLine: a driver-mode run ends with one JSON object holding
// exactly the four keys the contract names.
func TestDriverLine(t *testing.T) {
	if code := run([]string{"-workload", "no-such"}, io.Discard, io.Discard); code == 0 {
		t.Error("an unknown workload exited 0")
	}
	line, err := json.Marshal(runWorkload(findWorkload("link-perfect"), quickConfig(t, false)))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Errorf("result line %s must hold exactly correct, attempted, failed and metrics", line)
	}
}
