package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ghm/internal/stats"
)

func TestCounterAndGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("a.events")
	c.Inc()
	c.Add(4)
	c.Add(0) // no-op, still monotonic
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("a.events") != c {
		t.Error("same name returned a different counter")
	}

	g := r.Gauge("a.level")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %v, want 2.5", got)
	}
	r.GaugeFuncSum("a.fn", func() float64 { return 7 })

	s := r.Snapshot()
	if s.Counters["a.events"] != 5 || s.Gauges["a.level"] != 2.5 || s.Gauges["a.fn"] != 7 {
		t.Errorf("snapshot mismatch: %+v", s)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := New()
	c := r.Counter("n")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
}

// TestHistogramMatchesQuantileEstimator pins the histogram's percentiles
// to internal/stats: feeding the same stream in the same order must yield
// exactly the P² estimates of standalone stats.Quantile instances.
func TestHistogramMatchesQuantileEstimator(t *testing.T) {
	r := New()
	h := r.Histogram("lat_ms")
	q50 := stats.NewQuantile(0.50)
	q95 := stats.NewQuantile(0.95)
	q99 := stats.NewQuantile(0.99)

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		x := rng.ExpFloat64() * 10
		h.Observe(x)
		q50.Add(x)
		q95.Add(x)
		q99.Add(x)
	}
	v := h.Value()
	if v.Count != 5000 {
		t.Fatalf("count = %d", v.Count)
	}
	if v.P50 != q50.Value() || v.P95 != q95.Value() || v.P99 != q99.Value() {
		t.Errorf("histogram quantiles diverge from stats.Quantile: %+v vs %v/%v/%v",
			v, q50.Value(), q95.Value(), q99.Value())
	}
}

// TestHistogramQuantileAccuracy sanity-checks the estimates against exact
// order statistics of a uniform stream.
func TestHistogramQuantileAccuracy(t *testing.T) {
	r := New()
	h := r.Histogram("u")
	rng := rand.New(rand.NewSource(11))
	n := 20000
	for i := 0; i < n; i++ {
		h.Observe(rng.Float64() * 100)
	}
	v := h.Value()
	for _, tc := range []struct{ got, want float64 }{
		{v.P50, 50}, {v.P95, 95}, {v.P99, 99},
	} {
		if math.Abs(tc.got-tc.want) > 2.5 {
			t.Errorf("quantile estimate %v too far from %v", tc.got, tc.want)
		}
	}
	if v.Min < 0 || v.Max > 100 || v.Mean < 45 || v.Mean > 55 {
		t.Errorf("summary out of range: %+v", v)
	}
}

func TestSnapshotJSONStable(t *testing.T) {
	r := New()
	r.Counter("b").Inc()
	r.Counter("a").Add(2)
	r.Histogram("h").Observe(1)
	j1, j2 := r.Snapshot().JSON(), r.Snapshot().JSON()
	if j1 != j2 {
		t.Errorf("snapshot JSON unstable:\n%s\nvs\n%s", j1, j2)
	}
	var parsed Snapshot
	if err := json.Unmarshal([]byte(j1), &parsed); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if parsed.Counters["a"] != 2 || parsed.Counters["b"] != 1 || parsed.Histograms["h"].Count != 1 {
		t.Errorf("roundtrip mismatch: %+v", parsed)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := New()
	r.Counter("hits").Add(3)
	h := Handler(r)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}

	rec := get("/metrics")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"hits": 3`) {
		t.Errorf("/metrics = %d %q", rec.Code, rec.Body.String())
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Errorf("/metrics body is not JSON: %v", err)
	}

	rec = get("/debug/vars")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ghm"`) {
		t.Errorf("/debug/vars = %d, body missing ghm export", rec.Code)
	}

	if rec = get("/debug/pprof/"); rec.Code != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d", rec.Code)
	}
}

func TestServe(t *testing.T) {
	r := New()
	r.Counter("served").Inc()
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Skipf("no loopback listener: %v", err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

// TestGaugeFuncSum: functions registered under one name report their sum,
// each remove takes exactly its own function out, and the name leaves the
// snapshot — and the registry lets go of the last function — with the
// last remove.
func TestGaugeFuncSum(t *testing.T) {
	r := New()
	a := r.GaugeFuncSum("q.depth", func() float64 { return 3 })
	b := r.GaugeFuncSum("q.depth", func() float64 { return 5 })
	c := r.GaugeFuncSum("q.depth", func() float64 { return 11 })
	if got := r.Snapshot().Gauges["q.depth"]; got != 19 {
		t.Errorf("three functions sum to %v, want 19", got)
	}
	b()
	b() // idempotent
	if got := r.Snapshot().Gauges["q.depth"]; got != 14 {
		t.Errorf("after removing the 5: %v, want 14", got)
	}
	a()
	c()
	if got, ok := r.Snapshot().Gauges["q.depth"]; ok {
		t.Errorf("gauge still reports %v with every function removed", got)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.gaugeSums) != 0 {
		t.Errorf("registry still holds %v", r.gaugeSums)
	}
}
