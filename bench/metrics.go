package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one metric the benchmark prints. BENCHMARK.json repeats
// the names and units and adds, for the end-to-end ones, which direction
// is better and the bound by which a later change may worsen them;
// bench_test.go keeps the two lists equal.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the program would see, gated by the
// bounds in BENCHMARK.json. Every one is reported for every workload (the
// contract gates each on each), so the list holds only what stays away from
// zero and repeats run to run on all six: set-up time and the paper's own
// cost measures — packets, bytes, storage — plus allocation. Goodput,
// latency and CPU time do not repeat on a shared box and are the layer
// metrics client.* below (see README.md, "Demoted").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"allocs_per_msg", "count"},
	{"alloc_bytes_per_msg", "B"},
	{"pkts_per_msg", "count"},
	{"wire_bytes_per_msg", "B"},
	{"live_heap_mb", "MB"},
}

// timing are the client-side speed figures. An untraced run prints their
// medians over its slices for the reader, ungated; a traced run reports
// them among the per-layer metrics.
var timing = []metricDef{
	{"client.goodput_msgs_s", "1/s"},
	{"client.confirm_us_p50", "us"},
	{"client.confirm_ms_p99", "ms"},
	{"client.cpu_us_per_msg", "us"},
}

// higherIsBetter names the metrics where more is better; for every other
// one, less is.
var higherIsBetter = map[string]bool{
	"client.goodput_msgs_s":    true,
	"netlink.useful_pkt_ratio": true,
	"trace.overhead_ratio":     true,
}

func better(name string) string {
	if higherIsBetter[name] {
		return "higher"
	}
	return "lower"
}

// perLayer are the metrics of single layers, measured from outside: the
// ladder rungs, the workload counters and the traced spans.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	for _, r := range rungs {
		defs = append(defs, metricDef{r.name + ".ns", "ns"}, metricDef{r.name + ".allocs", "count"}, metricDef{r.name + ".bytes", "B"})
	}
	defs = append(defs, timing...)
	defs = append(defs,
		metricDef{"core.handshake.pkts", "count"},
		metricDef{"core.handshake.wire_bytes", "B"},
		metricDef{"core.flood.extensions", "count"},
		metricDef{"core.flood.max_bits", "count"},

		metricDef{"netlink.retries_per_msg", "count"},
		metricDef{"netlink.shed_per_msg", "count"},
		metricDef{"netlink.errors_per_msg", "count"},
		metricDef{"netlink.ext_per_msg", "count"},
		metricDef{"netlink.window_pending_max", "count"},
		metricDef{"netlink.useful_pkt_ratio", "ratio"},
		metricDef{"netlink.recover_ms_p50", "ms"},
		metricDef{"adversary.injected_per_msg", "count"},
		metricDef{"relay.hops_per_msg", "count"},
		metricDef{"relay.reroutes_per_msg", "count"},
		metricDef{"relay.dup_suppressed_per_msg", "count"},
		metricDef{"gc.cycles", "count"},
		metricDef{"gc.pause_ms", "ms"},

		metricDef{"netlink.tx_admit_us", "us"},
		metricDef{"netlink.retry_wait_us", "us"},
		metricDef{"link.flight_data_us", "us"},
		metricDef{"netlink.rx_turnaround_us", "us"},
		metricDef{"link.flight_ctl_us", "us"},
		metricDef{"netlink.tx_complete_us", "us"},
		metricDef{"netlink.rx_release_us", "us"},
		metricDef{"relay.src_dispatch_us", "us"},
		metricDef{"relay.forward_us", "us"},
		metricDef{"relay.dest_deliver_us", "us"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
	return defs
}

// benchmarkFile is BENCHMARK.json, the contract the driver checks the
// benchmark against. The program reads it for the bounds -compare and
// -selfcheck apply.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"` // no bound
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readJSON reads a contract or suite result file.
func readJSON[T any](path string) (*T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &v, nil
}
