package main

import "encoding/json"

// metricDef fixes a metric's name, unit, direction and — for end-to-end
// metrics — the share of the parent's median by which it may worsen
// before a change counts as a regression. This table is the single
// source: `-manifest` prints BENCHMARK.json from it, and -compare and
// -aa judge against it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the runtime sees. Every workload
// reports every one of them, and none is ever 0.
var endToEnd = []metricDef{
	{Name: "iter_us_p50", Unit: "us", Better: "lower", Bound: 0.10},
	{Name: "iter_us_p90", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "tasks_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// layerDefs lists the per-layer rows of a traced run (no bounds: they
// explain an end-to-end movement, they do not gate).
var layerDefs = []metricDef{
	// The benchmark's own spans around its calls into the API.
	{Name: "bench.launch_call_us", Unit: "us", Better: "lower"},
	{Name: "bench.fence_drain_us", Unit: "us", Better: "lower"},
	{Name: "bench.future_get_us", Unit: "us", Better: "lower"},
	{Name: "bench.task_body_us", Unit: "us", Better: "lower"},
	{Name: "bench.body_core_share", Unit: "ratio", Better: "higher"},
	{Name: "bench.execute_s", Unit: "s", Better: "lower"},
	{Name: "bench.shutdown_s", Unit: "s", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	// Counters the program already exposes, normalised per iteration.
	{Name: "core.coarse.us_per_op", Unit: "us", Better: "lower"},
	{Name: "core.fine.us_per_point", Unit: "us", Better: "lower"},
	{Name: "core.fine.fence_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "core.exec.point_us_per_task", Unit: "us", Better: "lower"},
	{Name: "core.exec.pull_wire_us_per_iter", Unit: "us", Better: "lower"},
	{Name: "collective.us_per_iter", Unit: "us", Better: "lower"},
	{Name: "core.fences_inserted_per_iter", Unit: "count", Better: "lower"},
	{Name: "core.fences_elided_per_iter", Unit: "count", Better: "higher"},
	{Name: "core.remote_pulls_per_iter", Unit: "count", Better: "lower"},
	{Name: "core.pull_local_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cluster.msgs_per_iter", Unit: "count", Better: "lower"},
	{Name: "cluster.bytes_per_iter", Unit: "B", Better: "lower"},
	{Name: "cluster.tcp.frames_per_iter", Unit: "count", Better: "lower"},
	{Name: "cluster.piggy_ack_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cluster.retransmits", Unit: "count", Better: "lower"},
	{Name: "cluster.corrupt_frames", Unit: "count", Better: "lower"},
	{Name: "cluster.reconnects", Unit: "count", Better: "lower"},
	{Name: "core.allocs_per_iter", Unit: "count", Better: "lower"},
	{Name: "core.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "core.replication_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.supervisor.recovery_ms", Unit: "ms", Better: "lower"},
	{Name: "core.supervisor.deadline_waits", Unit: "count", Better: "lower"},
	{Name: "core.supervisor.restarts", Unit: "count", Better: "lower"},
	{Name: "core.supervisor.recover_partial_ms", Unit: "ms", Better: "lower"},
	{Name: "core.supervisor.partial_unconverged", Unit: "count", Better: "lower"},
	// Demoted from the end-to-end set: A/A cannot hold them within a
	// bound (README.md has the measured spreads).
	{Name: "diag.recover_s_p50", Unit: "s", Better: "lower"},
	{Name: "diag.peak_rss_mb", Unit: "MB", Better: "lower"},
	// Reconciliation of the micro rows against the measured iteration.
	{Name: "recon.wire_ratio", Unit: "ratio", Better: "lower"},
	{Name: "recon.analysis_ratio", Unit: "ratio", Better: "lower"},
}

// microDefs lists the layer micro-suite rows; each is reported as its
// median under the plain name plus ".min" and ".p90".
var microDefs = []metricDef{
	{Name: "cluster.codec.encode_ns_1", Unit: "ns", Better: "lower"},
	{Name: "cluster.codec.decode_ns_1", Unit: "ns", Better: "lower"},
	{Name: "cluster.codec.encode_ns_32768", Unit: "ns", Better: "lower"},
	{Name: "cluster.codec.decode_ns_32768", Unit: "ns", Better: "lower"},
	{Name: "cluster.mem.rtt_us", Unit: "us", Better: "lower"},
	{Name: "cluster.tcp.rtt_us", Unit: "us", Better: "lower"},
	{Name: "cluster.tcp.stream_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "collective.barrier_us_mem4", Unit: "us", Better: "lower"},
	{Name: "collective.barrier_us_tcp4", Unit: "us", Better: "lower"},
	{Name: "collective.allreduce_us_tcp4", Unit: "us", Better: "lower"},
	{Name: "geom.intersect_ns", Unit: "ns", Better: "lower"},
	{Name: "region.project_ns", Unit: "ns", Better: "lower"},
	{Name: "mapper.memo_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "dethash.op_ns", Unit: "ns", Better: "lower"},
	{Name: "instance.at_set_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "stats.span_ns", Unit: "ns", Better: "lower"},
	{Name: "core.spill.write_ms", Unit: "ms", Better: "lower"},
	{Name: "core.spill.load_ms", Unit: "ms", Better: "lower"},
	{Name: "core.spill.bytes", Unit: "count", Better: "lower"},
}

// perLayer is every per-layer metric a traced run prints: the layer
// rows plus the micro rows with their min/p90 companions.
func perLayer() []metricDef {
	out := append([]metricDef(nil), layerDefs...)
	for _, d := range microDefs {
		out = append(out, d)
		if d.Name == "core.spill.bytes" {
			continue // an exact count: no distribution
		}
		out = append(out,
			metricDef{Name: d.Name + ".min", Unit: d.Unit, Better: d.Better},
			metricDef{Name: d.Name + ".p90", Unit: d.Unit, Better: d.Better})
	}
	return out
}

// runSeconds is how long one driver run measures.
const runSeconds = 15

// manifest renders BENCHMARK.json. A metricDef marshals to exactly the
// contract's keys: bound is omitted where there is none.
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return append(b, '\n')
}
