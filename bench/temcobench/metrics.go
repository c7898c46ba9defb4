package main

import "sort"

// metricDef declares one metric the program emits. BENCHMARK.json repeats
// name, unit, direction and (for end-to-end metrics) the bound; a test holds
// the two in agreement.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Exact marks a count that must repeat bit-for-bit on one commit
	// (-check-exact enforces it), so a later issue may rest a claim on it.
	Exact bool
	// Floor is the smallest bound the A/A rule gives an end-to-end metric:
	// below it the bound would gate on noise this box does not show in ten
	// runs but a busier hour would.
	Floor float64
	Doc   string
}

// value is one measured metric. N is the number of timed samples behind a
// timing (0 for counts and derived ratios).
type value struct {
	V    float64
	Unit string
	N    int
}

type metricSet map[string]value

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them from the untraced run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Floor: 0.05, Doc: "model build + BN fold + decompose + optimize + compile/serve.New; fleet: daemon spawn until every replica is ready and routable. Median of the set-ups made in the run"},
	{Name: "throughput_rps", Unit: "samples/s", Better: higher, Floor: 0.05, Doc: "rows completed correctly per second of the measured window (engine workloads: per second spent inside optimized runs; serve-open-batched: goodput within the 25 ms limit)"},
	{Name: "latency_p50_ms", Unit: "ms", Better: lower, Floor: 0.05, Doc: "client-observed latency per optimized run / per request (open loop: from the due time): the median over the measured window"},
	// peak_arena_bytes is planned, not measured: it repeats bit for bit, and
	// its floor is the smallest bound that still is one.
	{Name: "peak_arena_bytes", Unit: "bytes", Better: lower, Floor: 0.001, Doc: "optimized engine ArenaBytes + MaxWorkspaceBytes at the workload's batch (largest run-time bucket for the serving workloads)"},
	{Name: "time_vs_decomposed", Unit: "ratio", Better: lower, Floor: 0.05, Doc: "median optimized run time / median decomposed run time, same batch, interleaved in blocks of 10 (paper Fig. 11)"},
}

// perLayer lists the metrics of single layers, reported from the traced run.
// The prefix is the module name.
var perLayer = []metricDef{
	{Name: "decompose.time_s", Unit: "s", Better: lower},
	{Name: "decompose.layers_rewritten", Unit: "count", Better: higher, Exact: true},
	{Name: "decompose.weight_bytes_ratio", Unit: "ratio", Better: lower, Exact: true},

	{Name: "core.optimize_ms", Unit: "ms", Better: lower},
	{Name: "core.nodes_in", Unit: "count", Better: lower, Exact: true},
	{Name: "core.nodes_out", Unit: "count", Better: lower, Exact: true},
	{Name: "core.fused_kernels", Unit: "count", Better: higher, Exact: true},
	{Name: "core.tail_fused_kernels", Unit: "count", Better: higher, Exact: true},
	{Name: "core.skips_found", Unit: "count", Better: higher, Exact: true},
	{Name: "core.skips_optimized", Unit: "count", Better: higher, Exact: true},
	{Name: "core.skips_rejected", Unit: "count", Better: lower, Exact: true},
	{Name: "core.restore_layers_copied", Unit: "count", Better: lower, Exact: true},
	{Name: "core.concat_splits", Unit: "count", Better: higher, Exact: true},
	{Name: "core.merged_lconvs", Unit: "count", Better: higher, Exact: true},
	{Name: "core.pass_failures", Unit: "count", Better: lower, Exact: true},
	{Name: "core.flops_ratio", Unit: "ratio", Better: lower, Exact: true},

	{Name: "memplan.sim_peak_bytes", Unit: "bytes", Better: lower, Exact: true},
	{Name: "memplan.sim_peak_bytes_decomposed", Unit: "bytes", Better: lower, Exact: true},
	{Name: "memplan.peak_reduction_pct", Unit: "%", Better: higher, Exact: true},
	{Name: "memplan.arena_bytes", Unit: "bytes", Better: lower, Exact: true},
	{Name: "memplan.arena_bytes_noalias", Unit: "bytes", Better: lower, Exact: true},
	{Name: "memplan.fragmentation", Unit: "ratio", Better: lower, Exact: true},
	{Name: "memplan.alias_views", Unit: "count", Better: higher, Exact: true},
	{Name: "memplan.alias_in_place", Unit: "count", Better: higher, Exact: true},
	{Name: "memplan.copy_bytes_eliminated_per_run", Unit: "bytes", Better: higher, Exact: true},
	{Name: "memplan.plan_drift_bytes", Unit: "bytes", Better: lower, Exact: true},
	{Name: "memplan.assign_ms", Unit: "ms", Better: lower},

	{Name: "gemm.gflops_ref", Unit: "GFLOP/s", Better: higher},
	{Name: "gemm.stream_gbps_ref", Unit: "GB/s", Better: higher},
	{Name: "gemm.gflops_top1", Unit: "GFLOP/s", Better: higher},
	{Name: "gemm.gflops_top2", Unit: "GFLOP/s", Better: higher},
	{Name: "gemm.gflops_top3", Unit: "GFLOP/s", Better: higher},
	{Name: "gemm.roofline_frac_top1", Unit: "ratio", Better: higher},
	{Name: "gemm.roofline_frac_top2", Unit: "ratio", Better: higher},
	{Name: "gemm.roofline_frac_top3", Unit: "ratio", Better: higher},
	{Name: "gemm.pool_hit_ratio", Unit: "ratio", Better: higher},

	{Name: "ops.conv_gflops_top1", Unit: "GFLOP/s", Better: higher},
	{Name: "ops.fused_gflops_top1", Unit: "GFLOP/s", Better: higher},
	{Name: "ops.fused_workspace_bytes", Unit: "bytes", Better: lower, Exact: true},
	{Name: "ops.copy_bytes_per_run", Unit: "bytes", Better: lower, Exact: true},
	{Name: "ops.share.conv", Unit: "ratio", Better: lower},
	{Name: "ops.share.fused", Unit: "ratio", Better: lower},
	{Name: "ops.share.linear", Unit: "ratio", Better: lower},
	{Name: "ops.share.pool", Unit: "ratio", Better: lower},
	{Name: "ops.share.concat", Unit: "ratio", Better: lower},
	{Name: "ops.share.elementwise", Unit: "ratio", Better: lower},
	{Name: "ops.share.other", Unit: "ratio", Better: lower},

	{Name: "exec.interp_run_ms_p50", Unit: "ms", Better: lower},
	{Name: "exec.arena_run_ms_p50", Unit: "ms", Better: lower},
	{Name: "exec.engine_speedup", Unit: "ratio", Better: higher},

	{Name: "engine.compile_ms", Unit: "ms", Better: lower},
	{Name: "engine.run_ms_p50", Unit: "ms", Better: lower},
	{Name: "engine.run_ms_p95", Unit: "ms", Better: lower},
	{Name: "engine.decomposed_run_ms_p50", Unit: "ms", Better: lower},
	{Name: "engine.steps", Unit: "count", Better: lower, Exact: true},
	{Name: "engine.step_overhead_us", Unit: "us", Better: lower},
	{Name: "engine.allocs_per_run", Unit: "count", Better: lower},
	{Name: "engine.prepacked_bytes", Unit: "bytes", Better: lower, Exact: true},
	{Name: "engine.gflops_effective", Unit: "GFLOP/s", Better: higher},

	{Name: "serve.queue_wait_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.queue_wait_ms_p95", Unit: "ms", Better: lower},
	{Name: "serve.exec_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.exec_ms_p95", Unit: "ms", Better: lower},
	{Name: "serve.overhead_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.batch_wait_ms_mean", Unit: "ms", Better: lower},
	{Name: "serve.rows_per_run", Unit: "count", Better: higher},
	{Name: "serve.padding_share", Unit: "ratio", Better: lower},
	{Name: "serve.batch_bypass", Unit: "count", Better: lower},
	{Name: "serve.shed", Unit: "count", Better: lower},
	{Name: "serve.retries", Unit: "count", Better: lower},
	{Name: "serve.degraded_served", Unit: "count", Better: lower},
	{Name: "serve.worker_busy_share", Unit: "ratio", Better: lower},
	{Name: "serve.alloc_bytes_per_req", Unit: "bytes", Better: lower},

	{Name: "cluster.router_overhead_ms_p50", Unit: "ms", Better: lower},
	{Name: "cluster.router_overhead_ms_p95", Unit: "ms", Better: lower},
	{Name: "temcod.http_overhead_ms_p50", Unit: "ms", Better: lower},
	{Name: "cluster.proxy_ms_p50", Unit: "ms", Better: lower},
	{Name: "cluster.placements", Unit: "count", Better: higher},
	{Name: "cluster.retries", Unit: "count", Better: lower},
	{Name: "cluster.hedges", Unit: "count", Better: lower},
	{Name: "cluster.no_replica", Unit: "count", Better: lower},
	{Name: "cluster.placement_imbalance", Unit: "ratio", Better: lower},

	{Name: "obs.trace_overhead_pct", Unit: "%", Better: lower},
	{Name: "loadgen.sched_lag_ms_p95", Unit: "ms", Better: lower},
	{Name: "loadgen.achieved_rate", Unit: "1/s", Better: higher},
	{Name: "client.latency_p95_ms", Unit: "ms", Better: lower},
	{Name: "client.latency_p99_ms", Unit: "ms", Better: lower},
	{Name: "client.failed_share", Unit: "ratio", Better: lower},
	{Name: "client.deadline_miss_share", Unit: "ratio", Better: lower},
}

// fill gives every declared metric the set lacks the value 0: a layer a
// workload bypasses (serve and cluster on the engine workloads) reports that
// it did nothing rather than going missing.
func (m metricSet) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = value{Unit: d.Unit}
		}
	}
}

// undeclared returns the names in m that defs does not declare, sorted.
func (m metricSet) undeclared(defs []metricDef) []string {
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
	}
	var out []string
	for name := range m {
		if !known[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func (m metricSet) set(name string, v float64, n int) {
	m[name] = value{V: v, Unit: unitOf(name), N: n}
}

func (m metricSet) merge(other metricSet) {
	for k, v := range other {
		m[k] = v
	}
}

var unitIndex = func() map[string]string {
	idx := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		idx[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		idx[d.Name] = d.Unit
	}
	return idx
}()

// unitOf returns the declared unit of a metric; an undeclared name gets "?",
// which the agreement test and the final check both reject.
func unitOf(name string) string {
	if u, ok := unitIndex[name]; ok {
		return u
	}
	return "?"
}
