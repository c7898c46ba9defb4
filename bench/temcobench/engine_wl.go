package main

import (
	"context"
	"time"

	"temco/internal/core"
	"temco/internal/engine"
	"temco/internal/gemm"
	"temco/internal/ir"
	"temco/internal/obs"
	"temco/internal/tensor"
)

// engineInputs is how many distinct seeded inputs an engine workload cycles
// through.
const engineInputs = 8

func flopsPerRun(g *graphs, batch int) int64 { return ir.GraphFLOPs(g.opt) * int64(batch) }

// engineWorkload runs one model's optimized and decomposed engines against
// each other on a single instance each, bypassing serve and cluster.
type engineWorkload struct {
	name, model string
	ccfg        core.Config
	batch       int
	workers     func() int // TEMCO_WORKERS for the run
}

func (w engineWorkload) run(ctx context.Context, rc runConfig) (*result, error) {
	defer useWorkers(w.workers())()
	res := &result{Workload: w.name, E2E: metricSet{}, Layer: metricSet{}}
	var rec *recorder
	if rc.traceSeconds > 0 {
		rec = newRecorder()
	}
	root := rec.begin(-1, w.name, 0)

	var g *graphs
	var e *engines
	var setups []time.Duration
	for range rc.setupReps {
		t0 := time.Now()
		id := rec.begin(root, "setup", 0)
		var err error
		if g, err = buildGraphs(rec, id, w.model, w.ccfg); err != nil {
			return nil, err
		}
		if e, err = compileEngines(rec, id, g, w.batch); err != nil {
			return nil, err
		}
		rec.end(id)
		setups = append(setups, time.Since(t0))
	}
	res.E2E.set("setup_s", medianSetup(setups), len(setups))
	res.E2E.set("peak_arena_bytes", peakArenaBytes(e.opt), 0)

	inputs := makeInputs(rc.seed, engineInputs, w.batch)
	ref, err := buildReference(g, inputs)
	if err != nil {
		return nil, err
	}
	p := &pair{opt: e.opt.NewInstance(), dec: e.dec.NewInstance(), inputs: inputs, ref: ref}

	rc.logf("%s: set up in %.2fs, warming up %v", w.name, medianSetup(setups), rc.warmup)
	if _, err := runInterleaved(ctx, nil, -1, p, rc.warmup); err != nil {
		return nil, err
	}

	untraced, err := runInterleaved(ctx, nil, -1, p, rc.seconds)
	if err != nil {
		return nil, err
	}
	res.count(untraced.attempted(), untraced.failed, untraced.mismatched)
	res.Timed = untraced.attempted()
	engineE2E(res.E2E, untraced, w.batch)
	clientTail(res.Layer, latenciesMS(untraced.opt))
	res.Notes = append(res.Notes, tailNote("optimized run latency", latenciesMS(untraced.opt)))
	if rc.traceSeconds == 0 {
		return res, nil
	}

	// The traced run: the shipped per-step tracer is armed for the optimized
	// graph, and every Instance.Run is a harness span.
	pool0 := gemm.PoolStatsSnapshot()
	id := rec.begin(root, "measure/traced", 0)
	stepOffset := rec.now()
	tracer := obs.EnableTrace(obs.TraceConfig{Scope: g.opt.Name, Capacity: traceCapacity})
	traced, err := runInterleaved(ctx, rec, id, p, rc.traceSeconds)
	obs.DisableTrace()
	rec.end(id)
	if err != nil {
		return nil, err
	}
	pool1 := gemm.PoolStatsSnapshot()
	res.count(traced.attempted(), traced.failed, traced.mismatched)
	steps := tracer.Spans()

	m := res.Layer
	m.merge(engineLayerMetrics(g, traced, steps, stepsPerRun(g), w.batch))
	m.merge(stepShares(steps))
	if hits, misses := pool1.Hits-pool0.Hits, pool1.Misses-pool0.Misses; hits+misses > 0 {
		m.set("gemm.pool_hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses))
	}
	m.set("engine.compile_ms", ms(e.compileTime), 1)
	tracedE2E := metricSet{}
	engineE2E(tracedE2E, traced, w.batch)
	m.set("obs.trace_overhead_pct", overheadPct(res.E2E["throughput_rps"].V, tracedE2E["throughput_rps"].V), 0)
	m.set("client.failed_share", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Attempted)

	static, err := staticLayerMetrics(ctx, rec, root, g, e.opt, w.batch, inputs[0], &res.Notes)
	if err != nil {
		return nil, err
	}
	m.merge(static)
	rec.end(root)
	res.SelfTime = selfByName(rec.snapshot())
	return res, rec.writeChrome(rc.traceFile(w.name), steps, stepOffset)
}

// engineE2E fills the run-time end-to-end metrics of an interleaved run:
// rows per second of the time spent inside optimized runs, and the median
// optimized run, both over the whole window.
func engineE2E(m metricSet, r *interleaved, batch int) {
	opt := latenciesMS(r.opt)
	m.set("throughput_rps", rate(r.opt, batch, timeSpent(r.opt)), len(opt))
	m.set("latency_p50_ms", percentile(opt, 50), len(opt))
	m.set("time_vs_decomposed", r.timeVsDecomposed(), len(opt))
}

// overheadPct is (untraced − traced) / untraced throughput, in percent.
func overheadPct(untraced, traced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return 100 * (untraced - traced) / untraced
}

// stepsPerRun is the number of kernels one optimized run dispatches: every
// node but the graph inputs.
func stepsPerRun(g *graphs) int { return len(g.opt.Nodes) - len(g.opt.Inputs) }

// staticLayerMetrics gathers the per-layer metrics that do not come from the
// workload's own traffic: what the compiler and planner decided, the kernel
// replays, and the executor comparison. Every workload reports them for the
// model and batch it runs.
func staticLayerMetrics(ctx context.Context, rec *recorder, parent int, g *graphs, eng *engine.Engine, batch int, x *tensor.Tensor, notes *[]string) (metricSet, error) {
	id := rec.begin(parent, "probes", 0)
	defer rec.end(id)
	m, err := planMetrics(ctx, rec, id, g, eng, batch, x)
	if err != nil {
		return nil, err
	}
	kernels, err := kernelMetrics(ctx, g, batch, notes)
	if err != nil {
		return nil, err
	}
	executors, err := executorMetrics(ctx, g, eng, batch, x)
	if err != nil {
		return nil, err
	}
	m.merge(kernels)
	m.merge(executors)
	return m, nil
}
