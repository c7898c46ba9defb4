package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"temco/internal/core"
	"temco/internal/engine"
	"temco/internal/obs"
	"temco/internal/ops"
	"temco/internal/tensor"
)

// runConfig is how one workload is to be run.
type runConfig struct {
	seed         uint64
	warmup       time.Duration
	seconds      time.Duration // untraced measured window
	traceSeconds time.Duration // traced window; 0 = no traced run
	setupReps    int           // set-ups made; setup_s is their median
	minTimed     int           // fewest operations the untraced window may time
	root         string        // repository root (where cmd/ lives)
	outDir       string        // bench/out: traces, daemon logs, binaries
	log          io.Writer     // progress, never the result
}

func (rc runConfig) logf(format string, args ...any) {
	fmt.Fprintf(rc.log, format+"\n", args...)
}

// result is what one workload measured.
type result struct {
	Workload   string
	Attempted  int // operations of the measured windows (warm-up excluded)
	Timed      int // operations of the untraced window alone: what the end-to-end timings rest on
	Failed     int // errors + sheds + output mismatches among them
	Mismatched int // output mismatches alone; any fails the command
	E2E        metricSet
	Layer      metricSet
	Notes      []string
	Phases     []phaseReport
	SelfTime   map[string]time.Duration // harness spans' self time by name (traced run)
}

// count adds one measured window's operations to the result.
func (r *result) count(attempted, failed, mismatched int) {
	r.Attempted += attempted
	r.Failed += failed
	r.Mismatched += mismatched
}

// phaseReport is the load generator's account of one phase.
type phaseReport struct {
	Name string
	phaseCounts
}

// workload is one entry of the benchmark: a name BENCHMARK.json repeats, the
// reason it exists, and how to run it.
type workload struct {
	Name string
	Why  string
	run  func(ctx context.Context, rc runConfig) (*result, error)
	// plan builds and plans the workload's model and reports the plan-level
	// metrics only.
	plan func(ctx context.Context) (metricSet, error)
}

// callers is the worker, caller and connection count of the workloads that
// use "nproc" of them. It never exceeds the processors the box has, and is
// capped at 2 so the workloads are the same ones on a larger box.
func callers() int { return min(runtime.NumCPU(), 2) }

// latencyLimit is the deadline of serve-open-batched: a response later than
// this after its due time does not count toward goodput.
const latencyLimit = 25 * time.Millisecond

var workloads = []workload{
	engineWorkload{name: "engine-chain-b8", model: "vgg11", ccfg: core.FusionOnly(), batch: 8, workers: callers}.entry(
		"vgg11 Fusion vs decomposed on one engine.Instance, batch 8, parallel kernels: a skip-free chain where a few large fused/GEMM kernels are all the time, and serve/cluster are bypassed"),
	engineWorkload{name: "engine-skip-b1", model: "densenet40", ccfg: core.DefaultConfig(), batch: 1, workers: one}.entry(
		"densenet40 Skip-Opt+Fusion vs decomposed, batch 1, serial kernels: 396 small concat/alias-heavy steps where per-step overhead, skip-opt and aliasing dominate; optimized is slower than decomposed here"),
	{
		Name: "serve-open-batched",
		Why:  "in-process serve.Session (alexnet, 1 worker, batch<=8, 2 ms window), open-loop Poisson 500 req/s: at solo capacity, far below batched capacity; queue, window and padding decide; the coalescer helps",
		run:  runServeOpen,
		plan: planOnly("alexnet", core.FusionOnly(), servingBatch, one),
	},
	{
		Name: "fleet-closed-b1",
		Why:  "real temcor + 2 temcod over loopback HTTP, closed loop on nproc keep-alive connections: JSON/HTTP/proxy cost and the unfilled batch window dominate a 1.5 ms inference; coalescer costs",
		run:  runFleetClosed,
		plan: planOnly("alexnet", core.DefaultConfig(), servingBatch, one),
	},
}

func one() int { return 1 }

// useWorkers sets TEMCO_WORKERS for the run and returns what puts the
// previous value back.
func useWorkers(n int) (restore func()) {
	prev := ops.Workers
	ops.SetWorkers(n)
	return func() { ops.SetWorkers(prev) }
}

func (w engineWorkload) entry(why string) workload {
	return workload{Name: w.name, Why: why, run: w.run, plan: planOnly(w.model, w.ccfg, w.batch, w.workers)}
}

// planOnly builds and plans a workload's model without running any traffic:
// what -check-exact repeats.
func planOnly(model string, ccfg core.Config, batch int, workers func() int) func(context.Context) (metricSet, error) {
	return func(ctx context.Context) (metricSet, error) {
		defer useWorkers(workers())()
		g, err := buildGraphs(nil, -1, model, ccfg)
		if err != nil {
			return nil, err
		}
		e, err := compileEngines(nil, -1, g, batch)
		if err != nil {
			return nil, err
		}
		return planMetrics(ctx, nil, -1, g, e.opt, batch, makeInputs(1, 1, batch)[0])
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// blockRuns is how many runs of one variant follow each other before the
// other variant takes over. Interleaving in blocks lets both variants see the
// same machine state over the window while each keeps its caches warm.
const blockRuns = 10

// interleaved is the outcome of running the optimized and the decomposed
// engine in alternating blocks for a fixed time.
type interleaved struct {
	opt, dec   []sample
	optRuns    []time.Duration // optimized run durations, in call order
	failed     int
	mismatched int
}

func (r *interleaved) attempted() int { return len(r.opt) + len(r.dec) }

// pair is the two engine instances of a workload with the inputs they run and
// the outputs they must produce.
type pair struct {
	opt, dec *engine.Instance
	inputs   []*tensor.Tensor
	ref      *reference
}

// runInterleaved drives p for d: blocks of blockRuns optimized runs, then as
// many decomposed runs on the same inputs, one closed-loop caller. Every
// output is checked outside the timed section. With a recorder each
// Instance.Run is a span under parent.
func runInterleaved(ctx context.Context, rec *recorder, parent int, p *pair, d time.Duration) (*interleaved, error) {
	r := &interleaved{}
	start := time.Now()
	next := 0
	one := func(inst *engine.Instance, optimized bool, k int, req int64) error {
		name := "Instance.Run/decomposed"
		if optimized {
			name = "Instance.Run/optimized"
		}
		id := rec.begin(parent, name, req)
		t0 := time.Now()
		res, err := inst.Run(ctx, p.inputs[k])
		lat := time.Since(t0)
		rec.end(id)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		s := sample{lat: lat}
		switch {
		case err != nil:
			r.failed++
		case optimized && !p.ref.checkOptimized(k, res.Outputs[0]),
			!optimized && !p.ref.checkDecomposed(k, res.Outputs[0]):
			r.failed++
			r.mismatched++
		default:
			s.ok = true
		}
		if optimized {
			r.opt = append(r.opt, s)
			r.optRuns = append(r.optRuns, lat)
		} else {
			r.dec = append(r.dec, s)
		}
		return nil
	}
	for time.Since(start) < d {
		for b := 0; b < blockRuns; b++ {
			if err := one(p.opt, true, (next+b)%len(p.inputs), int64(next+b)); err != nil {
				return nil, err
			}
		}
		for b := 0; b < blockRuns; b++ {
			if err := one(p.dec, false, (next+b)%len(p.inputs), int64(next+b)); err != nil {
				return nil, err
			}
		}
		next += blockRuns
	}
	return r, nil
}

// timeVsDecomposed is the paper's Fig. 11 overhead: median optimized run time
// over median decomposed run time.
func (r *interleaved) timeVsDecomposed() float64 {
	opt, dec := latenciesMS(r.opt), latenciesMS(r.dec)
	if len(opt) == 0 || len(dec) == 0 {
		return 0
	}
	return percentile(opt, 50) / percentile(dec, 50)
}

// engineLayerMetrics turns a traced interleaved run and the tracer's spans
// into the engine.* metrics.
func engineLayerMetrics(g *graphs, r *interleaved, steps []obs.Span, stepsPerRun, batch int) metricSet {
	m := metricSet{}
	opt, dec := latenciesMS(r.opt), latenciesMS(r.dec)
	m.set("engine.run_ms_p50", percentile(opt, 50), len(opt))
	m.set("engine.run_ms_p95", percentile(opt, 95), len(opt))
	m.set("engine.decomposed_run_ms_p50", percentile(dec, 50), len(dec))
	if p50 := percentile(opt, 50); p50 > 0 {
		m.set("engine.gflops_effective", float64(flopsPerRun(g, batch))/(p50*1e6), len(opt))
	}
	over, n := stepOverheadUS(steps, r.optRuns, stepsPerRun)
	m.set("engine.step_overhead_us", over, n)
	return m
}

// traceCapacity holds the spans of the longest traced window: 396 steps at
// ~45 runs/s for 10 s is 180 k spans.
const traceCapacity = 1 << 18

// traceFile is where a workload's Chrome trace goes.
func (rc runConfig) traceFile(workload string) string {
	return filepath.Join(rc.outDir, "trace-"+workload+".json")
}

// medianSetup is setup_s: the median of the set-ups made.
func medianSetup(d []time.Duration) float64 {
	s := make([]float64, len(d))
	for i, x := range d {
		s[i] = x.Seconds()
	}
	return median(s)
}
