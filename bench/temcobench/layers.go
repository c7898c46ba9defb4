package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"temco/internal/engine"
	"temco/internal/exec"
	"temco/internal/gemm"
	"temco/internal/ir"
	"temco/internal/memplan"
	"temco/internal/obs"
	"temco/internal/ops"
	"temco/internal/tensor"
)

// timeCalls calls fn until both minCalls calls were made and minDur has
// passed, and returns each call's duration in milliseconds, ascending.
func timeCalls(minDur time.Duration, minCalls int, fn func() error) ([]float64, error) {
	var out []float64
	start := time.Now()
	for len(out) < minCalls || time.Since(start) < minDur {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(t0)))
	}
	sort.Float64s(out)
	return out, nil
}

// planMetrics reports what the compiler stages and the memory planner decided
// for g at batch: counts and byte totals that depend on the commit alone, plus
// the planner's own run time. eng is the optimized engine compiled at batch;
// x is one input of that batch.
func planMetrics(ctx context.Context, rec *recorder, parent int, g *graphs, eng *engine.Engine, batch int, x *tensor.Tensor) (metricSet, error) {
	m := metricSet{}
	m.set("decompose.time_s", g.decomposeTime.Seconds(), 1)
	m.set("decompose.layers_rewritten", float64(len(g.report.Layers)), 0)
	if orig, next := g.report.TotalWeightBytes(); orig > 0 {
		m.set("decompose.weight_bytes_ratio", float64(next)/float64(orig), 0)
	}

	st := g.stats
	m.set("core.optimize_ms", ms(g.optimizeTime), 1)
	m.set("core.nodes_in", float64(len(g.dec.Nodes)), 0)
	m.set("core.nodes_out", float64(len(g.opt.Nodes)), 0)
	m.set("core.fused_kernels", float64(st.FusedKernels), 0)
	m.set("core.tail_fused_kernels", float64(st.TailFusedKernels), 0)
	m.set("core.skips_found", float64(st.SkipConnectionsFound), 0)
	m.set("core.skips_optimized", float64(st.SkipConnectionsOptimized), 0)
	m.set("core.skips_rejected", float64(st.SkipConnectionsRejected), 0)
	m.set("core.restore_layers_copied", float64(st.RestoreLayersCopied), 0)
	m.set("core.concat_splits", float64(st.ConcatSplits), 0)
	m.set("core.merged_lconvs", float64(st.MergedLConvs), 0)
	m.set("core.pass_failures", float64(len(st.PassFailures)), 0)
	m.set("core.flops_ratio", float64(ir.GraphFLOPs(g.opt))/float64(ir.GraphFLOPs(g.dec)), 0)

	id := rec.begin(parent, "memplan.Simulate", 0)
	sim := memplan.Simulate(g.opt, batch, 0).PeakInternal
	simDec := memplan.Simulate(g.dec, batch, 0).PeakInternal
	rec.end(id)
	var asg memplan.Assignment
	assign, err := timeCalls(0, 3, func() error {
		id := rec.begin(parent, "memplan.AssignOffsets", 0)
		asg = memplan.AssignOffsets(g.opt, batch)
		rec.end(id)
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.set("memplan.assign_ms", percentile(assign, 50), len(assign))
	m.set("memplan.sim_peak_bytes", float64(sim), 0)
	m.set("memplan.sim_peak_bytes_decomposed", float64(simDec), 0)
	m.set("memplan.peak_reduction_pct", 100*(1-float64(sim)/float64(simDec)), 0)
	m.set("memplan.arena_bytes", float64(asg.ArenaBytes), 0)
	m.set("memplan.arena_bytes_noalias", float64(memplan.AssignOffsetsNoAlias(g.opt, batch).ArenaBytes), 0)
	m.set("memplan.fragmentation", float64(asg.ArenaBytes)/float64(sim), 0)
	if al := asg.Alias; al != nil {
		m.set("memplan.alias_views", float64(al.Views), 0)
		m.set("memplan.alias_in_place", float64(al.InPlace), 0)
		m.set("memplan.copy_bytes_eliminated_per_run", float64(al.EliminatedBytes), 0)
	}

	// Planned against measured: the map interpreter's live bytes, sampled by
	// the shipped memory recorder, must peak where Simulate said they would.
	mr := obs.EnableMemRecord(g.opt.Name, len(g.opt.Nodes))
	_, err = exec.RunCtx(ctx, g.opt, 0, x)
	obs.DisableMemRecord()
	if err != nil {
		return nil, fmt.Errorf("plan drift run: %w", err)
	}
	measured, _ := mr.Peak()
	m.set("memplan.plan_drift_bytes", float64(measured-sim), 0)

	var fusedWS int64
	for _, n := range g.opt.Nodes {
		if n.Kind == ir.KindFused {
			fusedWS = max(fusedWS, ops.FusedWorkspaceBytes(n.Fused()))
		}
	}
	m.set("ops.fused_workspace_bytes", float64(fusedWS), 0)

	// Two engine runs after a warm one: the copy counters are process-wide,
	// and nothing else runs while they are read.
	inst := eng.NewInstance()
	res, err := inst.Run(ctx, x)
	if err != nil {
		return nil, fmt.Errorf("copy accounting run: %w", err)
	}
	m.set("engine.steps", float64(res.LayerCalls), 0)
	c0 := obs.CopyStatsSnapshot()
	const copyRuns = 2
	for range copyRuns {
		if _, err := inst.Run(ctx, x); err != nil {
			return nil, fmt.Errorf("copy accounting run: %w", err)
		}
	}
	m.set("ops.copy_bytes_per_run", float64(obs.CopyStatsSnapshot().CopyBytes-c0.CopyBytes)/copyRuns, 0)
	m.set("engine.prepacked_bytes", float64(eng.Stats().PrePackedBytes), 0)
	return m, nil
}

// gemmShape is one GEMM-shaped product of a graph: C[m×n] = A[m×k]·B[k×n]
// per sample (per batch for a linear layer), with the FLOPs all its
// occurrences add up to in one run at the workload's batch.
type gemmShape struct {
	m, n, k int
	linear  bool
	flops   int64
}

// bytesMoved is the operand traffic of one product computed from its sizes
// (A, B and C once each); nothing here is measured on the memory bus.
func (s gemmShape) bytesMoved() float64 { return 4 * float64(s.m*s.k+s.k*s.n+s.m*s.n) }

func (s gemmShape) String() string {
	kind := "conv"
	if s.linear {
		kind = "linear"
	}
	return fmt.Sprintf("%s m=%d n=%d k=%d flops/run=%d bytes/call=%.0f", kind, s.m, s.n, s.k, s.flops, s.bytesMoved())
}

// topGemmShapes lists the GEMM-shaped products of g — ungrouped convolutions
// as weight[OutC × InC·KH·KW] · columns[· × OutH·OutW], linear layers as
// x[batch × In] · Wᵀ — by the FLOPs they account for, highest first.
func topGemmShapes(g *ir.Graph, batch int) []gemmShape {
	byShape := map[[4]int]*gemmShape{}
	add := func(s gemmShape, flops int64) {
		key := [4]int{s.m, s.n, s.k, 0}
		if s.linear {
			key[3] = 1
		}
		if byShape[key] == nil {
			byShape[key] = &s
		}
		byShape[key].flops += flops
	}
	for _, n := range g.Nodes {
		switch n.Kind {
		case ir.KindConv2D:
			a := n.Conv()
			if a.Groups > 1 {
				continue
			}
			add(gemmShape{m: a.OutC, n: n.Shape[1] * n.Shape[2], k: a.InC * a.KH * a.KW}, ir.FLOPs(n)*int64(batch))
		case ir.KindLinear:
			a := n.Attrs.(*ir.LinearAttrs)
			add(gemmShape{m: batch, n: a.Out, k: a.In, linear: true}, ir.FLOPs(n)*int64(batch))
		}
	}
	out := make([]gemmShape, 0, len(byShape))
	for _, s := range byShape {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].flops != out[j].flops {
			return out[i].flops > out[j].flops
		}
		return out[i].String() < out[j].String()
	})
	return out
}

func randomSlice(rng *tensor.RNG, n int) []float32 {
	t := tensor.New(n)
	t.FillNormal(rng, 0, 1)
	return t.Data
}

// probeBudget is how long each replayed kernel is timed for.
const probeBudget = 150 * time.Millisecond

// replayGemm times one shape through the entry point the engine uses for it:
// a pre-packed weight as the A operand for convolutions, a pre-packed
// transposed weight as the B operand for linear layers. It returns GFLOP/s at
// the median call time.
func replayGemm(s gemmShape) (float64, error) {
	rng := tensor.NewRNG(uint64(s.m*31+s.n*17+s.k) + 1)
	c := make([]float32, s.m*s.n)
	var call func() error
	if s.linear {
		pb := gemm.PackBT(s.k, s.n, randomSlice(rng, s.n*s.k), s.k)
		a := randomSlice(rng, s.m*s.k)
		call = func() error { gemm.GemmPrePackedBT(s.m, 1, a, s.k, pb, 0, c, s.n); return nil }
	} else {
		pa := gemm.PackA(s.m, s.k, randomSlice(rng, s.m*s.k), s.k)
		b := randomSlice(rng, s.k*s.n)
		call = func() error { gemm.GemmPackedA(s.n, 1, pa, b, s.n, 0, c, s.n); return nil }
	}
	times, err := timeCalls(probeBudget, 5, call)
	if err != nil {
		return 0, err
	}
	return 2 * float64(s.m) * float64(s.n) * float64(s.k) / (percentile(times, 50) * 1e6), nil
}

// kernelMetrics measures the machine's two roofline references and replays
// the workload's dominant kernels outside the engine, at the worker count the
// workload runs with.
func kernelMetrics(ctx context.Context, g *graphs, batch int, notes *[]string) (metricSet, error) {
	m := metricSet{}
	const refN = 512
	gflopsRef, err := replayGemm(gemmShape{m: refN, n: refN, k: refN})
	if err != nil {
		return nil, err
	}
	m.set("gemm.gflops_ref", gflopsRef, 0)

	const streamBytes = 64 << 20
	src, dst := make([]byte, streamBytes), make([]byte, streamBytes)
	copy(dst, src) // fault the fresh pages in before the clock starts
	copies, err := timeCalls(probeBudget, 5, func() error { copy(dst, src); return nil })
	if err != nil {
		return nil, err
	}
	// A copy reads and writes every byte once.
	gbpsRef := 2 * streamBytes / (percentile(copies, 50) * 1e6)
	m.set("gemm.stream_gbps_ref", gbpsRef, len(copies))

	shapes := topGemmShapes(g.opt, batch)
	for i := 0; i < 3 && i < len(shapes); i++ {
		s := shapes[i]
		gf, err := replayGemm(s)
		if err != nil {
			return nil, err
		}
		// The roofline bound is the lower of the compute reference and the
		// stream reference times the shape's FLOPs per computed byte. The
		// stream reference is main memory's; a shape whose operands stay in
		// cache (batch-8 linear layers do) can read above 1.
		intensity := 2 * float64(s.m) * float64(s.n) * float64(s.k) / s.bytesMoved()
		bound := min(gflopsRef, gbpsRef*intensity)
		m.set(fmt.Sprintf("gemm.gflops_top%d", i+1), gf, 0)
		m.set(fmt.Sprintf("gemm.roofline_frac_top%d", i+1), gf/bound, 0)
		*notes = append(*notes, fmt.Sprintf("gemm top%d: %s", i+1, s))
	}

	// The dominant conv and fused steps, replayed through the planned
	// kernels the engine calls.
	var conv, fused *ir.Node
	for _, n := range g.opt.Nodes {
		switch {
		case n.Kind == ir.KindConv2D && (conv == nil || ir.FLOPs(n) > ir.FLOPs(conv)):
			conv = n
		case n.Kind == ir.KindFused && (fused == nil || ir.FLOPs(n) > ir.FLOPs(fused)):
			fused = n
		}
	}
	replayNode := func(n *ir.Node, run func(out, in *tensor.Tensor) error) (float64, error) {
		in := tensor.New(append([]int{batch}, n.Inputs[0].Shape...)...)
		in.FillNormal(tensor.NewRNG(uint64(n.ID)+1), 0, 1)
		out := tensor.New(append([]int{batch}, n.Shape...)...)
		times, err := timeCalls(probeBudget, 5, func() error { return run(out, in) })
		if err != nil {
			return 0, err
		}
		return float64(ir.FLOPs(n)) * float64(batch) / (percentile(times, 50) * 1e6), nil
	}
	if conv != nil {
		a := conv.Conv()
		in := conv.Inputs[0]
		plan := ops.PlanConv(a, conv.W, in.Shape[1], in.Shape[2], conv.Shape[1], conv.Shape[2])
		gf, err := replayNode(conv, func(out, x *tensor.Tensor) error {
			return ops.ConvPlannedCtx(ctx, out, x, conv.W, conv.B, a, plan)
		})
		if err != nil {
			return nil, err
		}
		m.set("ops.conv_gflops_top1", gf, 0)
		*notes = append(*notes, fmt.Sprintf("ops conv top1: %s %+v", conv, *a))
	}
	if fused != nil {
		fa := fused.Fused()
		plan := ops.PlanFused(fa)
		gf, err := replayNode(fused, func(out, x *tensor.Tensor) error {
			return ops.FusedPlannedCtx(ctx, out, x, fa, plan)
		})
		if err != nil {
			return nil, err
		}
		m.set("ops.fused_gflops_top1", gf, 0)
		*notes = append(*notes, fmt.Sprintf("ops fused top1: %s in=%d mid=%d out=%d", fused, fa.InC, fa.MidC, fa.OutC))
	}
	return m, nil
}

// executorMetrics pins the two interpreters against the engine on the same
// graph, batch and input.
func executorMetrics(ctx context.Context, g *graphs, eng *engine.Engine, batch int, x *tensor.Tensor) (metricSet, error) {
	m := metricSet{}
	interp, err := timeCalls(probeBudget, 5, func() error { _, err := exec.RunCtx(ctx, g.opt, 0, x); return err })
	if err != nil {
		return nil, err
	}
	asg := memplan.AssignOffsets(g.opt, batch)
	arena, err := timeCalls(probeBudget, 5, func() error { _, err := exec.RunArenaCtx(ctx, g.opt, asg, 0, x); return err })
	if err != nil {
		return nil, err
	}
	inst := eng.NewInstance()
	if _, err := inst.Run(ctx, x); err != nil {
		return nil, err
	}
	compiled, err := timeCalls(probeBudget, 5, func() error { _, err := inst.Run(ctx, x); return err })
	if err != nil {
		return nil, err
	}
	m.set("exec.interp_run_ms_p50", percentile(interp, 50), len(interp))
	m.set("exec.arena_run_ms_p50", percentile(arena, 50), len(arena))
	m.set("exec.engine_speedup", percentile(interp, 50)/percentile(compiled, 50), 0)
	allocs, err := engine.MeasureSteadyAllocs(eng, 10)
	if err != nil {
		return nil, err
	}
	m.set("engine.allocs_per_run", allocs, 10)
	return m, nil
}

// kindGroup maps an operator mnemonic (obs.Span.Kind) to the share it counts
// toward.
func kindGroup(kind string) string {
	switch kind {
	case ir.KindConv2D.String():
		return "conv"
	case ir.KindFused.String():
		return "fused"
	case ir.KindLinear.String():
		return "linear"
	case ir.KindMaxPool.String(), ir.KindAvgPool.String(), ir.KindGlobalAvgPool.String():
		return "pool"
	case ir.KindConcat.String():
		return "concat"
	case ir.KindReLU.String(), ir.KindSiLU.String(), ir.KindSigmoid.String(), ir.KindBatchNorm.String(), ir.KindAdd.String():
		return "elementwise"
	default:
		return "other"
	}
}

var kindGroups = []string{"conv", "fused", "linear", "pool", "concat", "elementwise", "other"}

// stepShares folds the per-step spans of the shipped tracer by operator kind
// into each kind's share of the total step time.
func stepShares(steps []obs.Span) metricSet {
	m := metricSet{}
	byGroup := map[string]time.Duration{}
	var total time.Duration
	for _, sp := range steps {
		byGroup[kindGroup(sp.Kind)] += sp.Dur
		total += sp.Dur
	}
	for _, grp := range kindGroups {
		share := 0.0
		if total > 0 {
			share = float64(byGroup[grp]) / float64(total)
		}
		m.set("ops.share."+grp, share, len(steps))
	}
	return m
}

// stepOverheadUS is the engine's per-step cost outside the kernels: for each
// traced run, the run's duration minus the sum of its step spans, divided by
// the step count; the median over runs, in microseconds. The tracer gives
// each Run a fresh lane in call order, and runs holds the harness-measured
// durations of the same runs in the same order. Runs whose spans the tracer
// dropped for lack of room are left out.
func stepOverheadUS(steps []obs.Span, runs []time.Duration, stepsPerRun int) (float64, int) {
	type laneSum struct {
		n   int
		dur time.Duration
	}
	byLane := map[uint64]*laneSum{}
	var lanes []uint64
	for _, sp := range steps {
		ls := byLane[sp.Lane]
		if ls == nil {
			ls = &laneSum{}
			byLane[sp.Lane] = ls
			lanes = append(lanes, sp.Lane)
		}
		ls.n++
		ls.dur += sp.Dur
	}
	sort.Slice(lanes, func(i, j int) bool { return lanes[i] < lanes[j] })
	var per []float64
	for i, lane := range lanes {
		if i >= len(runs) {
			break
		}
		if ls := byLane[lane]; ls.n == stepsPerRun && stepsPerRun > 0 {
			per = append(per, float64(runs[i]-ls.dur)/float64(time.Microsecond)/float64(stepsPerRun))
		}
	}
	return median(per), len(per)
}
