// Package engine compiles a layer graph into a reusable execution
// artifact. exec.RunCtx re-derives the schedule, re-allocates every
// intermediate tensor, and re-prepares every step (conv plan, packed
// weight panels) on each call; for a graph served many times all of that
// work is a function of the graph alone. Compile hoists it out of the run
// loop:
//
//   - the topological schedule is prepared once by exec.Prepare — the
//     same step table the interpreters run, so kernel choice, im2col
//     gather geometry, and pre-packed conv/linear/fused weights are
//     shared, not re-derived;
//   - memplan plans exactly two arena layouts, batch 1 and one per-sample
//     layout every larger batch scales (memplan.Layouts), so a new batch
//     size costs O(nodes) scaling plus its slab, never a re-plan.
//
// Runs go through exec's one planned loop (exec.Frame.Run), the loop the
// arena interpreter runs too, with the interpreter's resource guards —
// ctx cancellation between layers, the memory budget, and the
// fault-injection hooks — and no allocation on the steady-state path.
// Outputs are bit-identical to exec.RunCtx.
//
// An Engine is immutable and safe to share; per-worker mutable state (one
// exec.Frame per batch size) lives in an Instance.
package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"temco/internal/exec"
	"temco/internal/guard"
	"temco/internal/ir"
	"temco/internal/memplan"
	"temco/internal/tensor"
)

// Options tunes Compile.
type Options struct {
	// Batch is the batch size Stats reports the plan footprint at and
	// MeasureSteadyAllocs runs. Run accepts any batch size. Default 1.
	Batch int
	// BudgetBytes caps the per-run footprint — the arena slab plus the
	// largest kernel workspace must fit, exactly as exec.RunArenaCtx
	// accounts it — returning guard.ErrBudgetExceeded from Run when
	// exceeded. 0 is unlimited.
	BudgetBytes int64
}

// Engine is a compiled graph: immutable after Compile and safe for
// concurrent use. Workers execute it through per-worker Instances; the
// convenience Run method maintains an internal instance pool.
type Engine struct {
	g       *ir.Graph
	opts    Options
	prog    *exec.Program
	layouts memplan.Layouts
	plan    Stats // the plan footprint at Options.Batch; Runs stays 0

	pool sync.Pool // *Instance, for Engine.Run
	runs atomic.Uint64
}

// Stats is a point-in-time snapshot of a compiled engine.
type Stats struct {
	// Runs counts completed Instance.Run calls across all instances.
	Runs uint64 `json:"runs"`
	// ArenaBytes is the slab size planned for Options.Batch.
	ArenaBytes int64 `json:"arena_bytes"`
	// MaxWorkspaceBytes is the largest kernel workspace at Options.Batch.
	MaxWorkspaceBytes int64 `json:"max_workspace_bytes"`
	// PrePackedBytes totals this engine's pre-packed weight panels and
	// gather tables.
	PrePackedBytes int64 `json:"prepacked_bytes"`
	// AliasViews and AliasInPlace count the view-classed tensors and
	// in-place elementwise ops in the Options.Batch alias plan (0 when
	// aliasing is off — see TEMCO_NOALIAS).
	AliasViews   int `json:"alias_views"`
	AliasInPlace int `json:"alias_in_place"`
	// CopyBytesEliminatedPerRun is the tensor bytes each run of the
	// Options.Batch layout avoids copying thanks to the alias plan.
	CopyBytesEliminatedPerRun int64 `json:"copy_bytes_eliminated_per_run"`
}

// Compile builds the execution artifact for g. The graph is validated
// once here; an unsupported node kind or an inconsistent graph fails with
// guard.ErrInvalidModel (callers fall back to the exec interpreter, which
// runs the same step table — see the serve policy in DESIGN.md §9).
// The returned engine keeps references to g's weight tensors; mutating
// them afterwards invalidates the pre-packed panels.
func Compile(g *ir.Graph, opts Options) (*Engine, error) {
	if g == nil {
		return nil, guard.Errorf(guard.ErrInvalidModel, "engine.Compile", "nil graph")
	}
	if err := g.Validate(); err != nil {
		return nil, guard.New(guard.ErrInvalidModel, "engine.Compile", err)
	}
	if len(g.Inputs) == 0 {
		return nil, guard.Errorf(guard.ErrInvalidModel, "engine.Compile", "graph %s has no inputs", g.Name)
	}
	if opts.Batch <= 0 {
		opts.Batch = 1
	}
	prog, err := exec.Prepare(g)
	if err != nil {
		return nil, fmt.Errorf("engine.Compile: %w", err)
	}
	// The O(n²) layout checks run here, once per graph, never per request:
	// a layout bug must fail compilation, not corrupt inference.
	layouts, err := memplan.PlanLayouts(g)
	if err != nil {
		return nil, guard.New(guard.ErrInternal, "engine.Compile", err)
	}
	e := &Engine{g: g, opts: opts, prog: prog, layouts: layouts}
	a := layouts.At(opts.Batch)
	e.plan = Stats{ArenaBytes: a.ArenaBytes, MaxWorkspaceBytes: a.MaxWorkspace(), PrePackedBytes: prog.PackedBytes()}
	if al := a.Alias; al != nil {
		e.plan.AliasViews, e.plan.AliasInPlace = al.Views, al.InPlace
		e.plan.CopyBytesEliminatedPerRun = al.EliminatedBytes
	}
	return e, nil
}

// Graph returns the compiled graph.
func (e *Engine) Graph() *ir.Graph { return e.g }

// Stats snapshots the engine's counters and plan footprint.
func (e *Engine) Stats() Stats {
	st := e.plan
	st.Runs = e.runs.Load()
	return st
}

// Run executes the engine on a pooled instance and returns outputs the
// caller owns (cloned out of the instance slab). Hot serving paths should
// hold a dedicated Instance instead and skip the clone.
func (e *Engine) Run(ctx context.Context, inputs ...*tensor.Tensor) (*exec.Result, error) {
	inst, _ := e.pool.Get().(*Instance)
	if inst == nil {
		inst = e.NewInstance()
	}
	r, err := inst.Run(ctx, inputs...)
	if err != nil {
		e.pool.Put(inst)
		return nil, err
	}
	out := make([]*tensor.Tensor, len(r.Outputs))
	for i, t := range r.Outputs {
		out[i] = t.Clone()
	}
	calls := r.LayerCalls
	e.pool.Put(inst)
	return &exec.Result{Outputs: out, LayerCalls: calls}, nil
}
