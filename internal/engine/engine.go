// Package engine compiles a layer graph into a reusable execution
// artifact. exec.RunCtx re-derives the schedule, re-allocates every
// intermediate tensor, and re-prepares every step (conv plan, packed
// weight panels) on each call; for a graph served many times all of that
// work is a function of the graph alone. Compile hoists it out of the run
// loop:
//
//   - the topological schedule is computed once, and every node is
//     prepared once by exec.PrepareStep — the same step table the
//     interpreters run, so kernel choice, im2col gather geometry, and
//     pre-packed conv/linear/fused weights are shared, not re-derived;
//   - memplan liveness is baked into a first-fit offset Assignment so all
//     intermediates live inside one reusable slab.
//
// Run then walks the baked schedule with the same resource guards the
// interpreter enforces — ctx cancellation between layers, the memory
// budget, and the fault-injection hooks — while allocating nothing on the
// steady-state path. Outputs are bit-identical to exec.RunCtx.
//
// An Engine is immutable and safe to share; per-worker mutable state (the
// slab, tensor views, output buffers) lives in an Instance.
package engine

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
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
	// Batch is the batch size whose arena layout is planned eagerly at
	// compile time. Run accepts other batch sizes; each new size plans its
	// layout (and allocates its slab) once, on first use. Default 1.
	Batch int
	// Batches lists additional batch sizes whose arena layouts are planned
	// eagerly at compile time — the bucket ladder a batching serving tier
	// runs on. Planning at compile time keeps the O(n²) layout check off
	// the first request at each bucket. Duplicates (including Batch) are
	// fine; a non-positive entry fails compilation.
	Batches []int
	// BudgetBytes caps the per-run footprint — the arena slab plus the
	// largest kernel workspace must fit, exactly as exec.RunArenaCtx
	// accounts it — returning guard.ErrBudgetExceeded from Run when
	// exceeded. 0 is unlimited.
	BudgetBytes int64
}

// step is one baked schedule slot: the prepared kernel and the schedule
// slots of its inputs.
type step struct {
	exec.Step
	inSlots []int
}

// layout is the per-batch-size arena plan, with the alias plan baked onto
// schedule slots (exec.BakeAlias) so the run loop consults plain slices
// and publishes the copies every run avoids without re-walking the plan.
type layout struct {
	batch      int
	offsets    []int64 // byte offset per schedule slot
	arenaBytes int64
	maxWS      int64

	alias   exec.AliasSlots
	views   int
	inPlace int
}

// Engine is a compiled graph: immutable after Compile and safe for
// concurrent use. Workers execute it through per-worker Instances; the
// convenience Run method maintains an internal instance pool.
type Engine struct {
	g          *ir.Graph
	opts       Options
	steps      []step
	inSlots    []int // schedule slots of the graph inputs, in input order
	outSlots   []int // schedule slots of the graph outputs, in output order
	layerCalls int
	packed     int64 // bytes held by pre-packed weight panels

	mu      sync.Mutex
	layouts map[int]*layout

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
	// PlannedBatches lists the batch sizes with baked arena layouts.
	PlannedBatches []int `json:"planned_batches"`
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
	e := &Engine{g: g, opts: opts, layouts: make(map[int]*layout)}
	slotOf := g.Index()
	e.steps = make([]step, len(g.Nodes))
	for i, n := range g.Nodes {
		st, err := exec.PrepareStep(n)
		if err != nil {
			return nil, fmt.Errorf("engine.Compile: %w", err)
		}
		s := &e.steps[i]
		s.Step = st
		e.packed += st.PackedBytes()
		s.inSlots = make([]int, len(n.Inputs))
		for j, p := range n.Inputs {
			sl, ok := slotOf[p]
			if !ok {
				return nil, guard.Errorf(guard.ErrInvalidModel, "engine.Compile",
					"node %s consumes %s, which is not in the schedule", n, p)
			}
			s.inSlots[j] = sl
		}
		if n.Kind != ir.KindInput {
			e.layerCalls++
		}
	}
	e.inSlots = make([]int, len(g.Inputs))
	for i, n := range g.Inputs {
		e.inSlots[i] = slotOf[n]
	}
	e.outSlots = make([]int, len(g.Outputs))
	for i, n := range g.Outputs {
		e.outSlots[i] = slotOf[n]
	}
	if _, err := e.layoutFor(opts.Batch); err != nil {
		return nil, err
	}
	for _, b := range opts.Batches {
		if b <= 0 {
			return nil, guard.Errorf(guard.ErrInvalidModel, "engine.Compile",
				"invalid batch bucket %d", b)
		}
		if _, err := e.layoutFor(b); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Graph returns the compiled graph.
func (e *Engine) Graph() *ir.Graph { return e.g }

// layoutFor returns the baked arena layout for a batch size, planning and
// verifying it on first use.
func (e *Engine) layoutFor(batch int) (*layout, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if l, ok := e.layouts[batch]; ok {
		return l, nil
	}
	asg := memplan.AssignOffsets(e.g, batch)
	// The O(n²) verification runs once per (graph, batch), never per
	// request: a layout bug must fail compilation, not corrupt inference.
	if err := asg.Check(); err != nil {
		return nil, guard.New(guard.ErrInternal, "engine.layout", err)
	}
	l := &layout{batch: batch, offsets: make([]int64, len(e.g.Nodes)), arenaBytes: asg.ArenaBytes,
		alias: exec.BakeAlias(e.g, asg.Alias)}
	for i, n := range e.g.Nodes {
		off, ok := asg.Offsets[n]
		if !ok {
			return nil, guard.Errorf(guard.ErrInternal, "engine.layout", "node %s has no arena offset", n)
		}
		l.offsets[i] = off
	}
	if al := asg.Alias; al != nil {
		l.views, l.inPlace = al.Views, al.InPlace
	}
	for _, n := range e.g.Nodes {
		if ws := memplan.Workspace(n, batch); ws > l.maxWS {
			l.maxWS = ws
		}
	}
	e.layouts[batch] = l
	return l, nil
}

// Stats snapshots the engine's counters and plan footprint.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Stats{Runs: e.runs.Load(), PrePackedBytes: e.packed}
	if l, ok := e.layouts[e.opts.Batch]; ok {
		st.ArenaBytes = l.arenaBytes
		st.MaxWorkspaceBytes = l.maxWS
		st.AliasViews = l.views
		st.AliasInPlace = l.inPlace
		st.CopyBytesEliminatedPerRun = l.alias.ElimBytes
	}
	for b := range e.layouts {
		st.PlannedBatches = append(st.PlannedBatches, b)
	}
	sort.Ints(st.PlannedBatches)
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

// recoverInternal converts an escaping kernel panic into an error wrapping
// guard.ErrInternal, preserving the panic site's stack for logging. It is
// deferred directly (not via closure) so the steady-state path stays
// allocation-free.
func recoverInternal(op string, errp *error) {
	if r := recover(); r != nil {
		*errp = &guard.Error{Kind: guard.ErrInternal, Op: op,
			Err: fmt.Errorf("panic: %v", r), Stack: debug.Stack()}
	}
}
