package exec

import (
	"context"

	"temco/internal/guard"
	"temco/internal/ir"
	"temco/internal/memplan"
	"temco/internal/tensor"
)

// RunArena executes g inside a single preallocated arena laid out by
// memplan.AssignOffsets: every internal tensor is a slice of the arena at
// its assigned offset, so the internal tensors of the whole inference take
// exactly Assignment.ArenaBytes (kernel scratch and the packed weight
// panels of the steps, prepared once per call, come on top). This both
// demonstrates the memory plan end-to-end and cross-validates the
// simulator: outputs must match Run exactly.
//
// Alias-aware plans (DESIGN.md §14) place concat inputs inside the concat
// output's region (the concat step skips them), make flatten a zero-copy
// view, and run dying elementwise inputs in place. All of it is
// plan-driven: with TEMCO_NOALIAS=1 the layout degrades to one region per
// tensor.
func RunArena(g *ir.Graph, a memplan.Assignment, inputs ...*tensor.Tensor) (*Result, error) {
	return RunArenaCtx(context.Background(), g, a, 0, inputs...)
}

// RunArenaCtx is RunArena with resource guards: ctx is checked between
// layers (cancellation returns an error wrapping guard.ErrCanceled), and
// when budgetBytes > 0 the arena's total footprint plus the largest kernel
// workspace must fit the budget, otherwise guard.ErrBudgetExceeded is
// returned before the arena is allocated. Kernel panics are recovered into
// guard.ErrInternal errors.
//
// It is a one-shot of the compiled engine's path: prepare the program,
// build one Frame on a, and run the planned loop once. The outputs are the
// frame's own buffers, which nothing reuses.
func RunArenaCtx(ctx context.Context, g *ir.Graph, a memplan.Assignment, budgetBytes int64, inputs ...*tensor.Tensor) (*Result, error) {
	batch, err := BatchOf(g, inputs)
	if err != nil {
		return nil, err
	}
	if batch != a.Batch {
		return nil, guard.Errorf(guard.ErrInvalidModel, "exec.RunArenaCtx",
			"assignment planned for batch %d, inputs have %d", a.Batch, batch)
	}
	p, err := Prepare(g)
	if err != nil {
		return nil, err
	}
	f, err := p.NewFrame(a, budgetBytes)
	if err != nil {
		return nil, err
	}
	return f.Run(ctx, inputs...)
}
