package exec

import (
	"context"
	"fmt"

	"temco/internal/faultinject"
	"temco/internal/guard"
	"temco/internal/ir"
	"temco/internal/memplan"
	"temco/internal/obs"
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
// view, run dying elementwise inputs in place, and let the executor borrow
// a caller's input buffer outright when the plan proves nothing aliases or
// mutates it. All of it is plan-driven: with TEMCO_NOALIAS=1 the layout
// degrades to one region per tensor and this function behaves exactly as
// before.
//
// Outputs are copied out of the arena before returning, since their
// storage is recycled across calls.
func RunArena(g *ir.Graph, a memplan.Assignment, inputs ...*tensor.Tensor) (*Result, error) {
	return RunArenaCtx(context.Background(), g, a, 0, inputs...)
}

// copyAcct accumulates one run's copy accounting; published to the obs
// counters once at the end of the run.
type copyAcct struct {
	copied    int64
	elim      uint64
	elimBytes int64
}

func (c *copyAcct) eliminate(bytes int64) {
	c.elim++
	c.elimBytes += bytes
}

// RunArenaCtx is RunArena with resource guards: ctx is checked between
// layers (cancellation returns an error wrapping guard.ErrCanceled), and
// when budgetBytes > 0 the arena's total footprint — the single allocation
// this mode makes — plus the largest kernel workspace must fit the budget,
// otherwise guard.ErrBudgetExceeded is returned before anything is
// allocated. Kernel panics are recovered into guard.ErrInternal errors.
func RunArenaCtx(ctx context.Context, g *ir.Graph, a memplan.Assignment, budgetBytes int64, inputs ...*tensor.Tensor) (*Result, error) {
	if a.Graph != g {
		return nil, fmt.Errorf("exec: assignment was computed for a different graph")
	}
	if len(inputs) != len(g.Inputs) {
		return nil, fmt.Errorf("exec: graph %s takes %d inputs, got %d", g.Name, len(g.Inputs), len(inputs))
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("exec: graph %s has no inputs", g.Name)
	}
	batch := inputs[0].Dim(0)
	if batch != a.Batch {
		return nil, fmt.Errorf("exec: assignment planned for batch %d, inputs have %d", a.Batch, batch)
	}
	if budgetBytes > 0 {
		var maxWS int64
		for _, n := range g.Nodes {
			if ws := memplan.Workspace(n, batch); ws > maxWS {
				maxWS = ws
			}
		}
		if a.ArenaBytes+maxWS > budgetBytes {
			return nil, guard.Errorf(guard.ErrBudgetExceeded, "exec.RunArenaCtx",
				"arena needs %d bytes (+%d workspace), budget is %d",
				a.ArenaBytes, maxWS, budgetBytes)
		}
	}
	arena := make([]float32, a.ArenaBytes/4)
	view := func(n *ir.Node) (*tensor.Tensor, error) {
		off, ok := a.Offsets[n]
		if !ok {
			return nil, fmt.Errorf("exec: node %s has no arena offset", n)
		}
		shape := append([]int{batch}, n.Shape...)
		elems := int64(tensor.NumElems(shape))
		if off%4 != 0 || off/4+elems > int64(len(arena)) {
			return nil, fmt.Errorf("exec: node %s offset %d out of arena", n, off)
		}
		return tensor.FromSlice(arena[off/4:off/4+elems], shape...), nil
	}
	var acct copyAcct
	vals := make(map[*ir.Node]*tensor.Tensor, len(g.Nodes))
	for i, in := range g.Inputs {
		want := append([]int{batch}, in.Shape...)
		if !shapeEq(inputs[i].Shape, want) {
			return nil, fmt.Errorf("exec: input %d has shape %v, want %v", i, inputs[i].Shape, want)
		}
		// Borrow the caller's buffer when the plan proves it safe: nothing
		// views the input's region (a view would read the arena bytes the
		// borrow leaves unwritten) and nothing mutates it in place. The
		// plan forbids in-place on borrowable inputs by construction, so a
		// borrowed caller tensor is never written. Otherwise copy into the
		// arena — possibly at a view offset inside a concat output.
		if a.Alias.BorrowableInput(in) {
			vals[in] = inputs[i]
			acct.eliminate(in.OutBytes(batch))
			continue
		}
		dst, err := view(in)
		if err != nil {
			return nil, err
		}
		copy(dst.Data, inputs[i].Data)
		acct.copied += in.OutBytes(batch)
		vals[in] = dst
	}
	slots := BakeAlias(g, a.Alias)
	res := &Result{}
	for i, n := range g.Nodes {
		if err := ctx.Err(); err != nil {
			return nil, guard.New(guard.ErrCanceled, "exec.RunArenaCtx", err)
		}
		if n.Kind == ir.KindInput {
			continue
		}
		if faultinject.Budget(g.Name) {
			return nil, guard.Errorf(guard.ErrBudgetExceeded, "exec.RunArenaCtx",
				"injected budget failure at node %s", n)
		}
		out, err := view(n)
		if err != nil {
			return nil, err
		}
		in := make([]*tensor.Tensor, len(n.Inputs))
		for j, p := range n.Inputs {
			in[j] = vals[p]
		}
		var copied int64
		if err := guard.Safe("exec.RunArenaCtx", func() error {
			s, err := PrepareStep(n)
			if err != nil {
				return err
			}
			copied, err = s.Run(ctx, g.Name, out, in, slots.ConcatSkip[i], slots.FlatView[i])
			return err
		}); err != nil {
			return nil, fmt.Errorf("exec: node %s: %w", n, err)
		}
		acct.copied += copied
		vals[n] = out
		res.LayerCalls++
	}
	for _, o := range g.Outputs {
		res.Outputs = append(res.Outputs, vals[o].Clone())
	}
	obs.CountCopies(acct.copied, acct.elim+slots.ElimCopies, acct.elimBytes+slots.ElimBytes)
	return res, nil
}
