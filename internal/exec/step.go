package exec

import (
	"context"
	"fmt"

	"temco/internal/faultinject"
	"temco/internal/gemm"
	"temco/internal/guard"
	"temco/internal/ir"
	"temco/internal/memplan"
	"temco/internal/ops"
	"temco/internal/tensor"
)

// Step is one node prepared for execution: the conv kernel decision
// (ops.PlanConv) with its packed weights and gather table, Linear's packed
// weight, the fused kernel's packed panels, and the attributes the run
// loop would otherwise re-assert per call. Every executor — the map and
// arena interpreters, the compiled engine, and the trainer's forward pass
// — runs nodes through Step, so PrepareStep is the one preparation table
// and Run the one kernel table. A Step is immutable after PrepareStep and
// safe for concurrent Runs on disjoint tensors; it keeps references to the
// node's weights as they were when prepared.
type Step struct {
	node *ir.Node
	w, b *tensor.Tensor

	conv     *ir.ConvAttrs
	convPlan *ops.ConvPlan
	lin      *ir.LinearAttrs
	linPW    *gemm.PackedB
	pool     *ir.PoolAttrs
	scale    int
	fused    *ir.FusedAttrs
	fusedPln *ops.FusedPlan
}

// PrepareStep plans node n's kernel. A kind with no kernel is rejected
// with an error wrapping guard.ErrInvalidModel.
func PrepareStep(n *ir.Node) (Step, error) {
	s := Step{node: n, w: n.W, b: n.B}
	switch n.Kind {
	case ir.KindConv2D:
		in := n.Inputs[0]
		s.conv = n.Conv()
		s.convPlan = ops.PlanConv(s.conv, n.W, in.Shape[1], in.Shape[2], n.Shape[1], n.Shape[2])
	case ir.KindLinear:
		s.lin = n.Attrs.(*ir.LinearAttrs)
		s.linPW = gemm.PackBT(s.lin.In, s.lin.Out, n.W.Data, s.lin.In)
	case ir.KindMaxPool, ir.KindAvgPool:
		s.pool = n.Pool()
	case ir.KindUpsample:
		s.scale = n.Attrs.(*ir.UpsampleAttrs).Scale
	case ir.KindFused:
		s.fused = n.Fused()
		s.fusedPln = ops.PlanFused(s.fused)
	case ir.KindInput, ir.KindReLU, ir.KindSiLU, ir.KindSigmoid, ir.KindBatchNorm,
		ir.KindGlobalAvgPool, ir.KindAdd, ir.KindConcat, ir.KindFlatten, ir.KindSoftmax:
	default:
		return Step{}, guard.Errorf(guard.ErrInvalidModel, "exec.PrepareStep",
			"unsupported node kind %v (node %s)", n.Kind, n)
	}
	return s, nil
}

// Node returns the node this step executes.
func (s *Step) Node() *ir.Node { return s.node }

// PackedBytes reports the step's resident packed panels and gather tables.
func (s *Step) PackedBytes() int64 {
	switch {
	case s.convPlan != nil:
		return s.convPlan.PackedBytes()
	case s.linPW != nil:
		return s.linPW.Bytes()
	case s.fusedPln != nil:
		return s.fusedPln.PackedBytes()
	}
	return 0
}

// Run executes the step into out, reading in (the node's inputs in order),
// and returns the bytes it moved with plain copies. concatSkip flags the
// concat inputs the alias plan already placed inside out; flatView marks a
// flatten whose out shares its input's storage. The context reaches the
// long-running conv/linear/fused kernels, which bail out mid-node with an
// error wrapping guard.ErrCanceled. The faultinject kernel hook fires
// first and may panic; callers recover. The elementwise kernels are
// in-place safe, so an out the plan put on its input's storage just works.
func (s *Step) Run(ctx context.Context, scope string, out *tensor.Tensor, in []*tensor.Tensor, concatSkip []bool, flatView bool) (int64, error) {
	faultinject.Kernel(scope)
	var err error
	switch s.node.Kind {
	case ir.KindConv2D:
		err = ops.ConvPlannedCtx(ctx, out, in[0], s.w, s.b, s.conv, s.convPlan)
	case ir.KindLinear:
		err = ops.LinearPrePackedCtx(ctx, out, in[0], s.linPW, s.b, s.lin)
	case ir.KindFused:
		err = ops.FusedPlannedCtx(ctx, out, in[0], s.fused, s.fusedPln)
	case ir.KindReLU:
		ops.ReLU(out, in[0])
	case ir.KindSiLU:
		ops.SiLU(out, in[0])
	case ir.KindSigmoid:
		ops.Sigmoid(out, in[0])
	case ir.KindBatchNorm:
		ops.BatchNorm(out, in[0], s.w, s.b)
	case ir.KindMaxPool:
		ops.MaxPool(out, in[0], s.pool)
	case ir.KindAvgPool:
		ops.AvgPool(out, in[0], s.pool)
	case ir.KindGlobalAvgPool:
		ops.GlobalAvgPool(out, in[0])
	case ir.KindUpsample:
		ops.Upsample(out, in[0], s.scale)
	case ir.KindAdd:
		ops.Add(out, in[0], in[1])
	case ir.KindConcat:
		if concatSkip != nil {
			return ops.ConcatPartial(out, in, concatSkip), nil
		}
		ops.Concat(out, in)
		return int64(out.Len()) * 4, nil
	case ir.KindFlatten:
		if flatView {
			// Same bytes, same order: nothing to move.
			return 0, nil
		}
		copy(out.Data, in[0].Data)
		return int64(out.Len()) * 4, nil
	case ir.KindSoftmax:
		ops.Softmax(out, in[0])
	default:
		return 0, fmt.Errorf("no kernel for kind %v", s.node.Kind)
	}
	if err != nil {
		return 0, guard.New(guard.ErrCanceled, "exec.Step", err)
	}
	return 0, nil
}

// AliasSlots is an alias plan baked onto g's schedule slots, so run loops
// consult plain slices, never the plan's maps.
type AliasSlots struct {
	// ConcatSkip[i] flags the concat inputs already resident in slot i's
	// region (nil when slot i copies every input).
	ConcatSkip [][]bool
	// FlatView[i] marks a flatten slot that shares its input's storage.
	FlatView []bool
	// ElimCopies and ElimBytes total the copies every run avoids.
	ElimCopies uint64
	ElimBytes  int64
}

// BakeAlias bakes plan (nil when aliasing is off) onto g's schedule.
func BakeAlias(g *ir.Graph, plan *memplan.AliasPlan) AliasSlots {
	a := AliasSlots{ConcatSkip: make([][]bool, len(g.Nodes)), FlatView: make([]bool, len(g.Nodes))}
	if plan == nil {
		return a
	}
	a.ElimCopies, a.ElimBytes = plan.EliminatedCopies, plan.EliminatedBytes
	for i, n := range g.Nodes {
		a.ConcatSkip[i] = plan.ConcatSkip[n]
		a.FlatView[i] = n.Kind == ir.KindFlatten && plan.StorageOf(n).Class == memplan.StorageView
	}
	return a
}
