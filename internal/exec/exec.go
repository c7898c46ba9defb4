// Package exec runs layer graphs on real data. It owns the one kernel
// table every executor shares: PrepareStep plans a node's kernel (the conv
// decision, packed weights, gather tables) and Step.Run executes it into a
// caller-provided output. Two interpreters sit on top. RunCtx walks the
// schedule, allocates one batched NCHW tensor per node, and releases
// tensors after their last use, mirroring the allocate/free discipline the
// memory planner simulates. RunArenaCtx runs the same steps inside one
// arena laid out by memplan.AssignOffsets. The compiled engine
// (internal/engine) prepares the same steps once and reuses them.
package exec

import (
	"context"
	"fmt"
	"time"

	"temco/internal/faultinject"
	"temco/internal/gemm"
	"temco/internal/guard"
	"temco/internal/ir"
	"temco/internal/memplan"
	"temco/internal/obs"
	"temco/internal/tensor"
)

// Result holds the outputs of one inference plus execution statistics.
type Result struct {
	// Outputs are the graph outputs, in graph order.
	Outputs []*tensor.Tensor
	// LayerCalls counts dispatched kernels (the paper's CPU-side layer
	// call overhead is proportional to this).
	LayerCalls int
}

// Run executes g on the given inputs (one batched [N,...] tensor per graph
// input, in graph-input order). All inputs must share the batch size.
func Run(g *ir.Graph, inputs ...*tensor.Tensor) (*Result, error) {
	return RunCtx(context.Background(), g, 0, inputs...)
}

// RunCtx is Run with resource guards: it checks ctx between layers
// (returning an error wrapping guard.ErrCanceled on cancellation or
// deadline expiry) and, when budgetBytes > 0, accounts live internal
// tensor bytes plus kernel workspace against that peak-memory budget,
// returning guard.ErrBudgetExceeded before an allocation would cross it
// instead of OOMing. The accounting mirrors memplan.Simulate, so a budget
// of Simulate(g, batch, 0).PeakWithWorkspace always suffices. A panicking
// kernel is recovered into an error wrapping guard.ErrInternal.
func RunCtx(ctx context.Context, g *ir.Graph, budgetBytes int64, inputs ...*tensor.Tensor) (*Result, error) {
	if len(inputs) != len(g.Inputs) {
		return nil, fmt.Errorf("exec: graph %s takes %d inputs, got %d", g.Name, len(g.Inputs), len(inputs))
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("exec: graph %s has no inputs", g.Name)
	}
	batch := inputs[0].Dim(0)
	vals := make(map[*ir.Node]*tensor.Tensor, len(g.Nodes))
	for i, in := range g.Inputs {
		want := append([]int{batch}, in.Shape...)
		if !shapeEq(inputs[i].Shape, want) {
			return nil, fmt.Errorf("exec: input %d has shape %v, want %v", i, inputs[i].Shape, want)
		}
		vals[in] = inputs[i]
	}
	live := memplan.Analyze(g)
	// freeAt[i] lists the nodes whose last use is schedule slot i, built
	// once so the per-step release is O(released) rather than a scan of
	// every earlier node. Outputs have End == len(Nodes): never released.
	freeAt := make([][]*ir.Node, len(g.Nodes)+1)
	for _, n := range g.Nodes {
		e := live.End[n]
		if e > len(g.Nodes) {
			e = len(g.Nodes)
		}
		freeAt[e] = append(freeAt[e], n)
	}
	// Telemetry hooks resolve once per run: one atomic load each, nil when
	// disabled (the common case, which then costs nothing per step). The
	// memory recorder tracks *measured* live bytes — summed from the actual
	// tensors held in vals, not the planner's OutBytes model — so
	// cmd/memprofile can check the static Fig. 4 prediction against what
	// this executor really keeps live.
	tr := obs.TraceFor(g.Name)
	mr := obs.MemRecorderFor(g.Name)
	// rt links per-step spans onto the owning request's timeline when the
	// serving tier attached one; nil on a plain context.
	rt := obs.RequestFrom(ctx)
	var lane uint64
	if tr != nil {
		lane = tr.Lane()
	}
	var measuredLive int64
	var liveBytes int64
	var acct copyAcct
	res := &Result{}
	for i, n := range g.Nodes {
		if err := ctx.Err(); err != nil {
			return nil, guard.New(guard.ErrCanceled, "exec.RunCtx", err)
		}
		need := n.OutBytes(batch)
		ws := memplan.Workspace(n, batch)
		if budgetBytes > 0 && liveBytes+need+ws > budgetBytes {
			return nil, guard.Errorf(guard.ErrBudgetExceeded, "exec.RunCtx",
				"node %s needs %d live bytes (+%d workspace), budget is %d",
				n, liveBytes+need, ws, budgetBytes)
		}
		if faultinject.Budget(g.Name) {
			return nil, guard.Errorf(guard.ErrBudgetExceeded, "exec.RunCtx",
				"injected budget failure at node %s", n)
		}
		liveBytes += need
		var t0 obsStart
		if tr != nil {
			t0 = beginSpan(tr)
		}
		var r0 time.Duration
		if rt != nil {
			r0 = rt.Since()
		}
		if n.Kind != ir.KindInput {
			out, stepCopy, err := runNode(ctx, g.Name, n, vals, batch)
			if err != nil {
				return nil, fmt.Errorf("exec: node %s: %w", n, err)
			}
			vals[n] = out
			res.LayerCalls++
			acct.copied += stepCopy
			if n.Kind == ir.KindFlatten {
				acct.eliminate(n.OutBytes(batch))
			}
			if tr != nil {
				endSpan(tr, t0, n, lane, i, liveBytes, -1, stepCopy)
			}
			if rt != nil {
				rt.SpanAt("exec.step", n.Name, i, r0, rt.Since()-r0)
			}
		}
		if mr != nil {
			// Count the tensor actually held for n (aliased Flatten views
			// count at their aliased size, matching the planner's model).
			measuredLive += int64(vals[n].Len()) * 4
			mr.Record(i, n.Name, measuredLive)
		}
		for _, m := range freeAt[i] {
			liveBytes -= m.OutBytes(batch)
			if mr != nil {
				measuredLive -= int64(vals[m].Len()) * 4
			}
			delete(vals, m)
		}
	}
	for _, o := range g.Outputs {
		t, ok := vals[o]
		if !ok {
			return nil, fmt.Errorf("exec: output %s was released or never computed", o)
		}
		res.Outputs = append(res.Outputs, t)
	}
	obs.CountCopies(acct.copied, acct.elim, acct.elimBytes)
	return res, nil
}

func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// obsStart captures the tracer clock and the gemm workspace-pool counters
// at step entry, so the step's span can report its duration and how much
// kernel scratch came from the pool versus fresh allocation.
type obsStart struct {
	at   time.Duration
	pool gemm.PoolStats
}

func beginSpan(tr *obs.Tracer) obsStart {
	return obsStart{at: tr.Since(), pool: gemm.PoolStatsSnapshot()}
}

// endSpan records one per-step span. All arguments are scalars and
// interned strings; recording never allocates (see obs.Tracer.Record).
func endSpan(tr *obs.Tracer, t0 obsStart, n *ir.Node, lane uint64, step int, live, arenaOff, copyBytes int64) {
	p1 := gemm.PoolStatsSnapshot()
	tr.Record(obs.Span{
		Name: n.Name, Cat: "exec", Kind: n.Kind.String(), Lane: lane, Step: step,
		Start: t0.at, Dur: tr.Since() - t0.at,
		LiveBytes: live, ArenaOff: arenaOff,
		PackHits: p1.Hits - t0.pool.Hits, PackMisses: p1.Misses - t0.pool.Misses,
		CopyBytes: copyBytes,
	})
}

// runNode gathers node n's inputs from vals and runs it through RunNode,
// recovering a panicking kernel (or faultinject hook) into
// guard.ErrInternal.
func runNode(ctx context.Context, scope string, n *ir.Node, vals map[*ir.Node]*tensor.Tensor, batch int) (out *tensor.Tensor, copied int64, err error) {
	in := make([]*tensor.Tensor, len(n.Inputs))
	for i, p := range n.Inputs {
		t, ok := vals[p]
		if !ok {
			return nil, 0, fmt.Errorf("input %s released too early", p)
		}
		in[i] = t
	}
	err = guard.Safe("exec.RunCtx", func() (err error) {
		out, copied, err = RunNode(ctx, scope, n, in, batch)
		return err
	})
	return out, copied, err
}

// RunNode prepares node n, allocates its output at the given batch size —
// a fresh tensor, or for Flatten a reshape sharing the input's storage —
// and runs the step on in, returning the output and the bytes the step
// copied. Nothing is kept between calls: executors that run a node once
// per pass (the map interpreter, the trainer, whose weights change between
// passes) use it; the engine prepares once and calls Step.Run itself.
func RunNode(ctx context.Context, scope string, n *ir.Node, in []*tensor.Tensor, batch int) (*tensor.Tensor, int64, error) {
	s, err := PrepareStep(n)
	if err != nil {
		return nil, 0, err
	}
	shape := append([]int{batch}, n.Shape...)
	flat := n.Kind == ir.KindFlatten
	var out *tensor.Tensor
	if flat {
		out = in[0].Reshape(shape...)
	} else {
		out = tensor.New(shape...)
	}
	copied, err := s.Run(ctx, scope, out, in, nil, flat)
	return out, copied, err
}
