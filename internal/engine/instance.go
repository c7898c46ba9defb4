package engine

import (
	"context"
	"fmt"
	"time"

	"temco/internal/exec"
	"temco/internal/faultinject"
	"temco/internal/gemm"
	"temco/internal/guard"
	"temco/internal/ir"
	"temco/internal/obs"
	"temco/internal/tensor"
)

// Instance is one worker's mutable execution state for a compiled engine:
// the arena slab, the tensor views into it, and the owned output buffers.
// An Instance is NOT safe for concurrent use — each serving worker holds
// its own, so the hot path never contends on shared buffers. The Result
// returned by Run stays valid until the next Run on the same instance.
type Instance struct {
	e      *Engine
	states map[int]*state // one per batch size seen
	cur    *state         // state used by the previous Run
}

// state is the per-batch-size buffer set. Everything here is allocated on
// first use of that batch size; subsequent runs reuse it untouched.
type state struct {
	lay  *layout
	slab []float32
	// vals[i] views the slab at schedule slot i's assigned offset.
	vals []*tensor.Tensor
	// ins[i] is the prebuilt kernel-input slice for schedule slot i.
	ins [][]*tensor.Tensor
	// outs are instance-owned copies of the graph outputs (the slab views
	// they shadow are recycled by the next run).
	outs []*tensor.Tensor
	res  exec.Result
}

// NewInstance creates an execution instance bound to this engine. Buffers
// are allocated lazily on the first Run per batch size.
func (e *Engine) NewInstance() *Instance {
	return &Instance{e: e, states: make(map[int]*state)}
}

// Engine returns the compiled engine this instance executes.
func (it *Instance) Engine() *Engine { return it.e }

// prepare returns the buffer set for a batch size, building it on first
// use. This is the only allocating path of the run loop.
func (it *Instance) prepare(batch int) (*state, error) {
	if st, ok := it.states[batch]; ok {
		it.cur = st
		return st, nil
	}
	if batch < 1 {
		return nil, guard.Errorf(guard.ErrInvalidModel, "engine.Run", "batch %d out of range", batch)
	}
	e := it.e
	lay, err := e.layoutFor(batch)
	if err != nil {
		return nil, err
	}
	st := &state{lay: lay, slab: make([]float32, lay.arenaBytes/4)}
	st.vals = make([]*tensor.Tensor, len(e.g.Nodes))
	for i, n := range e.g.Nodes {
		shape := append([]int{batch}, n.Shape...)
		elems := int64(tensor.NumElems(shape))
		off := lay.offsets[i]
		if off%4 != 0 || off/4+elems > int64(len(st.slab)) {
			return nil, guard.Errorf(guard.ErrInternal, "engine.prepare",
				"node %s offset %d out of arena", n, off)
		}
		st.vals[i] = tensor.FromSlice(st.slab[off/4:off/4+elems], shape...)
	}
	st.ins = make([][]*tensor.Tensor, len(e.steps))
	for i := range e.steps {
		s := &e.steps[i]
		ins := make([]*tensor.Tensor, len(s.inSlots))
		for j, sl := range s.inSlots {
			ins[j] = st.vals[sl]
		}
		st.ins[i] = ins
	}
	st.outs = make([]*tensor.Tensor, len(e.outSlots))
	for j, sl := range e.outSlots {
		st.outs[j] = tensor.New(st.vals[sl].Shape...)
	}
	st.res.Outputs = st.outs
	st.res.LayerCalls = e.layerCalls
	it.states[batch] = st
	it.cur = st
	return st, nil
}

// Run executes the compiled schedule on the given inputs (one batched
// [N,...] tensor per graph input, in graph-input order). It enforces the
// same guards as exec.RunCtx — ctx is checked between layers, the memory
// budget (arena + largest workspace, as RunArenaCtx accounts it) is
// enforced, the fault-injection hooks fire in interpreter order, and a
// panicking kernel is recovered into guard.ErrInternal. After the first
// call per batch size the hot path performs zero heap allocations.
//
// The returned Result aliases instance-owned buffers: it is valid until
// the next Run on this instance. Callers that need to keep outputs must
// Clone them (Engine.Run does).
func (it *Instance) Run(ctx context.Context, inputs ...*tensor.Tensor) (r *exec.Result, err error) {
	defer recoverInternal("engine.Run", &err)
	e := it.e
	if len(inputs) != len(e.inSlots) {
		return nil, guard.Errorf(guard.ErrInvalidModel, "engine.Run",
			"graph %s takes %d inputs, got %d", e.g.Name, len(e.inSlots), len(inputs))
	}
	batch := inputs[0].Dim(0)
	st := it.cur
	if st == nil || st.lay.batch != batch {
		st, err = it.prepare(batch)
		if err != nil {
			return nil, err
		}
	}
	if e.opts.BudgetBytes > 0 && st.lay.arenaBytes+st.lay.maxWS > e.opts.BudgetBytes {
		return nil, guard.Errorf(guard.ErrBudgetExceeded, "engine.Run",
			"arena needs %d bytes (+%d workspace), budget is %d",
			st.lay.arenaBytes, st.lay.maxWS, e.opts.BudgetBytes)
	}
	var copied int64
	for i, sl := range e.inSlots {
		dst := st.vals[sl]
		if !shapeEq(inputs[i].Shape, dst.Shape) {
			return nil, guard.Errorf(guard.ErrInvalidModel, "engine.Run",
				"input %d has shape %v, want %v", i, inputs[i].Shape, dst.Shape)
		}
		copy(dst.Data, inputs[i].Data)
		copied += int64(dst.Len()) * 4
	}
	// Telemetry hooks: one atomic load each, nil (and therefore free) when
	// disabled. When enabled, spans carry the step's arena offset and the
	// arena high-water mark — the engine's measured memory trajectory is
	// how far into the slab the layout has actually written, the number to
	// hold against the planner's arena size.
	tr := obs.TraceFor(e.g.Name)
	mr := obs.MemRecorderFor(e.g.Name)
	// rt links this run's per-step spans onto the owning request's
	// timeline when the serving tier attached one to ctx. Nil on a plain
	// context (one interface lookup, no allocation), so the zero-alloc
	// steady-state gate holds with recording compiled in but disabled.
	rt := obs.RequestFrom(ctx)
	var lane uint64
	if tr != nil {
		lane = tr.Lane()
	}
	var watermark int64
	for i := range e.steps {
		s := &e.steps[i]
		if err := ctx.Err(); err != nil {
			return nil, guard.New(guard.ErrCanceled, "engine.Run", err)
		}
		if tr != nil || mr != nil {
			if end := st.lay.offsets[i] + int64(st.vals[i].Len())*4; end > watermark {
				watermark = end
			}
		}
		n := s.Node()
		if n.Kind == ir.KindInput {
			if mr != nil {
				mr.Record(i, n.Name, watermark)
			}
			continue
		}
		if faultinject.Budget(e.g.Name) {
			return nil, guard.Errorf(guard.ErrBudgetExceeded, "engine.Run",
				"injected budget failure at node %s", n)
		}
		var t0 time.Duration
		var p0 gemm.PoolStats
		if tr != nil {
			t0, p0 = tr.Since(), gemm.PoolStatsSnapshot()
		}
		var r0 time.Duration
		if rt != nil {
			r0 = rt.Since()
		}
		stepCopy, err := s.Run(ctx, e.g.Name, st.vals[i], st.ins[i], st.lay.alias.ConcatSkip[i], st.lay.alias.FlatView[i])
		if err != nil {
			return nil, fmt.Errorf("engine: node %s: %w", n, err)
		}
		copied += stepCopy
		if rt != nil {
			// Node names are interned strings and the span buffer is
			// preallocated, so this stays allocation-free.
			rt.SpanAt("engine.step", n.Name, i, r0, rt.Since()-r0)
		}
		if tr != nil {
			p1 := gemm.PoolStatsSnapshot()
			tr.Record(obs.Span{
				Name: n.Name, Cat: "engine", Kind: n.Kind.String(),
				Lane: lane, Step: i, Start: t0, Dur: tr.Since() - t0,
				LiveBytes: watermark, ArenaOff: st.lay.offsets[i],
				PackHits: p1.Hits - p0.Hits, PackMisses: p1.Misses - p0.Misses,
				CopyBytes: stepCopy,
			})
		}
		if mr != nil {
			mr.Record(i, n.Name, watermark)
		}
	}
	for j, sl := range e.outSlots {
		copy(st.outs[j].Data, st.vals[sl].Data)
	}
	obs.CountCopies(copied, st.lay.alias.ElimCopies, st.lay.alias.ElimBytes)
	e.runs.Add(1)
	return &st.res, nil
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
