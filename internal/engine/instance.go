package engine

import (
	"context"

	"temco/internal/exec"
	"temco/internal/tensor"
)

// Instance is one worker's mutable execution state for a compiled engine:
// one exec.Frame (arena slab, tensor views, owned output buffers) per
// batch size seen. An Instance is NOT safe for concurrent use — each
// serving worker holds its own, so the hot path never contends on shared
// buffers. The Result returned by Run stays valid until the next Run on
// the same instance.
type Instance struct {
	e      *Engine
	frames map[int]*exec.Frame
	cur    *exec.Frame // frame used by the previous Run
}

// NewInstance creates an execution instance bound to this engine. Buffers
// are allocated lazily on the first Run per batch size.
func (e *Engine) NewInstance() *Instance {
	return &Instance{e: e, frames: make(map[int]*exec.Frame)}
}

// Engine returns the compiled engine this instance executes.
func (it *Instance) Engine() *Engine { return it.e }

// frame returns the frame for a batch size, building it on first use from
// the engine's layout at that size. This is the only allocating path of a
// run; a frame over the memory budget is refused before its slab exists.
func (it *Instance) frame(batch int) (*exec.Frame, error) {
	f, ok := it.frames[batch]
	if !ok {
		var err error
		f, err = it.e.prog.NewFrame(it.e.layouts.At(batch), it.e.opts.BudgetBytes)
		if err != nil {
			return nil, err
		}
		it.frames[batch] = f
	}
	it.cur = f
	return f, nil
}

// Run executes the compiled schedule on the given inputs (one batched
// [N,...] tensor per graph input, in graph-input order) through the
// planned loop, exec.Frame.Run. Inputs that do not fit the graph fail
// with guard.ErrInvalidModel, a layout over Options.BudgetBytes with
// guard.ErrBudgetExceeded. After the first call per batch size the hot
// path performs zero heap allocations.
//
// The returned Result aliases instance-owned buffers: it is valid until
// the next Run on this instance. Callers that need to keep outputs must
// Clone them (Engine.Run does).
func (it *Instance) Run(ctx context.Context, inputs ...*tensor.Tensor) (*exec.Result, error) {
	batch, err := exec.BatchOf(it.e.g, inputs)
	if err != nil {
		return nil, err
	}
	f := it.cur
	if f == nil || f.Batch() != batch {
		if f, err = it.frame(batch); err != nil {
			return nil, err
		}
	}
	r, err := f.Run(ctx, inputs...)
	if err == nil {
		it.e.runs.Add(1)
	}
	return r, err
}
