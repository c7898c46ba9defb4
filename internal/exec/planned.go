package exec

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"temco/internal/faultinject"
	"temco/internal/guard"
	"temco/internal/ir"
	"temco/internal/memplan"
	"temco/internal/obs"
	"temco/internal/tensor"
)

// Program is a graph's schedule prepared for the planned run loop: every
// node prepared once by PrepareStep, and the schedule slots each step
// reads, so the loop never consults a map. A Program is immutable and
// safe to share; its buffers live in Frames.
type Program struct {
	g          *ir.Graph
	steps      []Step
	reads      [][]int // schedule slots of each step's inputs
	inSlots    []int   // schedule slots of the graph inputs, in input order
	outSlots   []int   // schedule slots of the graph outputs, in output order
	layerCalls int
	packed     int64 // bytes held by pre-packed weight panels
}

// Prepare prepares g's schedule. An unsupported node kind, or a node that
// consumes one outside the schedule, fails with guard.ErrInvalidModel.
func Prepare(g *ir.Graph) (*Program, error) {
	slotOf := g.Index()
	p := &Program{g: g, steps: make([]Step, len(g.Nodes)), reads: make([][]int, len(g.Nodes))}
	for i, n := range g.Nodes {
		s, err := PrepareStep(n)
		if err != nil {
			return nil, err
		}
		p.steps[i] = s
		p.packed += s.PackedBytes()
		p.reads[i] = make([]int, len(n.Inputs))
		for j, in := range n.Inputs {
			sl, ok := slotOf[in]
			if !ok {
				return nil, guard.Errorf(guard.ErrInvalidModel, "exec.Prepare",
					"node %s consumes %s, which is not in the schedule", n, in)
			}
			p.reads[i][j] = sl
		}
		if n.Kind != ir.KindInput {
			p.layerCalls++
		}
	}
	p.inSlots = make([]int, len(g.Inputs))
	for i, n := range g.Inputs {
		p.inSlots[i] = slotOf[n]
	}
	p.outSlots = make([]int, len(g.Outputs))
	for i, n := range g.Outputs {
		p.outSlots[i] = slotOf[n]
	}
	return p, nil
}

// PackedBytes reports the program's resident packed panels and gather
// tables.
func (p *Program) PackedBytes() int64 { return p.packed }

// Frame is one batch size's buffers for a Program: the arena slab laid
// out by one memplan.Assignment, a tensor view into it per schedule slot,
// each step's input slice, the alias plan baked onto schedule slots, and
// owned copies of the graph outputs. A Frame is NOT safe for concurrent
// use; the Result its Run returns stays valid until the next Run.
type Frame struct {
	p       *Program
	batch   int
	offsets []int64 // byte offset per schedule slot
	slab    []float32
	vals    []*tensor.Tensor
	ins     [][]*tensor.Tensor
	// concatSkip[i] flags the concat inputs already resident in slot i's
	// region (nil when slot i copies every input); flatView[i] marks a
	// flatten slot that shares its input's storage.
	concatSkip [][]bool
	flatView   []bool
	// elimCopies and elimBytes total the copies every run avoids.
	elimCopies uint64
	elimBytes  int64
	outs       []*tensor.Tensor
	res        Result
}

// NewFrame allocates the buffers for the layout a, which must have been
// planned for the program's graph. When budgetBytes > 0 the arena plus the
// largest kernel workspace must fit it, or guard.ErrBudgetExceeded is
// returned before the arena is allocated.
func (p *Program) NewFrame(a memplan.Assignment, budgetBytes int64) (*Frame, error) {
	if a.Graph != p.g {
		return nil, guard.Errorf(guard.ErrInvalidModel, "exec.NewFrame",
			"assignment was computed for a different graph")
	}
	if ws := a.MaxWorkspace(); budgetBytes > 0 && a.ArenaBytes+ws > budgetBytes {
		return nil, guard.Errorf(guard.ErrBudgetExceeded, "exec.NewFrame",
			"arena needs %d bytes (+%d workspace), budget is %d", a.ArenaBytes, ws, budgetBytes)
	}
	g := p.g
	f := &Frame{p: p, batch: a.Batch, offsets: make([]int64, len(g.Nodes)),
		slab: make([]float32, a.ArenaBytes/4), vals: make([]*tensor.Tensor, len(g.Nodes)),
		ins: make([][]*tensor.Tensor, len(g.Nodes)), concatSkip: make([][]bool, len(g.Nodes)),
		flatView: make([]bool, len(g.Nodes))}
	for i, n := range g.Nodes {
		off, ok := a.Offsets[n]
		shape := append([]int{a.Batch}, n.Shape...)
		elems := int64(tensor.NumElems(shape))
		if !ok || off%4 != 0 || off/4+elems > int64(len(f.slab)) {
			return nil, guard.Errorf(guard.ErrInternal, "exec.NewFrame",
				"node %s offset %d out of arena", n, off)
		}
		f.offsets[i] = off
		f.vals[i] = tensor.FromSlice(f.slab[off/4:off/4+elems], shape...)
	}
	for i, reads := range p.reads {
		f.ins[i] = make([]*tensor.Tensor, len(reads))
		for j, sl := range reads {
			f.ins[i][j] = f.vals[sl]
		}
	}
	if al := a.Alias; al != nil {
		f.elimCopies, f.elimBytes = al.EliminatedCopies, al.EliminatedBytes
		for i, n := range g.Nodes {
			f.concatSkip[i] = al.ConcatSkip[n]
			f.flatView[i] = n.Kind == ir.KindFlatten && al.StorageOf(n).Class == memplan.StorageView
		}
	}
	f.outs = make([]*tensor.Tensor, len(p.outSlots))
	for j, sl := range p.outSlots {
		f.outs[j] = tensor.New(f.vals[sl].Shape...)
	}
	f.res = Result{Outputs: f.outs, LayerCalls: p.layerCalls}
	return f, nil
}

// Batch returns the batch size the frame was laid out for.
func (f *Frame) Batch() int { return f.batch }

// Run is the planned run loop: it copies the inputs into the arena and
// walks the schedule, each step writing its output at its planned offset.
// It enforces the same guards as RunCtx — ctx is checked between layers,
// the fault-injection hooks fire in interpreter order, and a panicking
// kernel is recovered into guard.ErrInternal — and after the frame is
// built it performs zero heap allocations.
//
// The returned Result aliases the frame's output buffers: it is valid
// until the next Run on this frame.
func (f *Frame) Run(ctx context.Context, inputs ...*tensor.Tensor) (r *Result, err error) {
	defer recoverInternal("exec.Frame.Run", &err)
	p := f.p
	if len(inputs) != len(p.inSlots) {
		return nil, guard.Errorf(guard.ErrInvalidModel, "exec.Frame.Run",
			"graph %s takes %d inputs, got %d", p.g.Name, len(p.inSlots), len(inputs))
	}
	var copied int64
	for i, sl := range p.inSlots {
		dst := f.vals[sl]
		if !shapeEq(inputs[i].Shape, dst.Shape) {
			return nil, guard.Errorf(guard.ErrInvalidModel, "exec.Frame.Run",
				"input %d has shape %v, want %v", i, inputs[i].Shape, dst.Shape)
		}
		copy(dst.Data, inputs[i].Data)
		copied += int64(dst.Len()) * 4
	}
	// Telemetry hooks: one atomic load each, nil (and therefore free) when
	// disabled. When enabled, spans carry the step's arena offset and the
	// arena high-water mark — the measured memory trajectory is how far
	// into the slab the layout has actually written, the number to hold
	// against the planner's arena size.
	tr := obs.TraceFor(p.g.Name)
	mr := obs.MemRecorderFor(p.g.Name)
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
	for i := range p.steps {
		s := &p.steps[i]
		if err := ctx.Err(); err != nil {
			return nil, guard.New(guard.ErrCanceled, "exec.Frame.Run", err)
		}
		if tr != nil || mr != nil {
			if end := f.offsets[i] + int64(f.vals[i].Len())*4; end > watermark {
				watermark = end
			}
		}
		n := s.node
		if n.Kind == ir.KindInput {
			if mr != nil {
				mr.Record(i, n.Name, watermark)
			}
			continue
		}
		if faultinject.Budget(p.g.Name) {
			return nil, guard.Errorf(guard.ErrBudgetExceeded, "exec.Frame.Run",
				"injected budget failure at node %s", n)
		}
		var t0 obsStart
		if tr != nil {
			t0 = beginSpan(tr)
		}
		var r0 time.Duration
		if rt != nil {
			r0 = rt.Since()
		}
		stepCopy, err := s.Run(ctx, p.g.Name, f.vals[i], f.ins[i], f.concatSkip[i], f.flatView[i])
		if err != nil {
			return nil, fmt.Errorf("exec: node %s: %w", n, err)
		}
		copied += stepCopy
		if rt != nil {
			// Node names are interned strings and the span buffer is
			// preallocated, so this stays allocation-free.
			rt.SpanAt("engine.step", n.Name, i, r0, rt.Since()-r0)
		}
		if tr != nil {
			endSpan(tr, t0, "engine", n, lane, i, watermark, f.offsets[i], stepCopy)
		}
		if mr != nil {
			mr.Record(i, n.Name, watermark)
		}
	}
	for j, sl := range p.outSlots {
		copy(f.outs[j].Data, f.vals[sl].Data)
	}
	obs.CountCopies(copied, f.elimCopies, f.elimBytes)
	return &f.res, nil
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
