package train

import (
	"context"
	"fmt"
	"math"

	"temco/internal/exec"
	"temco/internal/guard"
	"temco/internal/ir"
	"temco/internal/memplan"
	"temco/internal/tensor"
)

// Trainer performs SGD-with-momentum updates on a layer graph's
// parameters. Graphs must be free of fused kernels (training happens on
// the original or decomposed model, before TeMCO optimization, exactly as
// in the paper).
type Trainer struct {
	G        *ir.Graph
	LR       float64
	Momentum float64
	// WeightDecay applies L2 regularization to conv/linear weights.
	WeightDecay float64

	velW map[*ir.Node]*tensor.Tensor
	velB map[*ir.Node]*tensor.Tensor
	// adam, when non-nil (see UseAdam), replaces momentum SGD.
	adam *adamState
}

// New returns a trainer over g.
func New(g *ir.Graph, lr, momentum float64) *Trainer {
	return &Trainer{
		G: g, LR: lr, Momentum: momentum,
		velW: make(map[*ir.Node]*tensor.Tensor),
		velB: make(map[*ir.Node]*tensor.Tensor),
	}
}

// forward runs the graph keeping every activation (needed by backward).
// exec.RunNode prepares each step per pass, so the packed weights follow
// the SGD updates.
func (t *Trainer) forward(x *tensor.Tensor) (map[*ir.Node]*tensor.Tensor, error) {
	vals := make(map[*ir.Node]*tensor.Tensor, len(t.G.Nodes))
	if len(t.G.Inputs) != 1 {
		return nil, fmt.Errorf("train: trainer supports single-input graphs")
	}
	vals[t.G.Inputs[0]] = x
	batch := x.Dim(0)
	for _, n := range t.G.Nodes {
		if n.Kind == ir.KindInput {
			continue
		}
		if n.Kind == ir.KindFused {
			return nil, fmt.Errorf("%w: %v", errUnsupported, n.Kind)
		}
		if n.Kind == ir.KindConv2D && n.Conv().Blocks != nil {
			// gradConv2D assumes a dense [OutC, InC, KH, KW] weight.
			return nil, guard.Errorf(guard.ErrInvalidModel, "train.forward",
				"block-diagonal conv %s cannot be trained", n)
		}
		in := make([]*tensor.Tensor, len(n.Inputs))
		for i, p := range n.Inputs {
			in[i] = vals[p]
		}
		out, _, err := exec.RunNode(context.TODO(), t.G.Name, n, in, batch)
		if err != nil {
			return nil, fmt.Errorf("train: node %s: %w", n, err)
		}
		vals[n] = out
	}
	return vals, nil
}

// backward propagates dOut (gradient at the single graph output, or at
// `at` when non-nil) and applies SGD updates.
func (t *Trainer) backward(vals map[*ir.Node]*tensor.Tensor, at *ir.Node, dOut *tensor.Tensor) error {
	grads := make(map[*ir.Node]*tensor.Tensor, len(t.G.Nodes))
	grads[at] = dOut
	idx := t.G.Index()
	_ = idx
	for i := len(t.G.Nodes) - 1; i >= 0; i-- {
		n := t.G.Nodes[i]
		dy := grads[n]
		if dy == nil || n.Kind == ir.KindInput {
			continue
		}
		ensure := func(p *ir.Node) *tensor.Tensor {
			if g := grads[p]; g != nil {
				return g
			}
			g := tensor.New(vals[p].Shape...)
			grads[p] = g
			return g
		}
		switch n.Kind {
		case ir.KindConv2D:
			a := n.Conv()
			var dw, db *tensor.Tensor
			dw = tensor.New(n.W.Shape...)
			if n.B != nil {
				db = tensor.New(n.B.Shape...)
			}
			var dx *tensor.Tensor
			if n.Inputs[0].Kind != ir.KindInput {
				dx = ensure(n.Inputs[0])
			}
			gradConv2D(dx, dw, db, dy, vals[n.Inputs[0]], n.W, a)
			t.applySGD(n, dw, db)
		case ir.KindLinear:
			a := n.Attrs.(*ir.LinearAttrs)
			dw := tensor.New(n.W.Shape...)
			var db *tensor.Tensor
			if n.B != nil {
				db = tensor.New(n.B.Shape...)
			}
			var dx *tensor.Tensor
			if n.Inputs[0].Kind != ir.KindInput {
				dx = ensure(n.Inputs[0])
			}
			gradLinear(dx, dw, db, dy, vals[n.Inputs[0]], n.W, a)
			t.applySGD(n, dw, db)
		case ir.KindReLU:
			gradReLU(ensure(n.Inputs[0]), dy, vals[n.Inputs[0]])
		case ir.KindSiLU:
			gradSiLU(ensure(n.Inputs[0]), dy, vals[n.Inputs[0]])
		case ir.KindSigmoid:
			gradSigmoid(ensure(n.Inputs[0]), dy, vals[n])
		case ir.KindBatchNorm:
			dscale := tensor.New(n.W.Shape...)
			dshift := tensor.New(n.B.Shape...)
			var dx *tensor.Tensor
			if n.Inputs[0].Kind != ir.KindInput {
				dx = ensure(n.Inputs[0])
			}
			gradBatchNorm(dx, dscale, dshift, dy, vals[n.Inputs[0]], n.W)
			t.applySGD(n, dscale, dshift)
		case ir.KindMaxPool:
			gradMaxPool(ensure(n.Inputs[0]), dy, vals[n.Inputs[0]], n.Pool())
		case ir.KindAvgPool:
			in := vals[n.Inputs[0]]
			gradAvgPool(ensure(n.Inputs[0]), dy, in.Dim(2), in.Dim(3), n.Pool())
		case ir.KindGlobalAvgPool:
			gradGlobalAvgPool(ensure(n.Inputs[0]), dy)
		case ir.KindUpsample:
			gradUpsample(ensure(n.Inputs[0]), dy, n.Attrs.(*ir.UpsampleAttrs).Scale)
		case ir.KindAdd:
			for _, p := range n.Inputs {
				if p.Kind == ir.KindInput {
					continue
				}
				g := ensure(p)
				for j := range dy.Data {
					g.Data[j] += dy.Data[j]
				}
			}
		case ir.KindConcat:
			dxs := make([]*tensor.Tensor, len(n.Inputs))
			for j, p := range n.Inputs {
				dxs[j] = ensure(p)
			}
			gradConcat(dxs, dy)
		case ir.KindFlatten:
			p := n.Inputs[0]
			if p.Kind == ir.KindInput {
				break
			}
			g := ensure(p)
			for j := range dy.Data {
				g.Data[j] += dy.Data[j]
			}
		default:
			return fmt.Errorf("%w: %v", errUnsupported, n.Kind)
		}
		// Release the gradient once consumed to bound training memory.
		delete(grads, n)
	}
	return nil
}

// applySGD performs one parameter update of node n: momentum SGD by
// default, Adam when UseAdam was called.
func (t *Trainer) applySGD(n *ir.Node, dw, db *tensor.Tensor) {
	if t.adam != nil {
		if dw != nil {
			n.W = t.adam.update(t.LR, t.WeightDecay, n, n.W, dw, t.adam.mW, t.adam.vW)
		}
		if db != nil && n.B != nil {
			n.B = t.adam.update(t.LR, 0, n, n.B, db, t.adam.mB, t.adam.vB)
		}
		return
	}
	if dw != nil {
		v := t.velW[n]
		if v == nil {
			v = tensor.New(n.W.Shape...)
			t.velW[n] = v
		}
		// Parameters may be shared with clones of this graph; copy on
		// first write so training never corrupts other graphs.
		w := n.W.Clone()
		for i := range w.Data {
			g := float64(dw.Data[i]) + t.WeightDecay*float64(w.Data[i])
			v.Data[i] = float32(t.Momentum*float64(v.Data[i]) - t.LR*g)
			w.Data[i] += v.Data[i]
		}
		n.W = w
	}
	if db != nil && n.B != nil {
		v := t.velB[n]
		if v == nil {
			v = tensor.New(n.B.Shape...)
			t.velB[n] = v
		}
		b := n.B.Clone()
		for i := range b.Data {
			v.Data[i] = float32(t.Momentum*float64(v.Data[i]) - t.LR*float64(db.Data[i]))
			b.Data[i] += v.Data[i]
		}
		n.B = b
	}
}

// StepCE runs one SGD step with softmax cross-entropy loss on a
// classification graph whose output is [N,Classes] logits. Returns the
// mean loss.
func (t *Trainer) StepCE(x *tensor.Tensor, labels []int) (float64, error) {
	vals, err := t.forward(x)
	if err != nil {
		return 0, err
	}
	out := t.G.Outputs[0]
	logits := vals[out]
	n, c := logits.Dim(0), logits.Dim(1)
	dOut := tensor.New(n, c)
	var loss float64
	for i := 0; i < n; i++ {
		row := logits.Data[i*c : (i+1)*c]
		maxV := row[0]
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxV))
		}
		logZ := math.Log(sum) + float64(maxV)
		loss += logZ - float64(row[labels[i]])
		for j := 0; j < c; j++ {
			p := math.Exp(float64(row[j])-logZ) / float64(n)
			if j == labels[i] {
				p -= 1.0 / float64(n)
			}
			dOut.Data[i*c+j] = float32(p)
		}
	}
	if t.adam != nil {
		t.adam.tick()
	}
	if err := t.backward(vals, out, dOut); err != nil {
		return 0, err
	}
	return loss / float64(n), nil
}

// StepBCE runs one SGD step with binary cross-entropy on a segmentation
// graph whose output is a sigmoid mask [N,1,H,W]. The gradient is seeded
// at the sigmoid's input (pred − target), the numerically stable form.
func (t *Trainer) StepBCE(x, masks *tensor.Tensor) (float64, error) {
	vals, err := t.forward(x)
	if err != nil {
		return 0, err
	}
	out := t.G.Outputs[0]
	if out.Kind != ir.KindSigmoid {
		return 0, fmt.Errorf("train: StepBCE expects a sigmoid output, got %v", out.Kind)
	}
	pred := vals[out]
	total := float64(pred.Len())
	var loss float64
	dPre := tensor.New(pred.Shape...)
	for i := range pred.Data {
		p := float64(pred.Data[i])
		y := float64(masks.Data[i])
		pc := math.Min(math.Max(p, 1e-7), 1-1e-7)
		loss += -(y*math.Log(pc) + (1-y)*math.Log(1-pc))
		dPre.Data[i] = float32((p - y) / total)
	}
	if t.adam != nil {
		t.adam.tick()
	}
	if err := t.backward(vals, out.Inputs[0], dPre); err != nil {
		return 0, err
	}
	return loss / total, nil
}

// Predict runs a forward pass and returns the output tensor.
func (t *Trainer) Predict(x *tensor.Tensor) (*tensor.Tensor, error) {
	vals, err := t.forward(x)
	if err != nil {
		return nil, err
	}
	return vals[t.G.Outputs[0]], nil
}

// ensure memplan stays linked for documentation references.
var _ = memplan.DefaultSkipThreshold
