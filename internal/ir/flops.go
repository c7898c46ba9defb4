package ir

// FLOPs returns the floating point operation count of one application of
// node n at batch size 1, counting a multiply-accumulate as 2 ops. The
// skip-connection optimization's Overhead gate (paper Alg. 1) compares
// these counts against COMPUTE_THRESHOLD.
func FLOPs(n *Node) int64 {
	outElems := n.NumElems()
	switch n.Kind {
	case KindInput, KindFlatten:
		return 0
	case KindConv2D:
		a := n.Conv()
		g := a.Groups
		if g == 0 {
			g = 1
		}
		if a.Blocks != nil {
			// Each output pixel: Σ InC_i · OutC_i MACs over the diagonal blocks.
			return int64(n.Shape[1]) * int64(n.Shape[2]) * blockMACs(a.Blocks, a.InC, a.OutC) * 2
		}
		// Each output element: InC/g · KH · KW MACs.
		return outElems * int64(a.InC/g) * int64(a.KH) * int64(a.KW) * 2
	case KindLinear:
		a := n.Attrs.(*LinearAttrs)
		return int64(a.In) * int64(a.Out) * 2
	case KindReLU, KindSigmoid:
		return outElems
	case KindSiLU:
		return outElems * 2
	case KindBatchNorm:
		return outElems * 2
	case KindMaxPool, KindAvgPool:
		a := n.Pool()
		return outElems * int64(a.KH) * int64(a.KW)
	case KindGlobalAvgPool:
		if len(n.Inputs) == 1 {
			return n.Inputs[0].NumElems()
		}
		return outElems
	case KindUpsample:
		return outElems
	case KindAdd:
		return outElems
	case KindConcat:
		return 0
	case KindSoftmax:
		return outElems * 3
	case KindFused:
		a := n.Fused()
		h, w := n.Shape[1], n.Shape[2]
		preH, preW := h, w
		if a.Pool != nil {
			// The lconv/activation run at pre-pool resolution.
			preH = (h-1)*a.Pool.SH + a.Pool.KH - 2*a.Pool.PH
			preW = (w-1)*a.Pool.SW + a.Pool.KW - 2*a.Pool.PW
			if len(n.Inputs) == 1 {
				preH, preW = n.Inputs[0].Shape[1], n.Inputs[0].Shape[2]
			}
		}
		lconv := int64(preH) * int64(preW) * blockMACs(a.LBlocks, a.InC, a.MidC) * 2
		act := int64(a.MidC) * int64(preH) * int64(preW)
		pool := int64(0)
		if a.Pool != nil {
			pool = int64(a.MidC) * int64(h) * int64(w) * int64(a.Pool.KH) * int64(a.Pool.KW)
		}
		fconv := int64(0)
		if a.FW != nil {
			fconv = int64(a.OutC) * int64(h) * int64(w) * int64(a.MidC) * 2
		}
		return lconv + act + pool + fconv
	default:
		return 0
	}
}

// GraphFLOPs sums FLOPs over the whole graph at batch size 1.
func GraphFLOPs(g *Graph) int64 {
	var total int64
	for _, n := range g.Nodes {
		total += FLOPs(n)
	}
	return total
}
