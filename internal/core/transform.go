package core

import (
	"fmt"

	"temco/internal/ir"
	"temco/internal/tensor"
)

// Transform applies the layer transformations of paper §3.3 that widen
// activation-layer-fusion applicability around concat and add layers:
//
//  1. merged lconv (Fig. 9b→9a): a concat of same-activation lconv branches
//     feeding an fconv becomes concat-of-reduced → block-diagonal lconv →
//     activation, producing one fusible chain;
//  2. add merge (Fig. 9c→9a): an add of two 1×1 convolutions becomes one
//     1×1 convolution over the concatenation of their (reduced) inputs;
//  3. concat split (Fig. 9b→9c): a remaining concat→fconv becomes per-branch
//     1×1 convolutions joined by adds, each branch fusible on its own.
func Transform(g *ir.Graph, cfg Config) Stats {
	var st Stats
	st.ConcatsFlattened = flattenConcats(g)
	st.UpsampleSinks = sinkUpsamples(g)
	st.MergedLConvs = mergeLConvsAtConcat(g)
	st.AddMerges = mergeAddOfConvs(g)
	st.ConcatSplits = splitConcatFConv(g)
	st.DeadNodesRemoved += g.DeadCodeElim()
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("core: Transform produced invalid graph: %v", err))
	}
	return st
}

// flattenConcats rewrites concat(concat(a,b), c) into concat(a, b, c)
// (concatenation is associative). Nested running concatenations — the
// DenseNet pattern — become flat, single-use concats that splitConcatFConv
// can then dissolve entirely (paper Fig. 9b→9c applied blockwide), so the
// doubled concat buffers never materialize. Returns the number of concat
// nodes whose input lists were widened.
func flattenConcats(g *ir.Graph) int {
	count := 0
	for _, cc := range g.Nodes { // schedule order: inner concats first
		if cc.Kind != ir.KindConcat {
			continue
		}
		widened := false
		var flat []*ir.Node
		for _, in := range cc.Inputs {
			if in.Kind == ir.KindConcat {
				flat = append(flat, in.Inputs...)
				widened = true
			} else {
				flat = append(flat, in)
			}
		}
		if widened {
			cc.Inputs = flat
			count++
		}
	}
	if count > 0 {
		g.DeadCodeElim()
	}
	return count
}

// sinkUpsamples rewrites upsample(act(lconv(r))) into act(lconv(upsample(r))):
// nearest-neighbour upsampling commutes with per-channel 1×1 convolutions
// and elementwise activations, so the full-resolution tensor can be
// produced from the *reduced* tensor, leaving an lconv→act chain adjacent
// to its consumer where activation fusion applies. This is what keeps the
// UNet decoder's restored tensors out of memory (paper §4.2).
func sinkUpsamples(g *ir.Graph) int {
	uses := g.UseCounts()
	count := 0
	snapshot := append([]*ir.Node(nil), g.Nodes...)
	for _, u := range snapshot {
		if u.Kind != ir.KindUpsample {
			continue
		}
		a := u.Inputs[0]
		if !a.Kind.IsActivation() || uses[a] != 1 {
			continue
		}
		l := a.Inputs[0]
		if !l.IsLConv() || uses[l] != 1 {
			continue
		}
		r := l.Inputs[0]
		scale := u.Attrs.(*ir.UpsampleAttrs).Scale
		upShape, err := ir.InferShape(ir.KindUpsample, u.Attrs, [][]int{r.Shape})
		if err != nil {
			continue
		}
		newUp := &ir.Node{ID: g.NewID(), Name: u.Name + ".reduced", Kind: ir.KindUpsample,
			Inputs: []*ir.Node{r}, Attrs: &ir.UpsampleAttrs{Scale: scale}, Shape: upShape}
		lAttrs := *l.Conv()
		lShape, err := ir.InferShape(ir.KindConv2D, &lAttrs, [][]int{upShape})
		if err != nil {
			continue
		}
		newL := &ir.Node{ID: g.NewID(), Name: l.Name + ".up", Kind: ir.KindConv2D,
			Inputs: []*ir.Node{newUp}, Attrs: &lAttrs, W: l.W, B: l.B, Shape: lShape, Role: l.Role}
		newA := &ir.Node{ID: g.NewID(), Name: a.Name + ".up", Kind: a.Kind,
			Inputs: []*ir.Node{newL}, Shape: append([]int(nil), lShape...)}
		g.InsertBefore(u, newUp, newL, newA)
		g.ReplaceAllUses(u, newA)
		count++
		uses = g.UseCounts()
	}
	if count > 0 {
		g.DeadCodeElim()
	}
	return count
}

// conv1x1 reports whether n is a plain 1×1 stride-1 unpadded convolution
// with a dense weight (the rewrites that take one read its W densely).
func conv1x1(n *ir.Node) bool {
	if n.Kind != ir.KindConv2D {
		return false
	}
	a := n.Conv()
	g := a.Groups
	if g == 0 {
		g = 1
	}
	return a.KH == 1 && a.KW == 1 && a.SH == 1 && a.SW == 1 && a.PH == 0 && a.PW == 0 && g == 1 && a.Blocks == nil
}

// mergeLConvsAtConcat rewrites concat(act(lconv_1(r_1)), …, act(lconv_k(r_k)))
// feeding an fconv into act(lconvM(concat(r_1, …, r_k))) with block-diagonal
// merged weights (paper Fig. 9a). lconvM carries the block list, so neither
// its weight nor its kernels hold the off-diagonal zeros. Returns the
// number of merges.
func mergeLConvsAtConcat(g *ir.Graph) int {
	uses := g.UseCounts()
	succs := g.Succs()
	count := 0
	snapshot := append([]*ir.Node(nil), g.Nodes...)
	for _, cc := range snapshot {
		if cc.Kind != ir.KindConcat || uses[cc] != 1 || !succs[cc][0].IsFConv() {
			continue
		}
		// Every branch must be act(lconv(r)) with a common activation kind.
		// Branches may have other consumers (the DenseNet running concats
		// share them): the originals stay in place for those consumers and
		// die by DCE once every concat has been merged — only the small
		// reduced tensors r then survive across the block.
		var acts []*ir.Node
		var lconvs []*ir.Node
		ok := true
		var actKind ir.Kind
		for i, br := range cc.Inputs {
			if !br.Kind.IsActivation() {
				ok = false
				break
			}
			if i == 0 {
				actKind = br.Kind
			} else if br.Kind != actKind {
				ok = false
				break
			}
			l := br.Inputs[0]
			if !l.IsLConv() {
				ok = false
				break
			}
			acts = append(acts, br)
			lconvs = append(lconvs, l)
		}
		if !ok {
			continue
		}
		// Build concat of the reduced inputs.
		reduced := make([]*ir.Node, len(lconvs))
		redShapes := make([][]int, len(lconvs))
		for i, l := range lconvs {
			reduced[i] = l.Inputs[0]
			redShapes[i] = l.Inputs[0].Shape
		}
		ccShape, err := ir.InferShape(ir.KindConcat, nil, redShapes)
		if err != nil {
			continue // spatial mismatch between reduced tensors
		}
		newCC := &ir.Node{ID: g.NewID(), Name: cc.Name + ".reduced", Kind: ir.KindConcat,
			Inputs: reduced, Shape: ccShape}
		// Merged block-diagonal lconv [ΣC_i, ΣR_i]: only the diagonal blocks
		// are stored, each branch's weight back to back. A branch that is
		// itself a merged lconv contributes its own blocks.
		var sumC, sumR, nW int
		var blocks []ir.ConvBlock
		for _, l := range lconvs {
			la := l.Conv()
			sumC += la.OutC
			sumR += la.InC
			nW += l.W.Len()
			blocks = append(blocks, ir.ChannelBlocks(la.Blocks, la.InC, la.OutC)...)
		}
		w := tensor.New(nW)
		bias := tensor.New(sumC)
		wOff, cOff := 0, 0
		for _, l := range lconvs {
			wOff += copy(w.Data[wOff:], l.W.Data)
			if l.B != nil {
				copy(bias.Data[cOff:], l.B.Data)
			}
			cOff += l.Conv().OutC
		}
		mAttrs := &ir.ConvAttrs{InC: sumR, OutC: sumC, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 1, Blocks: blocks}
		mShape, err := ir.InferShape(ir.KindConv2D, mAttrs, [][]int{newCC.Shape})
		if err != nil {
			continue
		}
		merged := &ir.Node{ID: g.NewID(), Name: cc.Name + ".mlconv", Kind: ir.KindConv2D,
			Inputs: []*ir.Node{newCC}, Attrs: mAttrs, W: w, B: bias, Shape: mShape, Role: ir.RoleLConv}
		actNode := &ir.Node{ID: g.NewID(), Name: cc.Name + ".mact", Kind: actKind,
			Inputs: []*ir.Node{merged}, Shape: append([]int(nil), mShape...)}
		g.InsertBefore(cc, newCC, merged, actNode)
		g.ReplaceAllUses(cc, actNode)
		count++
		// Refresh use bookkeeping for subsequent patterns.
		uses = g.UseCounts()
		succs = g.Succs()
	}
	return count
}

// mergeAddOfConvs rewrites add(convA(u), convB(v)) with 1×1 single-use
// convolutions into conv([W_A|W_B])(concat(u,v)) (paper Fig. 9c→9a).
func mergeAddOfConvs(g *ir.Graph) int {
	uses := g.UseCounts()
	count := 0
	snapshot := append([]*ir.Node(nil), g.Nodes...)
	for _, a := range snapshot {
		if a.Kind != ir.KindAdd {
			continue
		}
		p, q := a.Inputs[0], a.Inputs[1]
		if !conv1x1(p) || !conv1x1(q) || uses[p] != 1 || uses[q] != 1 || p == q {
			continue
		}
		u, v := p.Inputs[0], q.Inputs[0]
		if u.Shape[1] != v.Shape[1] || u.Shape[2] != v.Shape[2] {
			continue
		}
		pa, qa := p.Conv(), q.Conv()
		if pa.OutC != qa.OutC {
			continue
		}
		ccShape, err := ir.InferShape(ir.KindConcat, nil, [][]int{u.Shape, v.Shape})
		if err != nil {
			continue
		}
		cc := &ir.Node{ID: g.NewID(), Name: a.Name + ".cat", Kind: ir.KindConcat,
			Inputs: []*ir.Node{u, v}, Shape: ccShape}
		inC := pa.InC + qa.InC
		w := tensor.New(pa.OutC, inC, 1, 1)
		bias := tensor.New(pa.OutC)
		for o := 0; o < pa.OutC; o++ {
			copy(w.Data[o*inC:o*inC+pa.InC], p.W.Data[o*pa.InC:(o+1)*pa.InC])
			copy(w.Data[o*inC+pa.InC:(o+1)*inC], q.W.Data[o*qa.InC:(o+1)*qa.InC])
			if p.B != nil {
				bias.Data[o] += p.B.Data[o]
			}
			if q.B != nil {
				bias.Data[o] += q.B.Data[o]
			}
		}
		mAttrs := &ir.ConvAttrs{InC: inC, OutC: pa.OutC, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 1}
		mShape, err := ir.InferShape(ir.KindConv2D, mAttrs, [][]int{cc.Shape})
		if err != nil {
			continue
		}
		role := ir.RoleNone
		if pa.OutC < inC {
			role = ir.RoleFConv
		} else if pa.OutC > inC {
			role = ir.RoleLConv
		}
		merged := &ir.Node{ID: g.NewID(), Name: a.Name + ".mconv", Kind: ir.KindConv2D,
			Inputs: []*ir.Node{cc}, Attrs: mAttrs, W: w, B: bias, Shape: mShape, Role: role}
		g.InsertBefore(a, cc, merged)
		g.ReplaceAllUses(a, merged)
		count++
		uses = g.UseCounts()
	}
	return count
}

// splitConcatFConv rewrites fconv(concat(u_1,…,u_k)) into
// add(conv(u_1,W_1), …) with the fconv weight split along its input
// channels (paper Fig. 9b→9c). Each branch convolution is then fusible
// with the chain producing u_i.
func splitConcatFConv(g *ir.Graph) int {
	uses := g.UseCounts()
	succs := g.Succs()
	count := 0
	snapshot := append([]*ir.Node(nil), g.Nodes...)
	for _, cc := range snapshot {
		if cc.Kind != ir.KindConcat || uses[cc] != 1 {
			continue
		}
		f := succs[cc][0]
		if !f.IsFConv() || f.Inputs[0] != cc {
			continue
		}
		fa := f.Conv()
		// Benefit gate: the split replaces one concat buffer (InC channels)
		// with an add chain whose transients hold up to three OutC-channel
		// tensors. Splitting a wide 1×1 convolution (e.g. a DenseNet
		// transition, OutC = InC/2) would regress peak memory; splitting a
		// true fconv (OutC ≈ rank ≪ InC) wins.
		if 3*fa.OutC >= fa.InC {
			continue
		}
		var newNodes []*ir.Node
		var acc *ir.Node
		chOff := 0
		for i, u := range cc.Inputs {
			c := u.Shape[0]
			w := tensor.New(fa.OutC, c, 1, 1)
			for o := 0; o < fa.OutC; o++ {
				copy(w.Data[o*c:(o+1)*c], f.W.Data[o*fa.InC+chOff:o*fa.InC+chOff+c])
			}
			var bias *tensor.Tensor
			if i == 0 && f.B != nil {
				bias = f.B
			}
			bAttrs := &ir.ConvAttrs{InC: c, OutC: fa.OutC, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 1}
			bShape, err := ir.InferShape(ir.KindConv2D, bAttrs, [][]int{u.Shape})
			if err != nil {
				panic(fmt.Sprintf("core: concat split shape error: %v", err))
			}
			role := ir.RoleNone
			if fa.OutC < c {
				role = ir.RoleFConv
			}
			bc := &ir.Node{ID: g.NewID(), Name: fmt.Sprintf("%s.split%d", f.Name, i),
				Kind: ir.KindConv2D, Inputs: []*ir.Node{u}, Attrs: bAttrs, W: w, B: bias,
				Shape: bShape, Role: role}
			newNodes = append(newNodes, bc)
			if acc == nil {
				acc = bc
			} else {
				addShape := append([]int(nil), bShape...)
				an := &ir.Node{ID: g.NewID(), Name: fmt.Sprintf("%s.sadd%d", f.Name, i),
					Kind: ir.KindAdd, Inputs: []*ir.Node{acc, bc}, Shape: addShape}
				newNodes = append(newNodes, an)
				acc = an
			}
			chOff += c
		}
		g.InsertBefore(f, newNodes...)
		g.ReplaceAllUses(f, acc)
		count++
		uses = g.UseCounts()
		succs = g.Succs()
	}
	return count
}
