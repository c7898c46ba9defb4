package ir

import (
	"fmt"

	"temco/internal/tensor"
)

// ConvAttrs parameterizes a 2-D convolution. Weights are [OutC, InC/Groups,
// KH, KW] in the node's W field; bias [OutC] in B (nil means no bias).
//
// Blocks, when non-nil, makes a 1×1 stride-1 unpadded ungrouped conv
// block-diagonal: block i maps the next InC_i input channels to the next
// OutC_i output channels and every other weight is zero. W then stores
// only the diagonal blocks back to back, block i as [OutC_i × InC_i]. The
// merged lconv of paper Fig. 9a is the one producer. nil means one dense
// block.
type ConvAttrs struct {
	InC, OutC int
	KH, KW    int
	SH, SW    int
	PH, PW    int
	Groups    int
	Blocks    []ConvBlock `json:",omitempty"`
}

// ConvBlock is one diagonal block of a block-diagonal 1×1 channel mix.
type ConvBlock struct {
	InC, OutC int
}

// ChannelBlocks returns the diagonal blocks of an inC→outC channel mix:
// blocks itself, or one dense block when blocks is nil.
func ChannelBlocks(blocks []ConvBlock, inC, outC int) []ConvBlock {
	if blocks == nil {
		return []ConvBlock{{InC: inC, OutC: outC}}
	}
	return blocks
}

// blockMACs is the multiply-accumulate count of one output pixel of an
// inC→outC channel mix with the given diagonal blocks (nil = dense).
func blockMACs(blocks []ConvBlock, inC, outC int) int64 {
	var m int64
	for _, b := range ChannelBlocks(blocks, inC, outC) {
		m += int64(b.InC) * int64(b.OutC)
	}
	return m
}

// checkBlocks validates a block list against the channel counts it splits
// and returns the weight length it implies. Every block must be non-empty
// and the blocks must tile inC and outC exactly; the running sums are
// bounded by the totals, so untrusted lists cannot overflow them.
func checkBlocks(blocks []ConvBlock, inC, outC int) (int, error) {
	if len(blocks) == 0 {
		return 0, fmt.Errorf("empty block list")
	}
	var sumIn, sumOut, weights int
	for i, b := range blocks {
		if b.InC < 1 || b.OutC < 1 {
			return 0, fmt.Errorf("block %d is %d→%d channels, both must be positive", i, b.InC, b.OutC)
		}
		if b.InC > inC-sumIn || b.OutC > outC-sumOut {
			return 0, fmt.Errorf("blocks exceed %d→%d channels at block %d", inC, outC, i)
		}
		sumIn += b.InC
		sumOut += b.OutC
		weights += b.InC * b.OutC
	}
	if sumIn != inC || sumOut != outC {
		return 0, fmt.Errorf("blocks cover %d→%d channels, attrs say %d→%d", sumIn, sumOut, inC, outC)
	}
	return weights, nil
}

// PoolAttrs parameterizes max/avg pooling.
type PoolAttrs struct {
	KH, KW int
	SH, SW int
	PH, PW int
}

// LinearAttrs parameterizes a fully connected layer. Weights are
// [Out, In]; bias [Out].
type LinearAttrs struct {
	In, Out int
}

// UpsampleAttrs parameterizes nearest-neighbour upsampling.
type UpsampleAttrs struct {
	Scale int
}

// BatchNormAttrs parameterizes inference batch normalization. The node's
// W holds the folded per-channel scale γ/√(σ²+ε) and B the folded shift
// β−μ·scale, so execution is a single fused multiply-add per element.
type BatchNormAttrs struct {
	C int
}

// FusedAttrs parameterizes a TeMCO-fused lconv→act→[pool]→fconv kernel
// (paper §3.2). LW/LB are the lconv (restoring 1×1) weights, FW/FB the
// fconv (reducing 1×1) weights. Pool is nil when no pooling layer is fused.
// The kernel computes, per output tile, the C'-channel restored values in
// scratch buffers only.
//
// FW == nil selects *tail fusion*: the chain ends without an fconv and the
// kernel emits the restored (activated, pooled) tensor itself — OutC must
// equal MidC. This removes the lconv-output/activation-input double
// buffering at consumers that are not 1×1 convolutions (e.g. the add
// layers of residual blocks), the "restorations ... hidden in the fused
// layers" of paper §2.3.
type FusedAttrs struct {
	InC  int // channels of the reduced input tensor
	MidC int // C': channels of the (never materialized) restored tensor
	OutC int // channels of the reduced output tensor
	Act  Kind
	Pool *PoolAttrs
	// PoolKind distinguishes max from average pooling when Pool != nil.
	PoolKind Kind
	LW       *tensor.Tensor // [MidC, InC, 1, 1], or LBlocks back to back
	LB       *tensor.Tensor // [MidC] or nil
	FW       *tensor.Tensor // [OutC, MidC, 1, 1]
	FB       *tensor.Tensor // [OutC] or nil
	// LBlocks is the lconv's diagonal block list (ConvAttrs.Blocks of a
	// merged lconv); nil means one dense block.
	LBlocks []ConvBlock
}

// Node is one SSA value in the layer graph: an operator application whose
// single output tensor is identified with the node itself.
type Node struct {
	ID     int
	Name   string
	Kind   Kind
	Inputs []*Node
	Attrs  any
	// W and B hold the node's parameters (weight tensors in the paper's
	// terminology); they count toward weight memory, not internal-tensor
	// memory.
	W, B *tensor.Tensor
	// Shape is the inferred output shape excluding the batch dimension:
	// [C,H,W] for feature maps, [F] after flatten.
	Shape []int
	// Role records decomposition provenance (reporting only).
	Role Role
}

// NumElems returns the element count of the node's output for batch size 1.
func (n *Node) NumElems() int64 {
	e := int64(1)
	for _, d := range n.Shape {
		e *= int64(d)
	}
	return e
}

// OutBytes returns the output tensor size in bytes for the given batch.
func (n *Node) OutBytes(batch int) int64 {
	return n.NumElems() * 4 * int64(batch)
}

// WeightBytes returns the parameter footprint of the node in bytes,
// including fused-kernel weights.
func (n *Node) WeightBytes() int64 {
	var b int64
	if n.W != nil {
		b += n.W.Bytes()
	}
	if n.B != nil {
		b += n.B.Bytes()
	}
	if fa, ok := n.Attrs.(*FusedAttrs); ok {
		for _, t := range []*tensor.Tensor{fa.LW, fa.LB, fa.FW, fa.FB} {
			if t != nil {
				b += t.Bytes()
			}
		}
	}
	return b
}

// Conv returns the node's ConvAttrs and panics if it is not a conv node.
func (n *Node) Conv() *ConvAttrs {
	a, ok := n.Attrs.(*ConvAttrs)
	if !ok {
		panic(fmt.Sprintf("ir: node %s (%s) is not a conv", n.Name, n.Kind))
	}
	return a
}

// Pool returns the node's PoolAttrs and panics if it is not a pool node.
func (n *Node) Pool() *PoolAttrs {
	a, ok := n.Attrs.(*PoolAttrs)
	if !ok {
		panic(fmt.Sprintf("ir: node %s (%s) is not a pool", n.Name, n.Kind))
	}
	return a
}

// Fused returns the node's FusedAttrs and panics if it is not a fused node.
func (n *Node) Fused() *FusedAttrs {
	a, ok := n.Attrs.(*FusedAttrs)
	if !ok {
		panic(fmt.Sprintf("ir: node %s (%s) is not fused", n.Name, n.Kind))
	}
	return a
}

// IsLConv implements the paper's Alg. 2 IsLConv test: a 1×1, stride-1,
// ungrouped convolution whose output channel count exceeds its input
// channel count — i.e. the restoring factor convolution of a decomposed
// sequence.
func (n *Node) IsLConv() bool {
	if n.Kind != KindConv2D {
		return false
	}
	a := n.Conv()
	return a.KH == 1 && a.KW == 1 && a.SH == 1 && a.SW == 1 &&
		a.PH == 0 && a.PW == 0 && a.Groups == 1 && a.OutC > a.InC
}

// IsFConv is the dual structural test: a 1×1, stride-1, ungrouped
// convolution that reduces the channel count — the leading factor
// convolution of a decomposed sequence. A block-diagonal conv never
// qualifies: the passes that rewrite fconvs read their weights densely.
func (n *Node) IsFConv() bool {
	if n.Kind != KindConv2D {
		return false
	}
	a := n.Conv()
	return a.KH == 1 && a.KW == 1 && a.SH == 1 && a.SW == 1 &&
		a.PH == 0 && a.PW == 0 && a.Groups == 1 && a.OutC < a.InC && a.Blocks == nil
}

// String renders a compact description for debugging.
func (n *Node) String() string {
	return fmt.Sprintf("%%%d:%s(%s)%v", n.ID, n.Name, n.Kind, n.Shape)
}
