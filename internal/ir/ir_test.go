package ir

import (
	"strings"
	"testing"
	"testing/quick"

	"temco/internal/tensor"
)

func smallGraph(t *testing.T) (*Builder, *Node, *Node) {
	t.Helper()
	b := NewBuilder("small", 1)
	in := b.Input(3, 8, 8)
	c1 := b.Conv(in, 16, 3, 1, 1)
	r1 := b.ReLU(c1)
	p1 := b.MaxPool(r1, 2, 2)
	c2 := b.Conv(p1, 32, 3, 1, 1)
	r2 := b.ReLU(c2)
	f := b.Flatten(r2)
	fc := b.Linear(f, 10)
	out := b.Output(b.Softmax(fc))
	if err := b.G.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return b, in, out
}

func TestShapeInferenceConvChain(t *testing.T) {
	b, _, out := smallGraph(t)
	c1 := b.G.NodeByName("conv1")
	if c1 == nil || !shapeEq(c1.Shape, []int{16, 8, 8}) {
		t.Fatalf("conv1 shape = %v", c1.Shape)
	}
	p1 := b.G.NodeByName("maxpool1")
	if !shapeEq(p1.Shape, []int{16, 4, 4}) {
		t.Fatalf("maxpool shape = %v", p1.Shape)
	}
	if !shapeEq(out.Shape, []int{10}) {
		t.Fatalf("output shape = %v", out.Shape)
	}
}

func TestConvOutputFormula(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{8, 3, 1, 1, 8},
		{8, 3, 2, 1, 4},
		{7, 3, 2, 1, 4},
		{8, 1, 1, 0, 8},
		{224, 11, 4, 2, 55}, // AlexNet's first conv
	}
	for _, c := range cases {
		if got := convOut(c.in, c.k, c.s, c.p); got != c.want {
			t.Errorf("convOut(%d,%d,%d,%d) = %d, want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
}

func TestShapeErrors(t *testing.T) {
	cases := []struct {
		kind  Kind
		attrs any
		ins   [][]int
	}{
		{KindConv2D, &ConvAttrs{InC: 4, OutC: 8, KH: 3, KW: 3, SH: 1, SW: 1}, [][]int{{3, 8, 8}}},            // channel mismatch
		{KindConv2D, &ConvAttrs{InC: 3, OutC: 8, KH: 9, KW: 9, SH: 1, SW: 1}, [][]int{{3, 4, 4}}},            // empty output
		{KindConv2D, &ConvAttrs{InC: 3, OutC: 8, KH: 3, KW: 3, SH: 1, SW: 1, Groups: 2}, [][]int{{3, 8, 8}}}, // bad groups
		{KindAdd, nil, [][]int{{3, 8, 8}, {4, 8, 8}}},
		{KindConcat, nil, [][]int{{3, 8, 8}, {3, 4, 4}}},
		{KindConcat, nil, [][]int{{3, 8, 8}}},
		{KindLinear, &LinearAttrs{In: 10, Out: 2}, [][]int{{12}}},
		{KindLinear, &LinearAttrs{In: 10, Out: 2}, [][]int{{3, 2, 2}}},
		{KindBatchNorm, &BatchNormAttrs{C: 5}, [][]int{{3, 8, 8}}},
		{KindUpsample, &UpsampleAttrs{Scale: 0}, [][]int{{3, 8, 8}}},
	}
	for i, c := range cases {
		if _, err := InferShape(c.kind, c.attrs, c.ins); err == nil {
			t.Errorf("case %d (%v): expected error", i, c.kind)
		}
	}
}

func TestValidateCatchesForwardRef(t *testing.T) {
	b := NewBuilder("bad", 1)
	in := b.Input(3, 4, 4)
	c := b.Conv(in, 4, 3, 1, 1)
	// Swap schedule order by hand: conv before input.
	b.G.Nodes[0], b.G.Nodes[1] = b.G.Nodes[1], b.G.Nodes[0]
	b.G.MarkOutput(c)
	if err := b.G.Validate(); err == nil {
		t.Fatal("expected validation error for forward reference")
	}
}

func TestValidateCatchesStaleShape(t *testing.T) {
	b := NewBuilder("bad2", 1)
	in := b.Input(3, 4, 4)
	c := b.Conv(in, 4, 3, 1, 1)
	b.G.MarkOutput(c)
	c.Shape = []int{99, 4, 4}
	if err := b.G.Validate(); err == nil {
		t.Fatal("expected validation error for stale shape")
	}
}

func TestSuccsAndUseCounts(t *testing.T) {
	b := NewBuilder("uses", 1)
	in := b.Input(4, 4, 4)
	r := b.ReLU(in)
	a := b.Add(r, in) // in used twice
	b.Output(a)
	succs := b.G.Succs()
	if len(succs[in]) != 2 {
		t.Fatalf("input successors = %d, want 2", len(succs[in]))
	}
	uses := b.G.UseCounts()
	if uses[in] != 2 || uses[r] != 1 || uses[a] != 1 {
		t.Fatalf("use counts: in=%d r=%d a=%d", uses[in], uses[r], uses[a])
	}
}

func TestIsLConvFConv(t *testing.T) {
	b := NewBuilder("lconv", 1)
	in := b.Input(8, 4, 4)
	up := b.ConvNamed("up", in, 32, 1, 1, 1, 1, 0, 0, 1)    // 8→32: lconv
	down := b.ConvNamed("down", up, 8, 1, 1, 1, 1, 0, 0, 1) // 32→8: fconv
	k3 := b.Conv(down, 32, 3, 1, 1)                         // 3×3: neither
	b.Output(k3)
	if !up.IsLConv() || up.IsFConv() {
		t.Error("up should be lconv only")
	}
	if !down.IsFConv() || down.IsLConv() {
		t.Error("down should be fconv only")
	}
	if k3.IsLConv() || k3.IsFConv() {
		t.Error("3×3 conv should be neither")
	}
}

func TestInsertBeforeAndReplaceUses(t *testing.T) {
	b := NewBuilder("ins", 1)
	in := b.Input(4, 4, 4)
	r1 := b.ReLU(in)
	out := b.Output(b.ReLU(r1))
	// Insert a sigmoid between r1 and out by hand.
	sg := &Node{ID: b.G.NewID(), Name: "mid", Kind: KindSigmoid, Inputs: []*Node{r1}, Shape: append([]int(nil), r1.Shape...)}
	b.G.InsertBefore(out, sg)
	ReplaceUsesIn(out, r1, sg)
	if err := b.G.Validate(); err != nil {
		t.Fatalf("Validate after insert: %v", err)
	}
	if out.Inputs[0] != sg {
		t.Fatal("ReplaceUsesIn did not rewrite the edge")
	}
}

func TestDeadCodeElim(t *testing.T) {
	b := NewBuilder("dce", 1)
	in := b.Input(4, 4, 4)
	live := b.ReLU(in)
	dead1 := b.Sigmoid(in)
	_ = b.ReLU(dead1) // dead chain
	b.Output(live)
	removed := b.G.DeadCodeElim()
	if removed != 2 {
		t.Fatalf("removed %d nodes, want 2", removed)
	}
	if err := b.G.Validate(); err != nil {
		t.Fatalf("Validate after DCE: %v", err)
	}
	if len(b.G.Nodes) != 2 {
		t.Fatalf("nodes left = %d, want 2", len(b.G.Nodes))
	}
}

func TestDCEKeepsInputs(t *testing.T) {
	b := NewBuilder("dce2", 1)
	in := b.Input(4, 4, 4)
	in2 := b.G.Input("unused", 4, 4, 4)
	b.Output(b.ReLU(in))
	b.G.DeadCodeElim()
	found := false
	for _, n := range b.G.Nodes {
		if n == in2 {
			found = true
		}
	}
	if !found {
		t.Fatal("DCE must retain graph inputs")
	}
}

func TestCloneIsDeepForStructure(t *testing.T) {
	b, _, _ := smallGraph(t)
	c := b.G.Clone()
	if err := c.Validate(); err != nil {
		t.Fatalf("clone Validate: %v", err)
	}
	// Mutating clone edges must not affect the original.
	c.Nodes[2].Inputs[0] = c.Nodes[0]
	if b.G.Nodes[2].Inputs[0] == b.G.Nodes[0] {
		t.Fatal("clone shares input slices with original")
	}
	// Weights are intentionally shared.
	if c.Nodes[1].W != b.G.Nodes[1].W {
		t.Fatal("clone should share weight tensors")
	}
	// Attrs must be fresh pointers.
	if c.Nodes[1].Attrs == b.G.Nodes[1].Attrs {
		t.Fatal("clone should deep-copy attrs")
	}
}

func TestWeightBytes(t *testing.T) {
	b := NewBuilder("wb", 1)
	in := b.Input(3, 8, 8)
	c := b.Conv(in, 16, 3, 1, 1)
	b.Output(c)
	// W: 16·3·3·3 = 432 floats; B: 16 floats → (432+16)·4 bytes.
	want := int64((432 + 16) * 4)
	if got := c.WeightBytes(); got != want {
		t.Fatalf("WeightBytes = %d, want %d", got, want)
	}
	if got := b.G.WeightBytes(); got != want {
		t.Fatalf("Graph WeightBytes = %d, want %d", got, want)
	}
}

func TestFLOPsConv(t *testing.T) {
	b := NewBuilder("flops", 1)
	in := b.Input(3, 8, 8)
	c := b.Conv(in, 16, 3, 1, 1)
	b.Output(c)
	// 16·8·8 outputs × 3·3·3 MACs × 2.
	want := int64(16*8*8) * 27 * 2
	if got := FLOPs(c); got != want {
		t.Fatalf("conv FLOPs = %d, want %d", got, want)
	}
}

func TestFLOPsFusedMatchesUnfused(t *testing.T) {
	// A fused lconv-relu-fconv must cost the same FLOPs as its parts.
	b := NewBuilder("ff", 1)
	in := b.Input(8, 6, 6)
	l := b.ConvNamed("l", in, 64, 1, 1, 1, 1, 0, 0, 1)
	r := b.ReLU(l)
	f := b.ConvNamed("f", r, 8, 1, 1, 1, 1, 0, 0, 1)
	b.Output(f)
	unfused := FLOPs(l) + FLOPs(r) + FLOPs(f)

	b2 := NewBuilder("ff2", 2)
	in2 := b2.Input(8, 6, 6)
	fa := &FusedAttrs{InC: 8, MidC: 64, OutC: 8, Act: KindReLU,
		LW: tensor.New(64, 8, 1, 1), LB: tensor.New(64),
		FW: tensor.New(8, 64, 1, 1), FB: tensor.New(8)}
	fn := b2.G.Apply(KindFused, "fused", fa, in2)
	b2.Output(fn)
	if got := FLOPs(fn); got != unfused {
		t.Fatalf("fused FLOPs = %d, want %d", got, unfused)
	}
}

// TestConvBlocksValidate: a block list must tile the channels exactly,
// match the weight length, and sit on a 1×1 stride-1 unpadded ungrouped
// conv.
func TestConvBlocksValidate(t *testing.T) {
	check := func(a *ConvAttrs, wLen int) error {
		g := NewGraph("blocks")
		in := g.Input("x", a.InC, 4, 4)
		shape, err := InferShape(KindConv2D, a, [][]int{in.Shape})
		if err != nil {
			return err
		}
		n := &Node{ID: g.NewID(), Name: "c", Kind: KindConv2D, Inputs: []*Node{in}, Attrs: a, W: tensor.New(wLen), Shape: shape}
		g.Nodes = append(g.Nodes, n)
		g.MarkOutput(n)
		return g.Validate()
	}
	ok := []ConvBlock{{1, 2}, {3, 4}}
	pw := func(blocks []ConvBlock) *ConvAttrs {
		return &ConvAttrs{InC: 4, OutC: 6, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 1, Blocks: blocks}
	}
	if err := check(pw(ok), 14); err != nil {
		t.Fatalf("valid block conv rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		a *ConvAttrs
		w int
	}{
		"sums":       {pw([]ConvBlock{{1, 2}, {2, 4}}), 10},
		"zero":       {pw([]ConvBlock{{0, 2}, {4, 4}}), 16},
		"negative":   {pw([]ConvBlock{{-1, 2}, {5, 4}}), 18},
		"overflow":   {pw([]ConvBlock{{1 << 62, 2}, {4, 4}}), 16},
		"empty":      {pw([]ConvBlock{}), 24},
		"weight len": {pw(ok), 24},
		"3x3":        {&ConvAttrs{InC: 4, OutC: 6, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, Groups: 1, Blocks: ok}, 14},
		"strided":    {&ConvAttrs{InC: 4, OutC: 6, KH: 1, KW: 1, SH: 2, SW: 2, Groups: 1, Blocks: ok}, 14},
		"grouped":    {&ConvAttrs{InC: 4, OutC: 6, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 2, Blocks: []ConvBlock{{2, 3}, {2, 3}}}, 12},
	} {
		if err := check(tc.a, tc.w); err == nil {
			t.Errorf("%s: malformed block conv accepted", name)
		}
	}
}

// TestFLOPsCountsOnlyDiagonalBlocks: a block conv and a fused node with an
// lconv block list cost Σ InC_i·OutC_i MACs per pixel, not InC·OutC; and
// CloneAttrs copies the list.
func TestFLOPsCountsOnlyDiagonalBlocks(t *testing.T) {
	blocks := []ConvBlock{{1, 2}, {3, 4}} // 14 MACs per pixel, 24 dense
	g := NewGraph("bf")
	in := g.Input("x", 4, 5, 5)
	c := g.Apply(KindConv2D, "c", &ConvAttrs{InC: 4, OutC: 6, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 1, Blocks: blocks}, in)
	if got, want := FLOPs(c), int64(5*5*14*2); got != want {
		t.Errorf("block conv FLOPs = %d, want %d", got, want)
	}
	f := g.Apply(KindFused, "f", &FusedAttrs{InC: 4, MidC: 6, OutC: 6, Act: KindReLU, LW: tensor.New(14), LBlocks: blocks}, in)
	// lconv and activation; tail fusion, no pool.
	if got, want := FLOPs(f), int64(5*5*14*2+6*5*5); got != want {
		t.Errorf("block fused FLOPs = %d, want %d", got, want)
	}
	cl := CloneAttrs(c.Attrs).(*ConvAttrs)
	cl.Blocks[0].InC = 9
	if c.Conv().Blocks[0].InC != 1 {
		t.Error("CloneAttrs shares the block list")
	}
}

func TestDOTRender(t *testing.T) {
	b, _, _ := smallGraph(t)
	d := b.G.DOT()
	if !strings.Contains(d, "digraph") || !strings.Contains(d, "conv2d") {
		t.Fatalf("DOT output missing expected content:\n%s", d)
	}
}

func TestKindStrings(t *testing.T) {
	if KindConv2D.String() != "conv2d" || KindFused.String() != "fused" {
		t.Fatal("kind names wrong")
	}
	if Kind(999).String() != "unknown" {
		t.Fatal("unknown kind should stringify safely")
	}
	if RoleLConv.String() != "lconv" || RoleNone.String() != "none" {
		t.Fatal("role names wrong")
	}
}

func TestActivationPredicates(t *testing.T) {
	if !KindReLU.IsActivation() || !KindSiLU.IsActivation() || !KindSigmoid.IsActivation() {
		t.Fatal("activations misclassified")
	}
	if KindMaxPool.IsActivation() || KindConv2D.IsActivation() {
		t.Fatal("non-activations misclassified")
	}
	if !KindBatchNorm.IsElementwise() || !KindAdd.IsElementwise() {
		t.Fatal("elementwise misclassified")
	}
}

// Property: Validate accepts every graph the builder can construct from a
// random chain of shape-preserving ops.
func TestQuickBuilderChainsValidate(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		b := NewBuilder("q", seed)
		n := b.Input(1+r.Intn(8), 4+r.Intn(8), 4+r.Intn(8))
		for i := 0; i < 2+r.Intn(6); i++ {
			switch r.Intn(4) {
			case 0:
				n = b.ReLU(n)
			case 1:
				n = b.SiLU(n)
			case 2:
				n = b.BatchNorm(n)
			case 3:
				n = b.Conv(n, 1+r.Intn(8), 3, 1, 1)
			}
		}
		b.Output(n)
		return b.G.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: DCE never removes nodes reachable from outputs, and the result
// still validates.
func TestQuickDCESound(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		b := NewBuilder("qd", seed)
		in := b.Input(4, 4, 4)
		nodes := []*Node{in}
		for i := 0; i < 3+r.Intn(8); i++ {
			src := nodes[r.Intn(len(nodes))]
			nodes = append(nodes, b.ReLU(src))
		}
		out := nodes[len(nodes)-1]
		b.Output(out)
		before := len(b.G.Nodes)
		removed := b.G.DeadCodeElim()
		if len(b.G.Nodes)+removed != before {
			return false
		}
		if b.G.Validate() != nil {
			return false
		}
		// Output must still be present.
		for _, n := range b.G.Nodes {
			if n == out {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
