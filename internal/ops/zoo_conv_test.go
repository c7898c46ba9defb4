package ops_test

import (
	"fmt"
	"math"
	"testing"

	"temco/internal/core"
	"temco/internal/decompose"
	"temco/internal/experiments"
	"temco/internal/ir"
	"temco/internal/models"
	"temco/internal/ops"
	"temco/internal/tensor"
)

// zooConvTol bounds a planned conv's difference from the direct loop,
// relative to the output's largest magnitude. A GEMM kernel sums in
// another order than the direct loop and fuses each multiply-add, so the
// bits differ; whole models differ by at most about 1.2e-6 of their
// largest output.
const zooConvTol = 1e-5

// TestPlannedConvsMatchDirectOnZoo runs every Conv2D shape of the
// ten-model zoo, decomposed and optimized, at 32×32 and 64×64, through the
// kernel PlanConv picks and through the direct reference ops.Conv2D, at
// batch 1 and 4, with the node's own weights and a uniform input. The
// largest difference must stay within zooConvTol of the output's largest
// magnitude, whichever kernel the plan chose. A block-diagonal conv's
// reference is the same conv with its blocks laid out as a dense weight.
// Each model is decomposed once, at 32×32: the weights do not depend on
// the resolution, so the 64×64 graph's convs are the same nodes with
// their planes re-inferred from a 64×64 input.
func TestPlannedConvsMatchDirectOnZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("decomposes the ten-model zoo and runs every conv on the direct loop")
	}
	seen := map[string]bool{}
	for _, name := range models.Names() {
		spec, err := models.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := models.DefaultConfig()
		cfg.H, cfg.W = 32, 32
		dg, err := experiments.BuildVariant(spec, experiments.Decomposed, cfg, decompose.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ocfg := core.FusionOnly()
		if spec.HasSkips {
			ocfg = core.DefaultConfig()
		}
		og, _ := core.Optimize(dg, ocfg)
		for _, g := range []*ir.Graph{dg, og} {
			for _, res := range []int{32, 64} {
				for nd, in := range convInputs(g, res) {
					a := nd.Attrs.(*ir.ConvAttrs)
					key := fmt.Sprintf("%+v in=%v", *a, in)
					if !seen[key] {
						seen[key] = true
						checkZooConv(t, name+"/"+key, nd, a, in)
					}
				}
			}
		}
	}
	t.Logf("%d distinct conv shapes", len(seen))
}

// convInputs maps each Conv2D node of g to its [C,H,W] input shape when
// the graph's input plane is res×res. Shapes are re-inferred in schedule
// order; a node whose shape cannot be inferred at res (a classifier sized
// for another plane) and everything after it is left out.
func convInputs(g *ir.Graph, res int) map[*ir.Node][]int {
	shapes := map[*ir.Node][]int{}
	convs := map[*ir.Node][]int{}
	for _, nd := range g.Nodes {
		if nd.Kind == ir.KindInput {
			shapes[nd] = []int{nd.Shape[0], res, res}
			continue
		}
		ins := make([][]int, len(nd.Inputs))
		for i, in := range nd.Inputs {
			if ins[i] = shapes[in]; ins[i] == nil {
				return convs
			}
		}
		sh, err := ir.InferShape(nd.Kind, nd.Attrs, ins)
		if err != nil {
			return convs
		}
		shapes[nd] = sh
		if nd.Kind == ir.KindConv2D {
			convs[nd] = ins[0]
		}
	}
	return convs
}

// checkZooConv compares the planned conv with the direct loop at batch 4
// and at batch 1, whose reference is the first sample of batch 4's: the
// direct loop's per-sample sums do not depend on the batch.
func checkZooConv(t *testing.T, label string, nd *ir.Node, a *ir.ConvAttrs, in []int) {
	t.Helper()
	x := tensor.New(4, in[0], in[1], in[2])
	x.FillUniform(tensor.NewRNG(uint64(len(label))), -1, 1)
	w, ra := nd.W, a
	if a.Blocks != nil {
		w, ra = denseBlocks(a, nd.W), &ir.ConvAttrs{InC: a.InC, OutC: a.OutC, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 1}
	}
	sh, err := ir.InferShape(ir.KindConv2D, a, [][]int{in})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := tensor.New(4, sh[0], sh[1], sh[2])
	ops.Conv2D(want, x, w, nd.B, ra)
	p := ops.PlanConv(a, nd.W, in[1], in[2], sh[1], sh[2])
	for _, batch := range []int{1, 4} {
		xb := &tensor.Tensor{Shape: []int{batch, in[0], in[1], in[2]}, Data: x.Data[:batch*len(x.Data)/4]}
		wb := &tensor.Tensor{Shape: []int{batch, sh[0], sh[1], sh[2]}, Data: want.Data[:batch*len(want.Data)/4]}
		got := tensor.New(batch, sh[0], sh[1], sh[2])
		if err := ops.ConvPlannedCtx(t.Context(), got, xb, nd.W, nd.B, a, p); err != nil {
			t.Fatalf("%s b=%d: %v", label, batch, err)
		}
		var peak float64
		for _, v := range wb.Data {
			peak = math.Max(peak, math.Abs(float64(v)))
		}
		if d := tensor.MaxAbsDiff(wb, got); d > zooConvTol*peak {
			t.Errorf("%s b=%d: max |diff| %.3g exceeds %.0e × max |out| %.3g", label, batch, d, zooConvTol, peak)
		}
	}
}

// denseBlocks lays a block-diagonal 1×1 conv's weight, whose blocks are
// stored back to back, out as the dense [OutC, InC, 1, 1] weight.
func denseBlocks(a *ir.ConvAttrs, w *tensor.Tensor) *tensor.Tensor {
	d := tensor.New(a.OutC, a.InC, 1, 1)
	inOff, outOff, wOff := 0, 0, 0
	for _, b := range a.Blocks {
		for o := 0; o < b.OutC; o++ {
			copy(d.Data[(outOff+o)*a.InC+inOff:][:b.InC], w.Data[wOff+o*b.InC:][:b.InC])
		}
		inOff += b.InC
		outOff += b.OutC
		wOff += b.OutC * b.InC
	}
	return d
}
