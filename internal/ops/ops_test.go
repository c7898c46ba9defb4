package ops

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"temco/internal/gemm"
	"temco/internal/ir"
	"temco/internal/tensor"
)

// refConv2D is a deliberately naive reference convolution used to validate
// the optimized kernel.
func refConv2D(in *tensor.Tensor, w, b *tensor.Tensor, a *ir.ConvAttrs) *tensor.Tensor {
	n, inH, inW := in.Dim(0), in.Dim(2), in.Dim(3)
	g := a.Groups
	if g == 0 {
		g = 1
	}
	icg, ocg := a.InC/g, a.OutC/g
	outH := (inH+2*a.PH-a.KH)/a.SH + 1
	outW := (inW+2*a.PW-a.KW)/a.SW + 1
	out := tensor.New(n, a.OutC, outH, outW)
	for bi := 0; bi < n; bi++ {
		for oc := 0; oc < a.OutC; oc++ {
			grp := oc / ocg
			for oh := 0; oh < outH; oh++ {
				for ow := 0; ow < outW; ow++ {
					acc := float32(0)
					if b != nil {
						acc = b.Data[oc]
					}
					for ic := 0; ic < icg; ic++ {
						for r := 0; r < a.KH; r++ {
							for q := 0; q < a.KW; q++ {
								ih := oh*a.SH - a.PH + r
								iw := ow*a.SW - a.PW + q
								if ih < 0 || ih >= inH || iw < 0 || iw >= inW {
									continue
								}
								acc += in.At(bi, grp*icg+ic, ih, iw) * w.At(oc, ic, r, q)
							}
						}
					}
					out.Set(acc, bi, oc, oh, ow)
				}
			}
		}
	}
	return out
}

func randT(r *tensor.RNG, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	t.FillNormal(r, 0, 1)
	return t
}

// convPlanned runs conv through the kernel PlanConv picks for the shape.
func convPlanned(out, in, w, b *tensor.Tensor, a *ir.ConvAttrs) {
	p := PlanConv(a, w, in.Dim(2), in.Dim(3), out.Dim(2), out.Dim(3))
	if err := ConvPlannedCtx(context.Background(), out, in, w, b, a, p); err != nil {
		panic(err)
	}
}

// convAs runs conv through kernel k whatever PlanConv would pick, so the
// GEMM kernels are exercised on shapes the dispatch sends elsewhere.
func convAs(k convKernel, out, in, w, b *tensor.Tensor, a *ir.ConvAttrs) {
	p := planConvAs(k, a, w, in.Dim(2), in.Dim(3), out.Dim(2), out.Dim(3))
	if err := ConvPlannedCtx(context.Background(), out, in, w, b, a, p); err != nil {
		panic(err)
	}
}

func fusedPlanned(out, in *tensor.Tensor, a *ir.FusedAttrs) {
	if err := FusedPlannedCtx(context.Background(), out, in, a, PlanFused(a)); err != nil {
		panic(err)
	}
}

func linearPlanned(out, in, w, b *tensor.Tensor, a *ir.LinearAttrs) {
	pw := gemm.PackBT(a.In, a.Out, w.Data, a.In)
	if err := LinearPrePackedCtx(context.Background(), out, in, pw, b, a); err != nil {
		panic(err)
	}
}

func TestConv2DMatchesReference(t *testing.T) {
	r := tensor.NewRNG(1)
	cases := []*ir.ConvAttrs{
		{InC: 3, OutC: 8, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, Groups: 1},
		{InC: 4, OutC: 6, KH: 5, KW: 5, SH: 2, SW: 2, PH: 2, PW: 2, Groups: 1},
		{InC: 4, OutC: 4, KH: 3, KW: 3, SH: 1, SW: 1, PH: 0, PW: 0, Groups: 4}, // depthwise
		{InC: 6, OutC: 8, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 2},
		{InC: 5, OutC: 7, KH: 3, KW: 1, SH: 1, SW: 1, PH: 1, PW: 0, Groups: 1}, // asymmetric (TT core)
	}
	for i, a := range cases {
		in := randT(r, 2, a.InC, 9, 9)
		w := randT(r, a.OutC, a.InC/maxInt(a.Groups, 1), a.KH, a.KW)
		b := randT(r, a.OutC)
		ref := refConv2D(in, w, b, a)
		out := tensor.New(ref.Shape...)
		Conv2D(out, in, w, b, a)
		if d := tensor.MaxAbsDiff(out, ref); d > 1e-4 {
			t.Errorf("case %d: conv deviates from reference by %v", i, d)
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestLinearKnown(t *testing.T) {
	in := tensor.FromSlice([]float32{1, 2, 3}, 1, 3)
	w := tensor.FromSlice([]float32{1, 0, 0, 0, 1, 1}, 2, 3)
	b := tensor.FromSlice([]float32{10, 20}, 2)
	out := tensor.New(1, 2)
	linearPlanned(out, in, w, b, &ir.LinearAttrs{In: 3, Out: 2})
	if out.Data[0] != 11 || out.Data[1] != 25 {
		t.Fatalf("Linear = %v", out.Data)
	}
}

func TestActivations(t *testing.T) {
	in := tensor.FromSlice([]float32{-2, 0, 3}, 3)
	out := tensor.New(3)
	ReLU(out, in)
	if out.Data[0] != 0 || out.Data[1] != 0 || out.Data[2] != 3 {
		t.Fatalf("ReLU = %v", out.Data)
	}
	Sigmoid(out, in)
	if math.Abs(float64(out.Data[1])-0.5) > 1e-6 {
		t.Fatalf("Sigmoid(0) = %v", out.Data[1])
	}
	SiLU(out, in)
	want := float32(3) * sigmoid32(3)
	if math.Abs(float64(out.Data[2]-want)) > 1e-6 {
		t.Fatalf("SiLU(3) = %v, want %v", out.Data[2], want)
	}
}

func TestBatchNorm(t *testing.T) {
	in := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 2, 1, 2) // 2 channels of 2 px
	scale := tensor.FromSlice([]float32{2, 10}, 2)
	shift := tensor.FromSlice([]float32{1, 0}, 2)
	out := tensor.New(1, 2, 1, 2)
	BatchNorm(out, in, scale, shift)
	want := []float32{3, 5, 30, 40}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("BatchNorm = %v, want %v", out.Data, want)
		}
	}
}

func TestMaxAvgPool(t *testing.T) {
	in := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	a := &ir.PoolAttrs{KH: 2, KW: 2, SH: 2, SW: 2}
	out := tensor.New(1, 1, 2, 2)
	MaxPool(out, in, a)
	if out.Data[0] != 6 || out.Data[1] != 8 || out.Data[2] != 14 || out.Data[3] != 16 {
		t.Fatalf("MaxPool = %v", out.Data)
	}
	AvgPool(out, in, a)
	if out.Data[0] != 3.5 || out.Data[3] != 13.5 {
		t.Fatalf("AvgPool = %v", out.Data)
	}
}

func TestOverlappingMaxPool(t *testing.T) {
	// AlexNet-style 3×3 stride-2 pooling.
	r := tensor.NewRNG(5)
	in := randT(r, 1, 2, 7, 7)
	a := &ir.PoolAttrs{KH: 3, KW: 3, SH: 2, SW: 2}
	out := tensor.New(1, 2, 3, 3)
	MaxPool(out, in, a)
	// Check one window by hand.
	var m float32 = float32(math.Inf(-1))
	for r0 := 0; r0 < 3; r0++ {
		for c0 := 0; c0 < 3; c0++ {
			if v := in.At(0, 1, 2+r0, 4+c0); v > m {
				m = v
			}
		}
	}
	if out.At(0, 1, 1, 2) != m {
		t.Fatalf("overlapping pool window wrong: %v vs %v", out.At(0, 1, 1, 2), m)
	}
}

func TestGlobalAvgPool(t *testing.T) {
	in := tensor.FromSlice([]float32{1, 3, 5, 7, 2, 2, 2, 2}, 1, 2, 2, 2)
	out := tensor.New(1, 2, 1, 1)
	GlobalAvgPool(out, in)
	if out.Data[0] != 4 || out.Data[1] != 2 {
		t.Fatalf("GlobalAvgPool = %v", out.Data)
	}
}

func TestUpsample(t *testing.T) {
	in := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	out := tensor.New(1, 1, 4, 4)
	Upsample(out, in, 2)
	want := []float32{1, 1, 2, 2, 1, 1, 2, 2, 3, 3, 4, 4, 3, 3, 4, 4}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("Upsample = %v", out.Data)
		}
	}
}

func TestConcat(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 1, 1, 2) // batch 2
	b := tensor.FromSlice([]float32{5, 6, 7, 8}, 2, 1, 1, 2)
	out := tensor.New(2, 2, 1, 2)
	Concat(out, []*tensor.Tensor{a, b})
	want := []float32{1, 2, 5, 6, 3, 4, 7, 8}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("Concat = %v, want %v", out.Data, want)
		}
	}
}

func TestSoftmax(t *testing.T) {
	in := tensor.FromSlice([]float32{1, 2, 3, 1000, 1000, 1000}, 2, 3)
	out := tensor.New(2, 3)
	Softmax(out, in)
	var s float32
	for _, v := range out.Data[:3] {
		s += v
	}
	if math.Abs(float64(s)-1) > 1e-5 {
		t.Fatalf("softmax row does not sum to 1: %v", s)
	}
	// Large inputs must not overflow (stability).
	for _, v := range out.Data[3:] {
		if math.IsNaN(float64(v)) || math.Abs(float64(v)-1.0/3) > 1e-5 {
			t.Fatalf("softmax unstable: %v", out.Data[3:])
		}
	}
	if out.Data[2] <= out.Data[1] || out.Data[1] <= out.Data[0] {
		t.Fatalf("softmax not monotone: %v", out.Data[:3])
	}
}

// fusedReference computes lconv→act→[pool]→fconv through the individual
// kernels, materializing the intermediates the fused kernel avoids.
func fusedReference(in *tensor.Tensor, a *ir.FusedAttrs) *tensor.Tensor {
	n, h, w := in.Dim(0), in.Dim(2), in.Dim(3)
	lattrs := &ir.ConvAttrs{InC: a.InC, OutC: a.MidC, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 1}
	mid := tensor.New(n, a.MidC, h, w)
	Conv2D(mid, in, a.LW, a.LB, lattrs)
	act := tensor.New(n, a.MidC, h, w)
	switch a.Act {
	case ir.KindReLU:
		ReLU(act, mid)
	case ir.KindSiLU:
		SiLU(act, mid)
	case ir.KindSigmoid:
		Sigmoid(act, mid)
	default:
		copy(act.Data, mid.Data)
	}
	post := act
	if a.Pool != nil {
		oh := (h+2*a.Pool.PH-a.Pool.KH)/a.Pool.SH + 1
		ow := (w+2*a.Pool.PW-a.Pool.KW)/a.Pool.SW + 1
		pooled := tensor.New(n, a.MidC, oh, ow)
		if a.PoolKind == ir.KindMaxPool {
			MaxPool(pooled, act, a.Pool)
		} else {
			AvgPool(pooled, act, a.Pool)
		}
		post = pooled
	}
	if a.FW == nil {
		// Tail fusion: the chain ends at the restored tensor.
		return post
	}
	fattrs := &ir.ConvAttrs{InC: a.MidC, OutC: a.OutC, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 1}
	out := tensor.New(n, a.OutC, post.Dim(2), post.Dim(3))
	Conv2D(out, post, a.FW, a.FB, fattrs)
	return out
}

func fusedCase(r *tensor.RNG, act ir.Kind, pool *ir.PoolAttrs, poolKind ir.Kind, inC, midC, outC int) *ir.FusedAttrs {
	a := &ir.FusedAttrs{
		InC: inC, MidC: midC, OutC: outC, Act: act, Pool: pool, PoolKind: poolKind,
		LW: randT(r, midC, inC, 1, 1), LB: randT(r, midC),
		FW: randT(r, outC, midC, 1, 1), FB: randT(r, outC),
	}
	return a
}

// TestFusedMatchesUnfused is the core fusion-correctness test (paper §3.2):
// the fused kernel must be numerically equivalent to running the three (or
// four) layers separately.
func TestFusedMatchesUnfused(t *testing.T) {
	r := tensor.NewRNG(7)
	cases := []struct {
		name     string
		act      ir.Kind
		pool     *ir.PoolAttrs
		poolKind ir.Kind
		h, w     int
	}{
		{"relu-nopool", ir.KindReLU, nil, 0, 11, 13},
		{"silu-nopool", ir.KindSiLU, nil, 0, 8, 8},
		{"sigmoid-nopool", ir.KindSigmoid, nil, 0, 5, 5},
		{"relu-maxpool2", ir.KindReLU, &ir.PoolAttrs{KH: 2, KW: 2, SH: 2, SW: 2}, ir.KindMaxPool, 16, 16},
		{"relu-maxpool2-odd", ir.KindReLU, &ir.PoolAttrs{KH: 2, KW: 2, SH: 2, SW: 2}, ir.KindMaxPool, 18, 14},
		{"relu-maxpool3s2", ir.KindReLU, &ir.PoolAttrs{KH: 3, KW: 3, SH: 2, SW: 2}, ir.KindMaxPool, 17, 17},
		{"relu-avgpool2", ir.KindReLU, &ir.PoolAttrs{KH: 2, KW: 2, SH: 2, SW: 2}, ir.KindAvgPool, 12, 12},
		{"silu-maxpool-pad", ir.KindSiLU, &ir.PoolAttrs{KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1}, ir.KindMaxPool, 15, 15},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := fusedCase(r, c.act, c.pool, c.poolKind, 6, 24, 5)
			in := randT(r, 2, a.InC, c.h, c.w)
			ref := fusedReference(in, a)
			out := tensor.New(ref.Shape...)
			fusedPlanned(out, in, a)
			if d := tensor.MaxAbsDiff(out, ref); d > 1e-3 {
				t.Fatalf("fused deviates from unfused by %v", d)
			}
		})
	}
}

func TestFusedWorkspaceIsSmall(t *testing.T) {
	a := fusedCase(tensor.NewRNG(3), ir.KindReLU,
		&ir.PoolAttrs{KH: 2, KW: 2, SH: 2, SW: 2}, ir.KindMaxPool, 8, 256, 8)
	ws := FusedWorkspaceBytes(a)
	// Full intermediates for a 64×64 map would be 256·64·64·4 ≈ 4.2 MB per
	// image; the workspace must be far below that and independent of H·W.
	full := int64(256 * 64 * 64 * 4)
	if ws >= full/4 {
		t.Fatalf("workspace %d bytes is not small vs full intermediate %d", ws, full)
	}
}

// Property: fused == unfused for random shapes/activations/pooling.
func TestQuickFusedEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		acts := []ir.Kind{ir.KindReLU, ir.KindSiLU, ir.KindSigmoid}
		act := acts[r.Intn(len(acts))]
		var pool *ir.PoolAttrs
		poolKind := ir.Kind(0)
		if r.Intn(2) == 0 {
			k := 2 + r.Intn(2)
			pool = &ir.PoolAttrs{KH: k, KW: k, SH: 2, SW: 2}
			if r.Intn(2) == 0 {
				poolKind = ir.KindMaxPool
			} else {
				poolKind = ir.KindAvgPool
			}
		}
		inC, midC, outC := 1+r.Intn(6), 4+r.Intn(24), 1+r.Intn(6)
		h, w := 4+r.Intn(16), 4+r.Intn(16)
		if pool != nil && (h < pool.KH || w < pool.KW) {
			h, w = h+pool.KH, w+pool.KW
		}
		a := fusedCase(r, act, pool, poolKind, inC, midC, outC)
		in := randT(r, 1+r.Intn(2), inC, h, w)
		ref := fusedReference(in, a)
		out := tensor.New(ref.Shape...)
		fusedPlanned(out, in, a)
		return tensor.MaxAbsDiff(out, ref) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Conv2D with a 1×1 identity kernel is the identity map.
func TestQuickConvIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		c := 1 + r.Intn(5)
		h, w := 2+r.Intn(6), 2+r.Intn(6)
		in := randT(r, 1, c, h, w)
		wt := tensor.New(c, c, 1, 1)
		for i := 0; i < c; i++ {
			wt.Set(1, i, i, 0, 0)
		}
		out := tensor.New(1, c, h, w)
		Conv2D(out, in, wt, nil, &ir.ConvAttrs{InC: c, OutC: c, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 1})
		return tensor.MaxAbsDiff(out, in) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: convolution is linear in its input.
func TestQuickConvLinearity(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		a := &ir.ConvAttrs{InC: 2, OutC: 3, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, Groups: 1}
		w := randT(r, 3, 2, 3, 3)
		x := randT(r, 1, 2, 6, 6)
		y := randT(r, 1, 2, 6, 6)
		xy := tensor.New(1, 2, 6, 6)
		tensor.AddInto(xy, x, y)
		ox, oy, oxy := tensor.New(1, 3, 6, 6), tensor.New(1, 3, 6, 6), tensor.New(1, 3, 6, 6)
		Conv2D(ox, x, w, nil, a)
		Conv2D(oy, y, w, nil, a)
		Conv2D(oxy, xy, w, nil, a)
		sum := tensor.New(1, 3, 6, 6)
		tensor.AddInto(sum, ox, oy)
		return tensor.MaxAbsDiff(oxy, sum) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelForCoversRange(t *testing.T) {
	seen := make([]int32, 1000)
	parallelFor(1000, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			seen[i]++
		}
	})
	for i, v := range seen {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
	parallelFor(0, func(lo, hi int) { t.Error("must not be called for n=0") })
}

// TestTailFusionMatchesUnfused checks the FW==nil tail-fusion path: the
// kernel must emit exactly the restored (activated, pooled) tensor.
func TestTailFusionMatchesUnfused(t *testing.T) {
	r := tensor.NewRNG(31)
	cases := []struct {
		name     string
		pool     *ir.PoolAttrs
		poolKind ir.Kind
	}{
		{"nopool", nil, 0},
		{"maxpool", &ir.PoolAttrs{KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1}, ir.KindMaxPool},
		{"avgpool", &ir.PoolAttrs{KH: 2, KW: 2, SH: 2, SW: 2}, ir.KindAvgPool},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := &ir.FusedAttrs{
				InC: 5, MidC: 24, OutC: 24, Act: ir.KindReLU,
				Pool: c.pool, PoolKind: c.poolKind,
				LW: randT(r, 24, 5, 1, 1), LB: randT(r, 24),
			}
			in := randT(r, 2, 5, 13, 13)
			ref := fusedReference(in, a)
			out := tensor.New(ref.Shape...)
			fusedPlanned(out, in, a)
			if d := tensor.MaxAbsDiff(out, ref); d > 1e-3 {
				t.Fatalf("tail fusion deviates by %v", d)
			}
		})
	}
}

// TestIm2colMatchesDirect: the GEMM lowering must agree with the direct
// kernel over strides, padding, and asymmetric kernels, and so must
// whichever kernel PlanConv picks.
func TestIm2colMatchesDirect(t *testing.T) {
	r := tensor.NewRNG(41)
	cases := []*ir.ConvAttrs{
		{InC: 3, OutC: 8, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, Groups: 1},
		{InC: 8, OutC: 4, KH: 5, KW: 5, SH: 2, SW: 2, PH: 2, PW: 2, Groups: 1},
		{InC: 6, OutC: 6, KH: 3, KW: 1, SH: 2, SW: 1, PH: 1, PW: 0, Groups: 1},
		{InC: 5, OutC: 7, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 1},
		{InC: 4, OutC: 4, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, Groups: 4}, // grouped → direct
	}
	for i, a := range cases {
		in := randT(r, 2, a.InC, 11, 9)
		w := randT(r, a.OutC, a.InC/maxInt(a.Groups, 1), a.KH, a.KW)
		b := randT(r, a.OutC)
		oh := (11+2*a.PH-a.KH)/a.SH + 1
		ow := (9+2*a.PW-a.KW)/a.SW + 1
		want := tensor.New(2, a.OutC, oh, ow)
		Conv2D(want, in, w, b, a)
		if a.Groups <= 1 {
			got := tensor.New(2, a.OutC, oh, ow)
			convAs(convIm2col, got, in, w, b, a)
			if d := tensor.MaxAbsDiff(got, want); d > 1e-4 {
				t.Errorf("case %d: im2col deviates by %v", i, d)
			}
		}
		planned := tensor.New(2, a.OutC, oh, ow)
		convPlanned(planned, in, w, b, a)
		if d := tensor.MaxAbsDiff(planned, want); d > 1e-4 {
			t.Errorf("case %d: PlanConv's kernel deviates by %v", i, d)
		}
	}
}

// Property: im2col == direct on random configurations.
func TestQuickIm2colEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		a := &ir.ConvAttrs{
			InC: 1 + r.Intn(6), OutC: 1 + r.Intn(6),
			KH: 1 + r.Intn(4), KW: 1 + r.Intn(4),
			SH: 1 + r.Intn(2), SW: 1 + r.Intn(2),
			Groups: 1,
		}
		a.PH, a.PW = r.Intn(a.KH), r.Intn(a.KW)
		h, w := a.KH+r.Intn(8), a.KW+r.Intn(8)
		in := randT(r, 1+r.Intn(2), a.InC, h, w)
		wt := randT(r, a.OutC, a.InC, a.KH, a.KW)
		oh := (h+2*a.PH-a.KH)/a.SH + 1
		ow := (w+2*a.PW-a.KW)/a.SW + 1
		want := tensor.New(in.Dim(0), a.OutC, oh, ow)
		Conv2D(want, in, wt, nil, a)
		got := tensor.New(in.Dim(0), a.OutC, oh, ow)
		convAs(convIm2col, got, in, wt, nil, a)
		return tensor.MaxAbsDiff(got, want) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
