package ops

import (
	"context"
	"testing"

	"temco/internal/gemm"
	"temco/internal/ir"
	"temco/internal/tensor"
)

// TestKernelsDeterministicAcrossWorkers pins the determinism contract of the
// GEMM-backed kernels: because the backbone splits work along NR-aligned
// column strips, serial and parallel runs accumulate every output element in
// the same order and must agree bit for bit, for any worker count.
func TestKernelsDeterministicAcrossWorkers(t *testing.T) {
	r := tensor.NewRNG(11)
	ca := &ir.ConvAttrs{InC: 5, OutC: 7, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, Groups: 1}
	in := randT(r, 3, 5, 13, 13)
	cw := randT(r, 7, 5, 3, 3)
	cb := randT(r, 7)
	pa := &ir.ConvAttrs{InC: 6, OutC: 9, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 1}
	pin := randT(r, 3, 6, 13, 13)
	pw := randT(r, 9, 6, 1, 1)
	la := &ir.LinearAttrs{In: 33, Out: 17}
	lin := randT(r, 5, 33)
	lw := randT(r, 17, 33)
	lb := randT(r, 17)
	fa := &ir.FusedAttrs{InC: 5, MidC: 24, OutC: 5, Act: ir.KindReLU,
		PoolKind: ir.KindMaxPool,
		Pool:     &ir.PoolAttrs{KH: 2, KW: 2, SH: 2, SW: 2},
		LW:       randT(r, 24, 5, 1, 1), LB: randT(r, 24),
		FW: randT(r, 5, 24, 1, 1), FB: randT(r, 5)}

	type result struct{ conv, pw1, lout, fout *tensor.Tensor }
	runAll := func() result {
		res := result{
			conv: tensor.New(3, 7, 13, 13),
			pw1:  tensor.New(3, 9, 13, 13),
			lout: tensor.New(5, 17),
			fout: tensor.New(3, 5, 6, 6),
		}
		convAs(convIm2col, res.conv, in, cw, cb, ca)
		convAs(convPointwise, res.pw1, pin, pw, nil, pa)
		linearPlanned(res.lout, lin, lw, lb, la)
		fusedPlanned(res.fout, in, fa)
		return res
	}

	old := Workers
	defer SetWorkers(old)
	SetWorkers(1)
	ref := runAll()
	for _, w := range []int{2, 3, 8} {
		SetWorkers(w)
		got := runAll()
		if d := tensor.MaxAbsDiff(ref.conv, got.conv); d != 0 {
			t.Errorf("workers=%d: im2col conv differs from serial by %v", w, d)
		}
		if d := tensor.MaxAbsDiff(ref.pw1, got.pw1); d != 0 {
			t.Errorf("workers=%d: 1x1 conv differs from serial by %v", w, d)
		}
		if d := tensor.MaxAbsDiff(ref.lout, got.lout); d != 0 {
			t.Errorf("workers=%d: linear differs from serial by %v", w, d)
		}
		if d := tensor.MaxAbsDiff(ref.fout, got.fout); d != 0 {
			t.Errorf("workers=%d: fused differs from serial by %v", w, d)
		}
	}
}

// TestConv2D1x1MatchesDirect validates the pointwise GEMM kernel against
// the direct kernel, with and without bias, including multi-batch inputs
// and shapes PlanConv would send to the direct loop.
func TestConv2D1x1MatchesDirect(t *testing.T) {
	r := tensor.NewRNG(12)
	for _, tc := range []struct {
		n, inC, outC, h, w int
		bias               bool
	}{
		{1, 3, 8, 7, 7, true},
		{4, 16, 4, 9, 11, false},
		{2, 1, 1, 5, 5, true},
		{3, 32, 48, 8, 8, true},
	} {
		a := &ir.ConvAttrs{InC: tc.inC, OutC: tc.outC, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 1}
		in := randT(r, tc.n, tc.inC, tc.h, tc.w)
		w := randT(r, tc.outC, tc.inC, 1, 1)
		var b *tensor.Tensor
		if tc.bias {
			b = randT(r, tc.outC)
		}
		want := tensor.New(tc.n, tc.outC, tc.h, tc.w)
		Conv2D(want, in, w, b, a)
		got := tensor.New(tc.n, tc.outC, tc.h, tc.w)
		convAs(convPointwise, got, in, w, b, a)
		if d := tensor.MaxAbsDiff(want, got); d > 1e-4 {
			t.Errorf("%+v: 1x1 fast path differs from direct by %v", tc, d)
		}
	}
}

// TestPlanConvDispatch checks that PlanConv picks the intended kernel on
// shapes that exercise each branch, and that every route computes the same
// values as the reference convolution.
func TestPlanConvDispatch(t *testing.T) {
	r := tensor.NewRNG(13)
	for _, tc := range []struct {
		name    string
		a       *ir.ConvAttrs
		n, h, w int
		kernel  convKernel
	}{
		{"pointwise-large", &ir.ConvAttrs{InC: 16, OutC: 8, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 1}, 2, 14, 14, convPointwise},
		{"pointwise-tiny", &ir.ConvAttrs{InC: 2, OutC: 3, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 1}, 1, 3, 3, convDirect},
		{"spatial-im2col", &ir.ConvAttrs{InC: 8, OutC: 8, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, Groups: 1}, 2, 12, 12, convIm2col},
		{"spatial-small", &ir.ConvAttrs{InC: 2, OutC: 4, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, Groups: 1}, 1, 5, 5, convIm2col},
		{"grouped", &ir.ConvAttrs{InC: 4, OutC: 4, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, Groups: 2}, 2, 10, 10, convDirect},
		{"strided-1x1", &ir.ConvAttrs{InC: 8, OutC: 8, KH: 1, KW: 1, SH: 2, SW: 2, Groups: 1}, 1, 14, 14, convIm2col},
	} {
		icg := tc.a.InC
		if g := tc.a.Groups; g > 1 {
			icg = tc.a.InC / g
		}
		in := randT(r, tc.n, tc.a.InC, tc.h, tc.w)
		w := randT(r, tc.a.OutC, icg, tc.a.KH, tc.a.KW)
		b := randT(r, tc.a.OutC)
		outH := (tc.h+2*tc.a.PH-tc.a.KH)/tc.a.SH + 1
		outW := (tc.w+2*tc.a.PW-tc.a.KW)/tc.a.SW + 1
		want := refConv2D(in, w, b, tc.a)
		if k := PlanConv(tc.a, w, tc.h, tc.w, outH, outW).kernel; k != tc.kernel {
			t.Errorf("%s: PlanConv chose kernel %d, want %d", tc.name, k, tc.kernel)
		}
		got := tensor.New(tc.n, tc.a.OutC, outH, outW)
		convPlanned(got, in, w, b, tc.a)
		if d := tensor.MaxAbsDiff(want, got); d > 1e-4 {
			t.Errorf("%s: planned conv differs from reference by %v", tc.name, d)
		}
	}
}

// TestFusedWorkspaceMatchesScratch pins FusedWorkspaceBytes to the buffers
// the kernel actually borrows from the arena (satellite: the planner must
// charge what the kernel uses, not a stale formula).
func TestFusedWorkspaceMatchesScratch(t *testing.T) {
	r := tensor.NewRNG(14)
	cases := []*ir.FusedAttrs{
		// Pool + fconv: all four buffers live.
		{InC: 4, MidC: 32, OutC: 6, Act: ir.KindReLU, PoolKind: ir.KindMaxPool,
			Pool: &ir.PoolAttrs{KH: 2, KW: 2, SH: 2, SW: 2},
			LW:   randT(r, 32, 4, 1, 1), FW: randT(r, 6, 32, 1, 1)},
		// No pool: pooled buffer must not be charged.
		{InC: 4, MidC: 32, OutC: 6, Act: ir.KindReLU,
			LW: randT(r, 32, 4, 1, 1), FW: randT(r, 6, 32, 1, 1)},
		// Tail fusion (no fconv): ftile must not be charged.
		{InC: 4, MidC: 32, OutC: 32, Act: ir.KindReLU,
			LW: randT(r, 32, 4, 1, 1)},
	}
	for i, a := range cases {
		xbuf, mid, pooled, ftile := fusedScratchLens(a)
		want := int64(xbuf+mid+pooled+ftile) * 4 * int64(Workers)
		if got := FusedWorkspaceBytes(a); got != want {
			t.Errorf("case %d: FusedWorkspaceBytes = %d, scratch lens imply %d", i, got, want)
		}
		if a.Pool == nil && pooled != 0 {
			t.Errorf("case %d: pooled scratch charged without a pool layer", i)
		}
		if a.FW == nil && ftile != 0 {
			t.Errorf("case %d: ftile scratch charged without an fconv", i)
		}
	}
}

// TestKernelsZeroAllocSteadyState verifies that after a warm-up call the
// planned GEMM-backed kernels run entirely out of the pooled workspace
// arena. Planning and packing happen once, outside the timed calls.
func TestKernelsZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	old := Workers
	defer SetWorkers(old)
	SetWorkers(1)

	r := tensor.NewRNG(15)
	ca := &ir.ConvAttrs{InC: 8, OutC: 8, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, Groups: 1}
	cin := randT(r, 1, 8, 16, 16)
	cw := randT(r, 8, 8, 3, 3)
	cb := randT(r, 8)
	cout := tensor.New(1, 8, 16, 16)
	fa := &ir.FusedAttrs{InC: 4, MidC: 16, OutC: 4, Act: ir.KindReLU,
		PoolKind: ir.KindMaxPool,
		Pool:     &ir.PoolAttrs{KH: 2, KW: 2, SH: 2, SW: 2},
		LW:       randT(r, 16, 4, 1, 1), FW: randT(r, 4, 16, 1, 1)}
	fin := randT(r, 1, 4, 16, 16)
	fout := tensor.New(1, 4, 8, 8)
	la := &ir.LinearAttrs{In: 64, Out: 32}
	lin := randT(r, 4, 64)
	lw := randT(r, 32, 64)
	lout := tensor.New(4, 32)

	cp := PlanConv(ca, cw, 16, 16, 16, 16)
	if cp.kernel != convIm2col {
		t.Fatalf("PlanConv chose kernel %d, want im2col", cp.kernel)
	}
	fp := PlanFused(fa)
	lp := gemm.PackBT(la.In, la.Out, lw.Data, la.In)
	bw, _ := blockWeight(r, testBlocks)
	fba := &ir.FusedAttrs{InC: 11, MidC: 68, OutC: 4, Act: ir.KindReLU,
		LW: bw, LB: randT(r, 68), FW: randT(r, 4, 68, 1, 1), FB: randT(r, 4), LBlocks: testBlocks}
	fbp := PlanFused(fba)
	fbin := randT(r, 1, 11, 16, 16)
	fbout := tensor.New(1, 4, 16, 16)
	ctx := context.Background()
	for name, fn := range map[string]func(){
		"im2col":       func() { _ = ConvPlannedCtx(ctx, cout, cin, cw, cb, ca, cp) },
		"fused":        func() { _ = FusedPlannedCtx(ctx, fout, fin, fa, fp) },
		"fused-blocks": func() { _ = FusedPlannedCtx(ctx, fbout, fbin, fba, fbp) },
		"linear":       func() { _ = LinearPrePackedCtx(ctx, lout, lin, lp, nil, la) },
	} {
		fn() // warm the workspace pools
		if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op in steady state, want 0", name, allocs)
		}
	}
}
