package ops

import (
	"fmt"
	"testing"

	"temco/internal/gemm"
	"temco/internal/ir"
	"temco/internal/tensor"
)

// TestFusedMatchesChainBitExact: the fused kernel computes exactly the bits
// of the unfused chain lconv → act → [pool] → fconv run as separate
// kernels (pointwise GEMM, standalone activation, standalone pool). It
// covers the paths the kernel distinguishes: ReLU applied in the lconv
// GEMM's store, SiLU and Sigmoid in their own pass, padded pools whose
// border tiles overwrite padding with -Inf (max) or 0 (avg), the vector
// max-pool row on ragged tiles, and tail fusion, at batch 1 and 4, workers
// 1 and 4, with SIMD on and off. 19×13 inputs leave ragged tiles in both
// directions.
func TestFusedMatchesChainBitExact(t *testing.T) {
	oldW := Workers
	defer SetWorkers(oldW)
	oldSIMD := gemm.SIMD()
	defer gemm.SetSIMD(oldSIMD)
	const inC, midC, outC, h, w = 7, 20, 6, 19, 13
	r := tensor.NewRNG(33)
	lw, lb := randT(r, midC, inC, 1, 1), randT(r, midC)
	fw, fb := randT(r, outC, midC, 1, 1), randT(r, outC)
	inputs := map[int]*tensor.Tensor{1: randT(r, 1, inC, h, w), 4: randT(r, 4, inC, h, w)}
	cases := []struct {
		name     string
		act      ir.Kind
		pool     *ir.PoolAttrs
		poolKind ir.Kind
		tail     bool
	}{
		{"relu-max3x3s2-pad", ir.KindReLU, &ir.PoolAttrs{KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1}, ir.KindMaxPool, false},
		{"silu-max3x3s2-pad", ir.KindSiLU, &ir.PoolAttrs{KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1}, ir.KindMaxPool, false},
		{"relu-max3x3s2", ir.KindReLU, &ir.PoolAttrs{KH: 3, KW: 3, SH: 2, SW: 2}, ir.KindMaxPool, false},
		{"relu-max2x2s2", ir.KindReLU, &ir.PoolAttrs{KH: 2, KW: 2, SH: 2, SW: 2}, ir.KindMaxPool, false},
		{"sigmoid-max3x2s1", ir.KindSigmoid, &ir.PoolAttrs{KH: 3, KW: 2, SH: 1, SW: 1}, ir.KindMaxPool, false},
		{"relu-avg2x2s2", ir.KindReLU, &ir.PoolAttrs{KH: 2, KW: 2, SH: 2, SW: 2}, ir.KindAvgPool, false},
		{"sigmoid-avg3x3s2-pad", ir.KindSigmoid, &ir.PoolAttrs{KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1}, ir.KindAvgPool, false},
		{"silu-nopool", ir.KindSiLU, nil, 0, false},
		{"relu-nopool", ir.KindReLU, nil, 0, false},
		{"relu-max3x3s2-pad-tail", ir.KindReLU, &ir.PoolAttrs{KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1}, ir.KindMaxPool, true},
	}
	lattrs := &ir.ConvAttrs{InC: inC, OutC: midC, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 1}
	fattrs := &ir.ConvAttrs{InC: midC, OutC: outC, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 1}
	for _, simd := range []bool{true, false} {
		gemm.SetSIMD(simd)
		for _, c := range cases {
			a := &ir.FusedAttrs{InC: inC, MidC: midC, OutC: outC, Act: c.act, Pool: c.pool, PoolKind: c.poolKind,
				LW: lw, LB: lb, FW: fw, FB: fb}
			if c.tail {
				a.OutC, a.FW, a.FB = midC, nil, nil
			}
			for _, batch := range []int{1, 4} {
				in := inputs[batch]
				for _, workers := range []int{1, 4} {
					SetWorkers(workers)
					label := fmt.Sprintf("simd=%v/%s/b=%d/workers=%d", simd, c.name, batch, workers)
					want := fusedChain(in, a, lattrs, fattrs)
					got := tensor.New(want.Shape...)
					fusedPlanned(got, in, a)
					requireSameBits(t, label, got, want)
				}
			}
		}
	}
}

// fusedChain runs the fused node's layers one kernel at a time,
// materializing every intermediate.
func fusedChain(in *tensor.Tensor, a *ir.FusedAttrs, lattrs, fattrs *ir.ConvAttrs) *tensor.Tensor {
	n, h, w := in.Dim(0), in.Dim(2), in.Dim(3)
	mid := tensor.New(n, a.MidC, h, w)
	convAs(convPointwise, mid, in, a.LW, a.LB, lattrs)
	acted := tensor.New(mid.Shape...)
	switch a.Act {
	case ir.KindReLU:
		ReLU(acted, mid)
	case ir.KindSiLU:
		SiLU(acted, mid)
	case ir.KindSigmoid:
		Sigmoid(acted, mid)
	}
	post := acted
	if p := a.Pool; p != nil {
		post = tensor.New(n, a.MidC, (h+2*p.PH-p.KH)/p.SH+1, (w+2*p.PW-p.KW)/p.SW+1)
		if a.PoolKind == ir.KindMaxPool {
			MaxPool(post, acted, p)
		} else {
			AvgPool(post, acted, p)
		}
	}
	if a.FW == nil {
		return post
	}
	out := tensor.New(n, a.OutC, post.Dim(2), post.Dim(3))
	convAs(convPointwise, out, post, a.FW, a.FB, fattrs)
	return out
}
