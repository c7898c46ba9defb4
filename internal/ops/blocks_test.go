package ops

import (
	"fmt"
	"math"
	"testing"

	"temco/internal/ir"
	"temco/internal/tensor"
)

// Block-diagonal kernels: a conv or fused node whose weight stores only its
// diagonal blocks must compute exactly the bits of the same node with the
// dense, zero-filled weight. The off-diagonal zeros only ever add exact +0
// terms, and ΣInC stays inside one KC slice here, so every non-zero term
// is accumulated in the same order on both paths.

// testBlocks maps 11 input channels to 68 output channels; block sizes
// are deliberately not multiples of the 8×8 micro-tile.
var testBlocks = []ir.ConvBlock{{InC: 5, OutC: 24}, {InC: 2, OutC: 24}, {InC: 3, OutC: 13}, {InC: 1, OutC: 7}}

// blockWeight returns random diagonal blocks stored back to back and the
// dense [outC, inC, 1, 1] weight they stand for.
func blockWeight(r *tensor.RNG, blocks []ir.ConvBlock) (compact, dense *tensor.Tensor) {
	var inC, outC, n int
	for _, b := range blocks {
		inC += b.InC
		outC += b.OutC
		n += b.InC * b.OutC
	}
	compact = randT(r, n)
	dense = tensor.New(outC, inC, 1, 1)
	inOff, outOff, wOff := 0, 0, 0
	for _, b := range blocks {
		for o := 0; o < b.OutC; o++ {
			copy(dense.Data[(outOff+o)*inC+inOff:][:b.InC], compact.Data[wOff+o*b.InC:][:b.InC])
		}
		inOff += b.InC
		outOff += b.OutC
		wOff += b.OutC * b.InC
	}
	return compact, dense
}

func requireSameBits(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: differs at %d: %v != %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

// TestBlockConvMatchesDense: PlanConv sends a block conv to the pointwise
// kernel over channel sub-ranges, bit-identical to the dense pointwise GEMM.
func TestBlockConvMatchesDense(t *testing.T) {
	old := Workers
	defer SetWorkers(old)
	r := tensor.NewRNG(21)
	compact, dense := blockWeight(r, testBlocks)
	bias := randT(r, 68)
	blockA := &ir.ConvAttrs{InC: 11, OutC: 68, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 1, Blocks: testBlocks}
	denseA := &ir.ConvAttrs{InC: 11, OutC: 68, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 1}
	// 2×3 is below the dense pointwise threshold: a block conv must still
	// take the pointwise kernel.
	for _, hw := range [][2]int{{13, 11}, {8, 8}, {2, 3}} {
		for _, batch := range []int{1, 4} {
			in := randT(r, batch, 11, hw[0], hw[1])
			for _, b := range []*tensor.Tensor{bias, nil} {
				for _, workers := range []int{1, 4} {
					SetWorkers(workers)
					label := fmt.Sprintf("%dx%d/b=%d/bias=%v/workers=%d", hw[0], hw[1], batch, b != nil, workers)
					p := PlanConv(blockA, compact, hw[0], hw[1], hw[0], hw[1])
					if p.kernel != convPointwise {
						t.Fatalf("%s: PlanConv chose kernel %d for a block conv, want pointwise", label, p.kernel)
					}
					got := tensor.New(batch, 68, hw[0], hw[1])
					convPlanned(got, in, compact, b, blockA)
					want := tensor.New(batch, 68, hw[0], hw[1])
					convAs(convPointwise, want, in, dense, b, denseA)
					requireSameBits(t, label, got, want)
				}
			}
		}
	}
}

// TestBlockFusedMatchesDense: PlanFused packs one panel per lconv block and
// the fused kernel runs one GEMM per block, bit-identical to the dense
// lconv across pool / no-pool / tail fusion, padded pools (border tiles
// with invalid positions), ragged tiles, batch 1/4 and workers 1/4.
func TestBlockFusedMatchesDense(t *testing.T) {
	old := Workers
	defer SetWorkers(old)
	r := tensor.NewRNG(22)
	compact, dense := blockWeight(r, testBlocks)
	lb := randT(r, 68)
	fw := randT(r, 6, 68, 1, 1)
	fb := randT(r, 6)
	pools := []struct {
		name string
		kind ir.Kind
		p    *ir.PoolAttrs
	}{
		{"nopool", 0, nil},
		{"max2x2", ir.KindMaxPool, &ir.PoolAttrs{KH: 2, KW: 2, SH: 2, SW: 2}},
		{"max3x3pad", ir.KindMaxPool, &ir.PoolAttrs{KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1}},
		{"avg3x3pad", ir.KindAvgPool, &ir.PoolAttrs{KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1}},
	}
	for _, pl := range pools {
		for _, tail := range []bool{false, true} {
			for _, act := range []ir.Kind{ir.KindReLU, ir.KindSiLU} {
				mk := func(lw *tensor.Tensor, blocks []ir.ConvBlock) *ir.FusedAttrs {
					a := &ir.FusedAttrs{InC: 11, MidC: 68, OutC: 6, Act: act, Pool: pl.p, PoolKind: pl.kind,
						LW: lw, LB: lb, FW: fw, FB: fb, LBlocks: blocks}
					if tail {
						a.OutC, a.FW, a.FB = 68, nil, nil
					}
					return a
				}
				blockA, denseA := mk(compact, testBlocks), mk(dense, nil)
				shape, err := ir.InferShape(ir.KindFused, denseA, [][]int{{11, 19, 13}})
				if err != nil {
					t.Fatal(err)
				}
				for _, batch := range []int{1, 4} {
					// 19×13 leaves ragged edge tiles in both directions.
					in := randT(r, batch, 11, 19, 13)
					for _, workers := range []int{1, 4} {
						SetWorkers(workers)
						label := fmt.Sprintf("%s/tail=%v/%v/b=%d/workers=%d", pl.name, tail, act, batch, workers)
						got := tensor.New(append([]int{batch}, shape...)...)
						fusedPlanned(got, in, blockA)
						want := tensor.New(append([]int{batch}, shape...)...)
						fusedPlanned(want, in, denseA)
						requireSameBits(t, label, got, want)
					}
				}
			}
		}
	}
}

// TestBlockPlansPackLess: packing only the diagonal blocks shrinks the
// resident panels below the dense weight's.
func TestBlockPlansPackLess(t *testing.T) {
	r := tensor.NewRNG(23)
	compact, dense := blockWeight(r, testBlocks)
	blockA := &ir.FusedAttrs{InC: 11, MidC: 68, OutC: 68, Act: ir.KindReLU, LW: compact, LBlocks: testBlocks}
	denseA := &ir.FusedAttrs{InC: 11, MidC: 68, OutC: 68, Act: ir.KindReLU, LW: dense}
	if b, d := PlanFused(blockA).PackedBytes(), PlanFused(denseA).PackedBytes(); b >= d {
		t.Errorf("block fused plan packs %d bytes, dense %d", b, d)
	}
}

// TestFusedTileMatchesPointwiseChain: the fused kernel's GEMMs read their
// B operand in place from tile scratch whose row stride exceeds the
// product width (a ragged pooled tile has fCols = tileH·T < fld = T²) and
// store into C rows of the same stride, while its block lconv reads and
// writes channel sub-ranges. Per output element that is the same FMA
// chain and write-back as the unfused chain — pointwise block conv over
// the whole plane, activation, pool, pointwise fconv — so the two must
// agree bit for bit, serial and parallel.
func TestFusedTileMatchesPointwiseChain(t *testing.T) {
	old := Workers
	defer SetWorkers(old)
	r := tensor.NewRNG(24)
	compact, _ := blockWeight(r, testBlocks)
	lb := randT(r, 68)
	fw := randT(r, 6, 68, 1, 1)
	fb := randT(r, 6)
	lattrs := &ir.ConvAttrs{InC: 11, OutC: 68, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 1, Blocks: testBlocks}
	fattrs := &ir.ConvAttrs{InC: 68, OutC: 6, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 1}
	pools := []struct {
		name string
		p    *ir.PoolAttrs
	}{
		{"max2x2", &ir.PoolAttrs{KH: 2, KW: 2, SH: 2, SW: 2}},
		{"max3x3pad", &ir.PoolAttrs{KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1}},
	}
	for _, pl := range pools {
		for _, act := range []ir.Kind{ir.KindReLU, ir.KindSiLU} {
			a := &ir.FusedAttrs{InC: 11, MidC: 68, OutC: 6, Act: act, Pool: pl.p, PoolKind: ir.KindMaxPool,
				LW: compact, LB: lb, FW: fw, FB: fb, LBlocks: testBlocks}
			// 19×13 pools to 9×6 (max2x2) or 10×7 (max3x3pad): the last
			// tile row is ragged, so its pooled tile has fCols < fld.
			in := randT(r, 2, 11, 19, 13)
			for _, workers := range []int{1, 4} {
				SetWorkers(workers)
				label := fmt.Sprintf("%s/%v/workers=%d", pl.name, act, workers)
				mid := tensor.New(2, 68, 19, 13)
				convAs(convPointwise, mid, in, compact, lb, lattrs)
				acted := tensor.New(mid.Shape...)
				if act == ir.KindReLU {
					ReLU(acted, mid)
				} else {
					SiLU(acted, mid)
				}
				oh := (19+2*pl.p.PH-pl.p.KH)/pl.p.SH + 1
				ow := (13+2*pl.p.PW-pl.p.KW)/pl.p.SW + 1
				if oh%FusedTile == 0 {
					t.Fatalf("%s: pooled height %d leaves no ragged tile", label, oh)
				}
				pooled := tensor.New(2, 68, oh, ow)
				MaxPool(pooled, acted, pl.p)
				want := tensor.New(2, 6, oh, ow)
				convAs(convPointwise, want, pooled, fw, fb, fattrs)
				got := tensor.New(2, 6, oh, ow)
				fusedPlanned(got, in, a)
				requireSameBits(t, label, got, want)
			}
		}
	}
}
