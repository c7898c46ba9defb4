package gemm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// packedRef is the product the way every tile ran before the tile kernel
// read B in place and stored into C itself: each B panel packed (stride
// NR, zero-padded), each tile accumulated into a stack array and folded
// into C by writeBack, with the same KC slicing and write-back modes as
// gemmStrip. Per-element arithmetic does not depend on the column
// blocking, so one serial pass over NR panels is the whole reference.
func packedRef(m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, bias, c []float32, ldc int) {
	mr, nr := tileDims[float32]()
	ap := make([]float32, roundUp(m, mr)*k)
	packA(ap, a, lda, m, k, mr, false)
	panel := make([]float32, kc*nr)
	for pc := 0; pc < k; pc += kc {
		kcEff := min(kc, k-pc)
		mode := wbAccumulate
		switch {
		case pc > 0:
		case bias != nil:
			mode = wbBias
		case beta == 0:
			mode = wbOverwrite
		default:
			mode = wbBeta
		}
		for j0 := 0; j0 < n; j0 += nr {
			nrEff := min(nr, n-j0)
			packB(panel[:kcEff*nr], b, ldb, pc, kcEff, j0, nrEff, nr, false)
			for ir := 0; ir < m; ir += mr {
				aPanel := ap[(ir/mr)*mr*k+pc*mr:][:kcEff*mr]
				var acc [maxTile * maxTile]float32
				if mr == 8 {
					tileKernel(kcEff, aPanel, panel, nr, acc[:], nr, nr, wbOverwrite, 1, 0, nil, false)
				} else {
					microKernel(kcEff, aPanel, panel, &acc)
				}
				writeBack(mode, c, ldc, ir, j0, min(mr, m-ir), nrEff, nr, alpha, beta, bias, false, &acc)
			}
		}
	}
}

// guardedC lays an m×n C out with row stride ldc inside a buffer with pad
// guard cells before, after, and between its rows. Every cell, guard or
// not, starts with a reproducible value, so beta and accumulate modes read
// a defined C and an out-of-tile store shows as a changed guard.
func guardedC(r *rand.Rand, m, ldc, pad int) []float32 {
	buf := make([]float32, pad+max(m-1, 0)*ldc+ldc+pad)
	for i := range buf {
		buf[i] = float32(r.NormFloat64())
	}
	return buf
}

// tileProducts are the write-back modes the tile tests run: overwrite,
// bias, beta, alpha ≠ 1, and alpha with beta. k past the KC boundary adds
// accumulation to each.
var tileProducts = []struct {
	name        string
	alpha, beta float32
	bias        bool
}{
	{"overwrite", 1, 0, false},
	{"bias", 1, 0, true},
	{"beta", 1, 0.5, false},
	{"alpha", -0.75, 0, false},
	{"alpha-beta", 1.5, -1, false},
}

// TestTileKernelBitIdentical: the tile kernel reading B in place and
// storing its rows straight into C produces exactly the bits of the
// packed-B, Go write-back product, in every write-back mode (overwrite,
// bias, beta, alpha ≠ 1, accumulation across the KC boundary), on ragged
// row and column edges, with ldb > n and ldc > n, for serial and parallel
// strips and with SIMD on and off. Guard cells around C must stay intact.
func TestTileKernelBitIdentical(t *testing.T) {
	origW := Workers()
	defer SetWorkers(origW)
	origSIMD := SIMD()
	defer SetSIMD(origSIMD)
	const pad = 9
	r := rand.New(rand.NewSource(31))
	for _, simd := range []bool{true, false} {
		SetSIMD(simd)
		for _, workers := range []int{1, 4} {
			SetWorkers(workers)
			for _, k := range []int{1, 2, 255, 256, 257, 300} {
				for _, m := range []int{1, 7, 8, 9, 12, 16} {
					for _, n := range []int{16, 17, 23, 1031} {
						if n > 64 && (k > 2 || m > 9) {
							continue // one NC-crossing width is enough
						}
						for _, ld := range []struct{ b, c int }{{n, n}, {n + 5, n + 3}} {
							a, _ := randSlice(r, m*k)
							b, _ := randSlice(r, (k-1)*ld.b+n)
							bias, _ := randSlice(r, m)
							for _, p := range tileProducts {
								label := fmt.Sprintf("simd=%v/workers=%d/%s/m=%d/n=%d/k=%d/ldb=%d/ldc=%d",
									simd, workers, p.name, m, n, k, ld.b, ld.c)
								seed := r.Int63()
								want := guardedC(rand.New(rand.NewSource(seed)), m, ld.c, pad)
								got := guardedC(rand.New(rand.NewSource(seed)), m, ld.c, pad)
								var rb []float32
								if p.bias {
									rb = bias
								}
								packedRef(m, n, k, p.alpha, a, k, b, ld.b, p.beta, rb, want[pad:], ld.c)
								if p.bias {
									GemmPackedABias(n, PackA(m, k, a, k), b, ld.b, bias, got[pad:], ld.c, false)
								} else {
									Gemm(m, n, k, p.alpha, a, k, b, ld.b, p.beta, got[pad:], ld.c)
								}
								for i := range want {
									if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
										t.Fatalf("%s: cell %d (C offset %d): got %v, want %v",
											label, i, i-pad, got[i], want[i])
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestReLUEpilogueBitIdentical: a product with ReLU applied in the tile
// epilogue (and in writeBack for partial-width tiles) is bit-identical to
// the same product written back plainly and then clamped by ReLU, in every
// write-back mode of the final KC slice (overwrite, bias, beta, and
// accumulate once k crosses the KC boundary), with alpha ≠ 1, on partial
// rows and partial-width tiles, serial and parallel, SIMD on and off.
// Zero and NaN rows of A put -0 (alpha < 0 times +0) and NaN into C, which
// the clamp must keep. Guard cells around C must stay intact.
func TestReLUEpilogueBitIdentical(t *testing.T) {
	origW := Workers()
	defer SetWorkers(origW)
	origSIMD := SIMD()
	defer SetSIMD(origSIMD)
	const pad = 9
	r := rand.New(rand.NewSource(37))
	for _, simd := range []bool{true, false} {
		SetSIMD(simd)
		mr, nr := tileDims[float32]()
		for _, workers := range []int{1, 4} {
			SetWorkers(workers)
			for _, k := range []int{1, 2, 255, 256, 257, 300} {
				for _, m := range []int{1, 7, 9, 16} {
					for _, n := range []int{16, 17, 23, 70} {
						ldb, ldc := n+3, n+5
						a, _ := randSlice(r, m*k)
						for p := 0; p < k; p++ {
							a[p] = 0 // row 0: C = alpha·0 (+ bias)
						}
						if m > 1 {
							a[k+r.Intn(k)] = float32(math.NaN())
						}
						b, _ := randSlice(r, (k-1)*ldb+n)
						bias, _ := randSlice(r, m)
						ap := make([]float32, roundUp(m, mr)*k)
						packA(ap, a, k, m, k, mr, false)
						for _, p := range tileProducts {
							label := fmt.Sprintf("simd=%v/workers=%d/%s/m=%d/n=%d/k=%d", simd, workers, p.name, m, n, k)
							var rb []float32
							if p.bias {
								rb = bias
							}
							seed := r.Int63()
							want := guardedC(rand.New(rand.NewSource(seed)), m, ldc, pad)
							got := guardedC(rand.New(rand.NewSource(seed)), m, ldc, pad)
							packedRef(m, n, k, p.alpha, a, k, b, ldb, p.beta, rb, want[pad:], ldc)
							for i := 0; i < m; i++ {
								ReLU(want[pad+i*ldc : pad+i*ldc+n])
							}
							gemmCore(true, false, m, n, k, mr, nr, p.alpha, ap, b, ldb, nil, p.beta, rb, true, got[pad:], ldc)
							for i := range want {
								if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
									t.Fatalf("%s: cell %d (C offset %d): got %v (%#x), want %v (%#x)",
										label, i, i-pad, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
								}
							}
							if p.bias {
								// The public entry point takes the same path.
								pub := guardedC(rand.New(rand.NewSource(seed)), m, ldc, pad)
								GemmPackedABias(n, PackA(m, k, a, k), b, ldb, bias, pub[pad:], ldc, true)
								for i := range want {
									if math.Float32bits(pub[i]) != math.Float32bits(want[i]) {
										t.Fatalf("%s: GemmPackedABias cell %d: got %v, want %v", label, i, pub[i], want[i])
									}
								}
							}
						}
					}
				}
			}
		}
	}
}
