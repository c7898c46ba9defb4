package gemm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// specialSlice is n normal values salted with the inputs whose rounding a
// kernel must reproduce bit for bit: -0, two NaN payloads of either sign,
// ±Inf, and magnitudes whose products underflow to a subnormal or to a
// signed zero (a negative product that underflows leaves -0 in C).
func specialSlice(r *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		switch r.Intn(48) {
		case 0:
			s[i] = float32(math.Copysign(0, -1))
		case 1:
			s[i] = math.Float32frombits(0x7fc00001)
		case 2:
			s[i] = math.Float32frombits(0xffc00002)
		case 3:
			s[i] = float32(math.Inf(1))
		case 4:
			s[i] = float32(math.Inf(-1))
		case 5, 6:
			s[i] = 3e-20
		case 7, 8:
			s[i] = -2e-23
		default:
			s[i] = float32(r.NormFloat64())
		}
	}
	return s
}

// TestSmallKBitIdentical: a plain product with k <= smallK, which the
// AVX2 path writes with one smallKKernel call per column strip instead of
// one tile call per 8×8 tile, produces exactly the bits of the tile path
// (gemmStrip) on the same operands: bias nil and set, ReLU on and off,
// -0, NaN, ±Inf and underflowing products, rows on and off the 8-row
// panel boundary, widths with and without ragged columns, ldb > n and
// ldc > n, serial and parallel strips, SIMD on and off. Guard cells around
// C must stay intact.
func TestSmallKBitIdentical(t *testing.T) {
	origW := Workers()
	defer SetWorkers(origW)
	origSIMD := SIMD()
	defer SetSIMD(origSIMD)
	const pad = 9
	r := rand.New(rand.NewSource(43))
	for _, simd := range []bool{true, false} {
		SetSIMD(simd)
		mr, nr := tileDims[float32]()
		for _, workers := range []int{1, 4} {
			SetWorkers(workers)
			for k := 1; k <= smallK; k++ {
				for _, m := range []int{1, 7, 8, 9, 17, 24} {
					for _, n := range []int{8, 64, 100, 289, 1024} {
						for _, ld := range []struct{ b, c int }{{n, n}, {n + 5, n + 3}} {
							a := specialSlice(r, m*k)
							b := specialSlice(r, (k-1)*ld.b+n)
							bias := specialSlice(r, m)
							pa := PackA(m, k, a, k)
							for _, withBias := range []bool{false, true} {
								for _, relu := range []bool{false, true} {
									label := fmt.Sprintf("simd=%v/workers=%d/k=%d/m=%d/n=%d/ldb=%d/ldc=%d/bias=%v/relu=%v",
										simd, workers, k, m, n, ld.b, ld.c, withBias, relu)
									var rb []float32
									if withBias {
										rb = bias
									}
									seed := r.Int63()
									want := guardedC(rand.New(rand.NewSource(seed)), m, ld.c, pad)
									gemmStrip(0, n, false, m, n, k, mr, nr, 1, pa.buf, b, ld.b, nil, 0, rb, relu, want[pad:], ld.c)
									check := func(path string, got []float32) {
										t.Helper()
										for i := range want {
											if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
												t.Fatalf("%s/%s: cell %d (C offset %d): got %v (%#x), want %v (%#x)",
													label, path, i, i-pad, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
											}
										}
									}
									got := guardedC(rand.New(rand.NewSource(seed)), m, ld.c, pad)
									GemmPackedABias(n, pa, b, ld.b, rb, got[pad:], ld.c, relu)
									check("GemmPackedABias", got)
									got = guardedC(rand.New(rand.NewSource(seed)), m, ld.c, pad)
									SerialPackedABias(n, pa, b, ld.b, rb, got[pad:], ld.c, relu)
									check("SerialPackedABias", got)
									if mr == 8 {
										// The kernel itself, so a dispatch change cannot hide it.
										got = guardedC(rand.New(rand.NewSource(seed)), m, ld.c, pad)
										full := n &^ 7
										smallKKernel(k, pa.buf, b, ld.b, got[pad:], ld.c, m, full, rb, relu)
										if full < n {
											gemmStrip(full, n, false, m, n, k, mr, nr, 1, pa.buf, b, ld.b, nil, 0, rb, relu, got[pad:], ld.c)
										}
										check("smallKKernel", got)
									}
									if !withBias && !relu {
										got = guardedC(rand.New(rand.NewSource(seed)), m, ld.c, pad)
										Gemm(m, n, k, 1, a, k, b, ld.b, 0, got[pad:], ld.c)
										check("Gemm", got)
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

// BenchmarkSmallK times one block product of the shape densenet40's merged
// lconvs run per fused tile (m=24, k=2, n=64, bias and ReLU) through the
// entry point, which takes the small-K kernel on the AVX2 path, and
// through the tile path alone.
func BenchmarkSmallK(b *testing.B) {
	const m, k, n = 24, 2, 64
	r := rand.New(rand.NewSource(5))
	a, _ := randSlice(r, m*k)
	bm, _ := randSlice(r, k*n)
	bias, _ := randSlice(r, m)
	c := make([]float32, m*n)
	pa := PackA(m, k, a, k)
	mr, nr := tileDims[float32]()
	b.Run("entry", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SerialPackedABias(n, pa, bm, n, bias, c, n, true)
		}
	})
	b.Run("tile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gemmStrip(0, n, false, m, n, k, mr, nr, 1, pa.buf, bm, n, nil, 0, bias, true, c, n)
		}
	})
}
