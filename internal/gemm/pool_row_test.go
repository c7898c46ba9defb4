package gemm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// poolRef is the scalar first-wins max-pool row the fused runner used
// inline before MaxPoolRow existed: candidates in (r, q) row-major order,
// replacing the accumulator only when strictly greater.
func poolRef(dst, src []float32, ld, kh, kw, sw int) {
	for i := range dst {
		acc := float32(math.Inf(-1))
		for r := 0; r < kh; r++ {
			for q := 0; q < kw; q++ {
				if v := src[r*ld+i*sw+q]; v > acc {
					acc = v
				}
			}
		}
		dst[i] = acc
	}
}

// poolTestValue mixes ordinary values with the tie/unordered corners that
// distinguish compare+blend from VMAXPS: ±0, -Inf, NaN.
func poolTestValue(r *rand.Rand) float32 {
	switch r.Intn(8) {
	case 0:
		return float32(math.Copysign(0, -1))
	case 1:
		return 0
	case 2:
		return float32(math.Inf(-1))
	case 3:
		return float32(math.NaN())
	default:
		return float32(r.NormFloat64())
	}
}

// TestMaxPoolRowBitExact: MaxPoolRow matches the scalar first-wins chain
// bit for bit for every window the kernel's three load shapes cover
// (stride 1, stride 2, and a gathered stride 3), row lengths 1–17 (vector
// blocks, scalar tails, and rows too short for a block), ties among NaN,
// ±0 and -Inf, and SIMD on and off. The source is sliced to exactly the
// elements a row reads and followed by +Inf cells, so a kernel that read
// past its last element would change a result; dst is followed by guard
// cells that must stay untouched.
func TestMaxPoolRowBitExact(t *testing.T) {
	origSIMD := SIMD()
	defer SetSIMD(origSIMD)
	windows := []struct{ kh, kw, sw int }{
		{2, 2, 2}, {3, 3, 2}, {3, 3, 1}, {3, 2, 1}, {2, 2, 1}, {3, 3, 3}, {1, 1, 1},
	}
	const guard = 4
	r := rand.New(rand.NewSource(7))
	for _, simd := range []bool{false, true} {
		SetSIMD(simd)
		for _, win := range windows {
			for n := 1; n <= 17; n++ {
				for trial := 0; trial < 8; trial++ {
					label := fmt.Sprintf("simd=%v/%dx%d/%d/n=%d/trial=%d", simd, win.kh, win.kw, win.sw, n, trial)
					ld := (n-1)*win.sw + win.kw + r.Intn(3)
					need := (win.kh-1)*ld + (n-1)*win.sw + win.kw
					buf := make([]float32, need+guard)
					for i := range buf {
						if i < need {
							buf[i] = poolTestValue(r)
						} else {
							buf[i] = float32(math.Inf(1))
						}
					}
					want := make([]float32, n)
					poolRef(want, buf[:need], ld, win.kh, win.kw, win.sw)
					got := make([]float32, n+guard)
					for i := n; i < len(got); i++ {
						got[i] = 42
					}
					MaxPoolRow(got[:n], buf[:need], ld, win.kh, win.kw, win.sw)
					for i := range got {
						w := float32(42)
						if i < n {
							w = want[i]
						}
						if math.Float32bits(got[i]) != math.Float32bits(w) {
							t.Fatalf("%s: dst[%d]=%v (%#x), want %v (%#x)", label, i,
								got[i], math.Float32bits(got[i]), w, math.Float32bits(w))
						}
					}
				}
			}
		}
	}
}

// TestReLUBitExact: ReLU matches the scalar `if v < 0 { v = 0 }` bit for
// bit at every length from 1 to 33 (vector blocks plus every scalar tail
// length), with -0, NaN and -Inf among the inputs, SIMD on and off, and
// never writes past the slice.
func TestReLUBitExact(t *testing.T) {
	origSIMD := SIMD()
	defer SetSIMD(origSIMD)
	const guard = 3
	r := rand.New(rand.NewSource(9))
	for _, simd := range []bool{false, true} {
		SetSIMD(simd)
		for n := 1; n <= 33; n++ {
			for trial := 0; trial < 8; trial++ {
				buf := make([]float32, n+guard)
				for i := range buf {
					buf[i] = poolTestValue(r)
				}
				// Every corner appears at least once in rows long enough.
				for i, v := range []float32{float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(-1))} {
					if i < n {
						buf[(trial+i*5)%n] = v
					}
				}
				want := make([]float32, len(buf))
				for i, x := range buf {
					want[i] = x
					if i < n && x < 0 {
						want[i] = 0
					}
				}
				ReLU(buf[:n])
				for i := range buf {
					if math.Float32bits(buf[i]) != math.Float32bits(want[i]) {
						t.Fatalf("simd=%v n=%d trial=%d: v[%d]=%#x want %#x",
							simd, n, trial, i, math.Float32bits(buf[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}
