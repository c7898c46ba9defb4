package gemm

import "math"

// negInf32 is the max-pool identity element.
var negInf32 = float32(math.Inf(-1))

// This file hosts the two non-GEMM element kernels the fused conv runner
// leans on. They live here, next to the GEMM micro-kernels, because this
// package owns the vector dispatch (useFMA / TEMCO_NOSIMD / SetSIMD) and
// the amd64 assembly they share a file with.

// MaxPoolRow computes one output row of a kh×kw max pool with column
// stride sw over a source whose rows are ld elements apart:
//
//	dst[i] = max(-Inf, src[r·ld + i·sw + q])  for r < kh, q < kw
//
// visiting the candidates in (r, q) row-major order with the first-wins
// tie rule of a scalar `if v > acc { acc = v }` chain: a NaN candidate
// never replaces the accumulator, and on -0/+0 ties the earlier value
// survives. Padding must already hold -Inf, which never wins. The vector
// path reproduces these semantics with ordered compare+blend, so it is
// bit-identical to the portable loop on every input and every window.
// src must hold (kh-1)·ld + (len(dst)-1)·sw + kw elements.
func MaxPoolRow(dst, src []float32, ld, kh, kw, sw int) {
	n := len(dst)
	if n == 0 {
		return
	}
	if kh < 1 || kw < 1 || sw < 1 || ld < 0 {
		panic("gemm: MaxPoolRow: bad window")
	}
	if len(src) < (kh-1)*ld+(n-1)*sw+kw {
		panic("gemm: MaxPoolRow source too short")
	}
	i := 0
	if n >= 8 && maxPoolRowArch(dst, src, ld, kh, kw, sw) {
		i = n &^ 7
	}
	for ; i < n; i++ {
		acc := negInf32
		for r := 0; r < kh; r++ {
			for _, v := range src[r*ld+i*sw:][:kw] {
				if v > acc {
					acc = v
				}
			}
		}
		dst[i] = acc
	}
}

// ReLU clamps negatives to +0 in place: `if v < 0 { v = 0 }` per element,
// so -0 and NaN pass through unchanged. The vector path (MAXPS with +0 as
// the tie-keeping operand) is bit-identical to the portable loop.
func ReLU(v []float32) {
	if len(v) == 0 {
		return
	}
	if reluArch(v) {
		return
	}
	for i, x := range v {
		if x < 0 {
			v[i] = 0
		}
	}
}
