package gemm

// Pre-packed operand panels for plan-once/run-many execution. A constant
// GEMM operand (a convolution or Linear weight) can be packed into the
// blocked kernel's panel layout exactly once at compile time and then
// consumed by every subsequent product, eliminating the per-call packing
// pass. The packed layouts are byte-for-byte the ones packA/packB produce,
// and the macro-kernel's blocking schedule does not change, so pre-packed
// products are bit-identical to the pack-on-the-fly entry points.
//
// Packs capture the micro-kernel tile (MR, NR) active when they were built.
// Flipping the SIMD mode afterwards (SetSIMD, TEMCO_NOSIMD) invalidates
// them; consuming a stale pack panics rather than corrupting results.

// PackedA is a row operand packed once into packA layout: MR-row panels
// spanning the full K dimension. Conv and fused-kernel weights are the A
// operand of their GEMMs, so this is their pre-packed form.
type PackedA struct {
	m, k, mr int
	buf      []float32
}

// Bytes reports the packed panel footprint.
func (p *PackedA) Bytes() int64 { return int64(len(p.buf)) * 4 }

// PackA packs the m×k row-major matrix a (leading dimension lda) for use
// as the A operand of GemmPackedA and the bias entry points.
func PackA(m, k int, a []float32, lda int) *PackedA {
	if m < 0 || k < 0 {
		panic("gemm: PackA: negative dimensions")
	}
	if lda < k || (m > 0 && k > 0 && len(a) < (m-1)*lda+k) {
		panic("gemm: PackA: A too small")
	}
	mr, _ := tileDims[float32]()
	buf := make([]float32, roundUp(m, mr)*k)
	packA(buf, a, lda, m, k, mr, false)
	prePacks.Add(1)
	prePackedBytes.Add(uint64(len(buf)) * 4)
	return &PackedA{m: m, k: k, mr: mr, buf: buf}
}

// GemmPackedA computes C = alpha·A·B + beta·C with A supplied pre-packed;
// B is k×n row-major (ldb), C is m×n (ldc). Parallel over column strips,
// bit-identical to Gemm on the same operands.
func GemmPackedA(n int, alpha float32, pa *PackedA, b []float32, ldb int, beta float32, c []float32, ldc int) {
	gemmPackedA(true, n, alpha, pa, b, ldb, beta, nil, false, c, ldc)
}

// GemmPackedABias computes C = A·B + bias with A supplied pre-packed: bias
// (m values, nil for none) is added to every element of its row as the
// product is written, so C is never read. Bit-identical to GemmPackedA with
// beta = 1 over a C pre-filled with the bias. With relu set each element is
// then clamped by the scalar ReLU rule (`if v < 0 { v = 0 }`) in the same
// store, bit-identical to calling ReLU on C afterwards. Parallel over
// column strips.
func GemmPackedABias(n int, pa *PackedA, b []float32, ldb int, bias, c []float32, ldc int, relu bool) {
	gemmPackedA(true, n, 1, pa, b, ldb, 0, bias, relu, c, ldc)
}

// SerialPackedABias is GemmPackedABias restricted to the calling goroutine
// (for callers already inside a parallelFor region, like the fused kernel).
func SerialPackedABias(n int, pa *PackedA, b []float32, ldb int, bias, c []float32, ldc int, relu bool) {
	gemmPackedA(false, n, 1, pa, b, ldb, 0, bias, relu, c, ldc)
}

func gemmPackedA(parallel bool, n int, alpha float32, pa *PackedA, b []float32, ldb int, beta float32, bias []float32, relu bool, c []float32, ldc int) {
	if pa == nil {
		panic("gemm: nil PackedA")
	}
	mr, nr := tileDims[float32]()
	if pa.mr != mr {
		panic("gemm: PackedA was built for a different micro-kernel tile (SIMD mode changed since PackA); repack")
	}
	m, k := pa.m, pa.k
	if n < 0 {
		panic("gemm: negative dimension n")
	}
	if ldb < n || (k > 0 && n > 0 && len(b) < (k-1)*ldb+n) {
		panic("gemm: B too small for pre-packed product")
	}
	if ldc < n || (m > 0 && n > 0 && len(c) < (m-1)*ldc+n) {
		panic("gemm: C too small for pre-packed product")
	}
	if bias != nil && len(bias) < m {
		panic("gemm: bias shorter than the pre-packed A's rows")
	}
	if m == 0 || n == 0 {
		return
	}
	if k == 0 || alpha == 0 {
		if bias != nil {
			for i := 0; i < m; i++ {
				v := bias[i]
				if relu && v < 0 {
					v = 0
				}
				row := c[i*ldc : i*ldc+n]
				for j := range row {
					row[j] = v
				}
			}
			return
		}
		scaleC(m, n, beta, c, ldc)
		return
	}
	gemmCore(parallel, false, m, n, k, mr, nr, alpha, pa.buf, b, ldb, nil, beta, bias, relu, c, ldc)
}

// PackedB is a column operand packed once into the full-width B-panel
// layout: for each KC block of rows, NR-column panels across all n columns
// (padded to a multiple of NR), each panel row-major over the KC slice —
// exactly the panels packB emits per block, concatenated. Linear weights,
// consumed transposed, are the B operand of their GEMM.
type PackedB struct {
	k, n, nr int
	trans    bool
	buf      []float32
}

// Bytes reports the packed panel footprint.
func (p *PackedB) Bytes() int64 { return int64(len(p.buf)) * 4 }

// PackB packs the k×n row-major matrix b (leading dimension ldb) for use
// as the B operand of GemmPrePacked.
func PackB(k, n int, b []float32, ldb int) *PackedB {
	return packBFull(k, n, b, ldb, false)
}

// PackBT packs the n×k row-major matrix b (leading dimension ldb), consumed
// transposed, for use as the B operand of GemmPrePackedBT. This is the
// natural pre-pack for Linear's [Out, In] weight.
func PackBT(k, n int, b []float32, ldb int) *PackedB {
	return packBFull(k, n, b, ldb, true)
}

func packBFull(k, n int, b []float32, ldb int, trans bool) *PackedB {
	if k < 0 || n < 0 {
		panic("gemm: PackB: negative dimensions")
	}
	bRows, bCols := k, n
	if trans {
		bRows, bCols = n, k
	}
	if ldb < bCols || (bRows > 0 && bCols > 0 && len(b) < (bRows-1)*ldb+bCols) {
		panic("gemm: PackB: B too small")
	}
	_, nr := tileDims[float32]()
	nR := roundUp(n, nr)
	buf := make([]float32, k*nR)
	for pc := 0; pc < k; pc += kc {
		kcEff := min(kc, k-pc)
		packB(buf[pc*nR:pc*nR+kcEff*nR], b, ldb, pc, kcEff, 0, n, nr, trans)
	}
	prePacks.Add(1)
	prePackedBytes.Add(uint64(len(buf)) * 4)
	return &PackedB{k: k, n: n, nr: nr, trans: trans, buf: buf}
}

// GemmPrePacked computes C = alpha·A·B + beta·C with B supplied pre-packed
// by PackB; A is m×k row-major (lda), C is m×n (ldc). Parallel over column
// strips, bit-identical to Gemm on the same operands.
func GemmPrePacked(m int, alpha float32, a []float32, lda int, pb *PackedB, beta float32, c []float32, ldc int) {
	gemmPrePacked(true, false, m, alpha, a, lda, pb, beta, c, ldc)
}

// GemmPrePackedBT is GemmBT with the transposed weight supplied pre-packed
// by PackBT: C = alpha·A·Bᵀ + beta·C, bit-identical to GemmBT.
func GemmPrePackedBT(m int, alpha float32, a []float32, lda int, pb *PackedB, beta float32, c []float32, ldc int) {
	gemmPrePacked(true, true, m, alpha, a, lda, pb, beta, c, ldc)
}

func gemmPrePacked(parallel, wantTrans bool, m int, alpha float32, a []float32, lda int, pb *PackedB, beta float32, c []float32, ldc int) {
	if pb == nil {
		panic("gemm: nil PackedB")
	}
	if pb.trans != wantTrans {
		panic("gemm: PackedB transpose flavor does not match the entry point (PackB↔GemmPrePacked, PackBT↔GemmPrePackedBT)")
	}
	mr, nr := tileDims[float32]()
	if pb.nr != nr {
		panic("gemm: PackedB was built for a different micro-kernel tile (SIMD mode changed since PackB); repack")
	}
	n, k := pb.n, pb.k
	if m < 0 {
		panic("gemm: negative dimension m")
	}
	if lda < k || (m > 0 && k > 0 && len(a) < (m-1)*lda+k) {
		panic("gemm: A too small for pre-packed product")
	}
	if ldc < n || (m > 0 && n > 0 && len(c) < (m-1)*ldc+n) {
		panic("gemm: C too small for pre-packed product")
	}
	if m == 0 || n == 0 {
		return
	}
	if k == 0 || alpha == 0 {
		scaleC(m, n, beta, c, ldc)
		return
	}
	apPtr := getWS[float32](roundUp(m, mr) * k)
	defer putWS(apPtr)
	ap := *apPtr
	packA(ap, a, lda, m, k, mr, false)
	gemmCore(parallel, false, m, n, k, mr, nr, alpha, ap, nil, 0, pb.buf, beta, nil, false, c, ldc)
}
