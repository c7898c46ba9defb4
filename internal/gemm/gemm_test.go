package gemm

import (
	"math"
	"math/rand"
	"testing"
)

// refGemm is the naive float64 reference: C = alpha·op(A)·op(B) + beta·C.
func refGemm(transA, transB bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				var av, bv float64
				if transA {
					av = a[p*lda+i]
				} else {
					av = a[i*lda+p]
				}
				if transB {
					bv = b[j*ldb+p]
				} else {
					bv = b[p*ldb+j]
				}
				s += av * bv
			}
			old := c[i*ldc+j]
			if beta == 0 {
				old = 0
			} else {
				old *= beta
			}
			c[i*ldc+j] = alpha*s + old
		}
	}
}

func randSlice(r *rand.Rand, n int) ([]float32, []float64) {
	f32 := make([]float32, n)
	f64 := make([]float64, n)
	for i := range f32 {
		v := float32(r.NormFloat64() * 0.25)
		f32[i] = v
		f64[i] = float64(v)
	}
	return f32, f64
}

func checkCase(t *testing.T, r *rand.Rand, transA, transB bool, m, n, k int, alpha, beta float32) {
	t.Helper()
	aLen, bLen := m*k, k*n
	if aLen == 0 {
		aLen = 1
	}
	if bLen == 0 {
		bLen = 1
	}
	a32, a64 := randSlice(r, aLen)
	b32, b64 := randSlice(r, bLen)
	c32, c64 := randSlice(r, max(m*n, 1))

	lda, ldb := k, n
	if transA {
		lda = m
	}
	if transB {
		ldb = k
	}
	refGemm(transA, transB, m, n, k, float64(alpha), a64, lda, b64, ldb, float64(beta), c64, n)
	switch {
	case transA && !transB:
		GemmAT(m, n, k, alpha, a32, lda, b32, ldb, beta, c32, n)
	case !transA && transB:
		GemmBT(m, n, k, alpha, a32, lda, b32, ldb, beta, c32, n)
	default:
		Gemm(m, n, k, alpha, a32, lda, b32, ldb, beta, c32, n)
	}
	var maxDiff float64
	for i := 0; i < m*n; i++ {
		if d := math.Abs(float64(c32[i]) - c64[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-4 {
		t.Fatalf("transA=%v transB=%v m=%d n=%d k=%d alpha=%v beta=%v: max abs diff %g",
			transA, transB, m, n, k, alpha, beta, maxDiff)
	}
}

// TestGemmRandomShapes sweeps randomized shapes (including micro-tile edge
// remainders and K=0/M=1 degenerate cases) against the float64 reference.
func TestGemmRandomShapes(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		m := r.Intn(40)
		n := r.Intn(40)
		k := r.Intn(48)
		alphas := []float32{1, 0.5, -1}
		betas := []float32{0, 1, -0.5}
		mode := r.Intn(3) // 0: plain, 1: Aᵀ, 2: Bᵀ
		checkCase(t, r, mode == 1, mode == 2, m, n, k,
			alphas[r.Intn(len(alphas))], betas[r.Intn(len(betas))])
	}
}

// TestGemmEdgeShapes pins the shapes called out in the acceptance criteria:
// K=0 (pure beta scaling), M=1, odd tile remainders, and sizes that cross
// the KC and NC cache-block boundaries.
func TestGemmEdgeShapes(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	cases := []struct{ m, n, k int }{
		{1, 1, 1},
		{1, 17, 9},     // M=1
		{5, 7, 3},      // odd everything
		{4, 4, 0},      // K=0: C = beta·C
		{3, 1, 20},     // N=1
		{37, 129, 300}, // crosses KC=256
		{9, 1030, 33},  // crosses NC=512
		{8, 8, kc + 1}, // exactly one tile, KC remainder of 1
		{4, 4, 7},      // one scalar-fallback tile
	}
	for _, tc := range cases {
		for _, beta := range []float32{0, 1} {
			checkCase(t, r, false, false, tc.m, tc.n, tc.k, 1, beta)
		}
	}
}

// TestGemmAlphaZero verifies alpha==0 degrades to C = beta·C without
// touching A or B.
func TestGemmAlphaZero(t *testing.T) {
	c := []float32{1, 2, 3, 4}
	Gemm(2, 2, 3, 0, make([]float32, 6), 3, make([]float32, 6), 2, 0.5, c, 2)
	want := []float32{0.5, 1, 1.5, 2}
	for i := range c {
		if c[i] != want[i] {
			t.Fatalf("alpha=0: c=%v want %v", c, want)
		}
	}
}

// TestGemmDeterministicAcrossWorkers requires bit-identical output for any
// worker count: the NR-aligned strip split must not change per-element
// accumulation order.
func TestGemmDeterministicAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m, n, k := 61, 777, 130
	a, _ := randSlice(r, m*k)
	b, _ := randSlice(r, k*n)
	orig := Workers()
	defer SetWorkers(orig)

	SetWorkers(1)
	c1 := make([]float32, m*n)
	Gemm(m, n, k, 1, a, k, b, n, 0, c1, n)
	for _, w := range []int{2, 3, 8} {
		SetWorkers(w)
		cw := make([]float32, m*n)
		Gemm(m, n, k, 1, a, k, b, n, 0, cw, n)
		for i := range c1 {
			if c1[i] != cw[i] {
				t.Fatalf("workers=%d: element %d differs: %v vs %v", w, i, c1[i], cw[i])
			}
		}
	}
}

// TestSetWorkersClamps pins the ≥1 clamp.
func TestSetWorkersClamps(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)
	for _, n := range []int{0, -3} {
		if got := SetWorkers(n); got != 1 || Workers() != 1 {
			t.Fatalf("SetWorkers(%d) = %d, Workers() = %d; want 1", n, got, Workers())
		}
	}
	if got := SetWorkers(6); got != 6 {
		t.Fatalf("SetWorkers(6) = %d", got)
	}
}

// TestGemmZeroAlloc proves steady-state calls take all scratch from the
// workspace arena: zero allocations per op after warmup.
func TestGemmZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	orig := Workers()
	defer SetWorkers(orig)
	SetWorkers(1) // goroutine spawning (not scratch) allocates; pin it out
	r := rand.New(rand.NewSource(5))
	m, n, k := 64, 300, 128
	a, _ := randSlice(r, m*k)
	b, _ := randSlice(r, k*n)
	c := make([]float32, m*n)
	Gemm(m, n, k, 1, a, k, b, n, 0, c, n) // warm the arena
	allocs := testing.AllocsPerRun(10, func() {
		Gemm(m, n, k, 1, a, k, b, n, 0, c, n)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Gemm allocates %v objects/op, want 0", allocs)
	}
}

// TestWorkspacePoolRoundTrip checks the arena hands back len-n slices and
// reuses capacity across size classes.
func TestWorkspacePoolRoundTrip(t *testing.T) {
	p := GetF32(100)
	if len(*p) != 100 || cap(*p) != 128 {
		t.Fatalf("GetF32(100): len=%d cap=%d, want 100/128", len(*p), cap(*p))
	}
	PutF32(p)
	q := GetF32(0)
	if len(*q) != 0 {
		t.Fatalf("GetF32(0): len=%d", len(*q))
	}
	PutF32(q)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
