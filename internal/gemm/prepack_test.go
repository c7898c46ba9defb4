package gemm

import (
	"math"
	"math/rand"
	"testing"
)

// TestPrePackedBitIdentical pins the plan-once/run-many contract: products
// consuming pre-packed panels must be bit-for-bit identical to the
// pack-on-the-fly entry points, across shapes that exercise partial tiles,
// multiple KC/NC blocks, and both serial and parallel strip schedules.
func TestPrePackedBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 7}, {8, 8, 8}, {13, 9, 300}, {64, 700, 64},
		{17, 1100, 520}, {100, 33, 257}, {2, 600, 1},
	}
	for _, workers := range []int{1, 4} {
		old := Workers()
		SetWorkers(workers)
		for _, s := range shapes {
			m, n, k := s[0], s[1], s[2]
			a32, _ := randSlice(r, max(m*k, 1))
			b32, _ := randSlice(r, max(k*n, 1))
			bt32, _ := randSlice(r, max(n*k, 1))

			want := make([]float32, m*n)
			got := make([]float32, m*n)

			// A pre-packed (conv/fused weight as the row operand).
			Gemm(m, n, k, 1, a32, k, b32, n, 0, want, n)
			pa := PackA(m, k, a32, k)
			GemmPackedA(n, 1, pa, b32, n, 0, got, n)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("workers=%d m=%d n=%d k=%d: GemmPackedA differs at %d: %v != %v",
						workers, m, n, k, i, got[i], want[i])
				}
			}
			SerialPackedABias(n, pa, b32, n, nil, got, n, false)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("workers=%d m=%d n=%d k=%d: SerialPackedABias differs at %d", workers, m, n, k, i)
				}
			}

			// B pre-packed, untransposed.
			pb := PackB(k, n, b32, n)
			GemmPrePacked(m, 1, a32, k, pb, 0, got, n)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("workers=%d m=%d n=%d k=%d: GemmPrePacked differs at %d: %v != %v",
						workers, m, n, k, i, got[i], want[i])
				}
			}

			// B pre-packed transposed (Linear's [Out, In] weight).
			GemmBT(m, n, k, 1, a32, k, bt32, k, 0, want, n)
			pbt := PackBT(k, n, bt32, k)
			GemmPrePackedBT(m, 1, a32, k, pbt, 0, got, n)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("workers=%d m=%d n=%d k=%d: GemmPrePackedBT differs at %d: %v != %v",
						workers, m, n, k, i, got[i], want[i])
				}
			}
		}
		SetWorkers(old)
	}
}

// TestPrePackedBetaAccumulate checks the beta path reads C exactly like the
// plain entry points (bias seeding in Linear depends on it).
func TestPrePackedBetaAccumulate(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	m, n, k := 9, 70, 33
	a32, _ := randSlice(r, m*k)
	bt32, _ := randSlice(r, n*k)
	seed, _ := randSlice(r, m*n)

	want := append([]float32(nil), seed...)
	got := append([]float32(nil), seed...)
	GemmBT(m, n, k, 1, a32, k, bt32, k, 1, want, n)
	GemmPrePackedBT(m, 1, a32, k, PackBT(k, n, bt32, k), 1, got, n)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("beta=1 differs at %d: %v != %v", i, got[i], want[i])
		}
	}
}

// TestBiasWriteBackBitIdentical pins the bias entry points to the two-pass
// form they replace: C pre-filled with the bias, then a beta = 1 product.
// K crosses the KC = 256 slice boundary (only the first slice may add the
// bias), M and N are not multiples of the 8×8 tile, and both micro-kernels
// and both strip schedules are covered.
func TestBiasWriteBackBitIdentical(t *testing.T) {
	prevSIMD := SetSIMD(true)
	defer SetSIMD(prevSIMD)
	prevW := Workers()
	defer SetWorkers(prevW)
	r := rand.New(rand.NewSource(13))
	for _, simd := range []bool{true, false} {
		if SetSIMD(simd); simd && !SIMD() {
			continue
		}
		for _, k := range []int{1, 2, 255, 256, 257, 300} {
			for _, mn := range [][2]int{{1, 1}, {7, 13}, {13, 70}, {30, 129}} {
				m, n := mn[0], mn[1]
				a, _ := randSlice(r, m*k)
				b, _ := randSlice(r, k*n)
				bias, _ := randSlice(r, m)
				pa := PackA(m, k, a, k)
				want := make([]float32, m*n)
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						want[i*n+j] = bias[i]
					}
				}
				GemmPackedA(n, 1, pa, b, n, 1, want, n)
				for _, workers := range []int{1, 4} {
					SetWorkers(workers)
					for name, run := range map[string]func(c []float32){
						"GemmPackedABias":   func(c []float32) { GemmPackedABias(n, pa, b, n, bias, c, n, false) },
						"SerialPackedABias": func(c []float32) { SerialPackedABias(n, pa, b, n, bias, c, n, false) },
					} {
						got := make([]float32, m*n)
						for i := range got {
							got[i] = float32(i) // stale contents must not leak in
						}
						run(got)
						for i := range want {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("simd=%v workers=%d m=%d n=%d k=%d: %s differs at %d: %v != %v",
									simd, workers, m, n, k, name, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestPackStaleAfterSIMDFlip: a pack built under one micro-kernel tile must
// refuse to run under the other instead of producing garbage.
func TestPackStaleAfterSIMDFlip(t *testing.T) {
	if !simdAvailable() {
		t.Skip("no vector kernel on this machine; tile never changes")
	}
	prev := SetSIMD(true)
	defer SetSIMD(prev)
	m, n, k := 8, 16, 8
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	pa := PackA(m, k, a, k)
	pb := PackB(k, n, b, n)
	SetSIMD(false)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("GemmPackedA accepted a stale PackedA after SIMD flip")
			}
		}()
		GemmPackedA(n, 1, pa, b, n, 0, c, n)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("GemmPrePacked accepted a stale PackedB after SIMD flip")
			}
		}()
		GemmPrePacked(m, 1, a, k, pb, 0, c, n)
	}()
}

// TestPoolStatsCounters: borrowing scratch moves the hit/miss counters and
// pre-packing moves the pack counters.
func TestPoolStatsCounters(t *testing.T) {
	before := PoolStatsSnapshot()
	for i := 0; i < 5; i++ {
		p := GetF32(1 << 10)
		PutF32(p)
	}
	PackA(4, 4, make([]float32, 16), 4)
	after := PoolStatsSnapshot()
	if after.Hits == before.Hits {
		t.Error("pool hit counter did not move across recycled borrows")
	}
	if after.Hits+after.Misses < before.Hits+before.Misses+5 {
		t.Error("pool counters did not account for every borrow")
	}
	if after.PrePacks != before.PrePacks+1 {
		t.Errorf("prepack counter moved by %d, want 1", after.PrePacks-before.PrePacks)
	}
	if after.PrePackedBytes <= before.PrePackedBytes {
		t.Error("prepacked bytes did not grow")
	}
}
