package gemm

import "sync/atomic"

// Process-wide observability counters for the workspace arena and the
// pre-pack cache. Hits/misses tell an operator whether steady-state
// inference is actually recycling scratch (a rising miss count under stable
// load means buffers are being dropped by GC pressure or requested at
// ever-new sizes); the pre-pack counters size the one-time compile cost.
var (
	poolHits       atomic.Uint64
	poolMisses     atomic.Uint64
	prePacks       atomic.Uint64
	prePackedBytes atomic.Uint64
)

// PoolStats is a point-in-time snapshot of the workspace-pool and
// pre-pack counters, surfaced by temcod's /statsz endpoint.
type PoolStats struct {
	// Hits counts workspace borrows satisfied from a pool.
	Hits uint64 `json:"hits"`
	// Misses counts workspace borrows that had to allocate (first use of a
	// size class, oversized requests, or buffers reclaimed by the GC).
	Misses uint64 `json:"misses"`
	// PrePacks counts PackA/PackB/PackBT invocations.
	PrePacks uint64 `json:"prepacks"`
	// PrePackedBytes totals the bytes held by pre-packed operand panels.
	PrePackedBytes uint64 `json:"prepacked_bytes"`
}

// PoolStatsSnapshot reads the counters. Counters are cumulative since
// process start; callers diff snapshots for rates.
func PoolStatsSnapshot() PoolStats {
	return PoolStats{
		Hits:           poolHits.Load(),
		Misses:         poolMisses.Load(),
		PrePacks:       prePacks.Load(),
		PrePackedBytes: prePackedBytes.Load(),
	}
}

// SIMD reports whether the AVX2+FMA 8×8 tile kernel is active (false when
// unsupported by the CPU or disabled via TEMCO_NOSIMD / SetSIMD).
func SIMD() bool { return useFMA }

// SetSIMD enables or disables the vector micro-kernel at runtime and
// returns the previous setting; enabling is a no-op where the CPU lacks
// AVX2+FMA. It exists for tests and numerical bisection (the scalar tile
// rounds each multiply and add separately, FMA rounds once). Callers must
// not flip it concurrently with running kernels, and pre-packed panels
// built under the old mode must be rebuilt: the tile geometry changes.
func SetSIMD(on bool) bool {
	prev := useFMA
	useFMA = on && simdAvailable()
	return prev
}
