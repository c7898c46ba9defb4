package gemm

import (
	"math/bits"
	"sync"

	"temco/internal/faultinject"
)

// The workspace arena: power-of-two size classes of recycled scratch
// slices. Kernels borrow packing panels, im2col column buffers, and
// fused-kernel tile scratch from here instead of calling make on every
// invocation, so steady-state inference performs zero hot-path
// allocations. Each class is a mutex-guarded LIFO free list: unlike a
// sync.Pool it has no per-P caches for a migrating goroutine to miss and is
// not emptied by the GC, so a warmed arena stays warm on any number of Ps.
// It retains its high-water mark of concurrently borrowed buffers per
// class. The API hands out *[]T rather than []T so a borrow round-trips
// through the free list without boxing a fresh slice header.
//
// Buffers are returned with len == the requested size but are NOT zeroed:
// callers own the full initialization of the region they read.

// poolSet is a set of free lists bucketed by ceil(log2(size)). Slices are
// always allocated at exactly their class capacity so put can re-bucket
// from cap alone.
type poolSet[T any] struct {
	mu      sync.Mutex
	classes [48][]*[]T
	empty   []T // what every zero-length borrow points at
}

func (ps *poolSet[T]) get(n int) *[]T {
	// Fault-injection hook: may panic to simulate an allocation failure.
	// One atomic nil-check when no injector is installed.
	faultinject.Alloc()
	if n <= 0 {
		return &ps.empty
	}
	cls := bits.Len(uint(n - 1))
	if cls >= len(ps.classes) {
		poolMisses.Add(1)
		s := make([]T, n)
		return &s
	}
	ps.mu.Lock()
	if free := ps.classes[cls]; len(free) > 0 {
		p := free[len(free)-1]
		free[len(free)-1] = nil
		ps.classes[cls] = free[:len(free)-1]
		ps.mu.Unlock()
		poolHits.Add(1)
		*p = (*p)[:n]
		return p
	}
	ps.mu.Unlock()
	poolMisses.Add(1)
	s := make([]T, n, 1<<cls)
	return &s
}

func (ps *poolSet[T]) put(p *[]T) {
	if p == nil || cap(*p) == 0 {
		return
	}
	cls := bits.Len(uint(cap(*p))) - 1
	if cls >= len(ps.classes) || 1<<cls != cap(*p) {
		return // oversized or foreign slice: let the GC take it
	}
	*p = (*p)[:cap(*p)]
	ps.mu.Lock()
	ps.classes[cls] = append(ps.classes[cls], p)
	ps.mu.Unlock()
}

var f32Pool poolSet[float32]

// GetF32 borrows a float32 scratch slice of length n (uninitialized).
func GetF32(n int) *[]float32 { return f32Pool.get(n) }

// PutF32 returns a slice borrowed with GetF32 to the arena.
func PutF32(p *[]float32) { f32Pool.put(p) }

// getWS borrows the generic gemm core's panels. float32 panels come from
// the arena; float64 panels serve only the setup-time linalg products, so
// they are allocated per call and left to the GC rather than retained.
func getWS[T float](n int) *[]T {
	if ps, ok := any(&f32Pool).(*poolSet[T]); ok {
		return ps.get(n)
	}
	s := make([]T, n)
	return &s
}

// putWS returns a panel borrowed with getWS; float64 panels are dropped.
func putWS[T float](p *[]T) {
	if ps, ok := any(&f32Pool).(*poolSet[T]); ok {
		ps.put(p)
	}
}
