package memplan

import (
	"fmt"
	"sort"

	"temco/internal/ir"
)

// This file implements static buffer-offset assignment in the style of
// Pisarchyk & Lee, "Efficient Memory Management for Deep Neural Net
// Inference" (the paper's reference [31]): given every internal tensor's
// size and liveness interval, assign each a fixed offset inside one shared
// arena so that overlapping-lifetime tensors never overlap in memory. The
// arena size is an upper bound a real allocator can achieve with static
// planning; PeakInternal (the live-byte maximum) is the lower bound.
//
// With alias-aware planning (alias.go, DESIGN.md §14) only *owned* storage
// roots get regions; view-classed tensors (concat inputs, flatten outputs,
// in-place elementwise results) are placed at fixed offsets inside their
// root's region, and a root's liveness interval extends over every sharer
// so the region exists from the first producer write to the last read.

// Assignment is a static arena layout for one graph and batch size.
type Assignment struct {
	Graph *ir.Graph
	Batch int
	// Offsets maps every node (graph inputs included — they count toward
	// internal-tensor memory, paper Eq. (3)) to its tensor's byte offset.
	// View-classed tensors resolve to absolute offsets inside their root's
	// region, so executors slice the arena uniformly.
	Offsets map[*ir.Node]int64
	// ArenaBytes is the total arena size the layout needs.
	ArenaBytes int64
	// PeakInternal is the simulator's live-byte peak (lower bound) under
	// the same alias plan this layout was built with.
	PeakInternal int64
	// Alias is the storage-class plan the layout honors; nil when aliasing
	// is off (every tensor owned, the classic layout).
	Alias *AliasPlan
}

// Fragmentation returns ArenaBytes/PeakInternal − 1: the fraction of arena
// space lost to static-layout constraints (0 = perfect reuse).
func (a Assignment) Fragmentation() float64 {
	if a.PeakInternal == 0 {
		return 0
	}
	return float64(a.ArenaBytes)/float64(a.PeakInternal) - 1
}

// MaxWorkspace returns the largest kernel workspace of any node at the
// layout's batch size: the scratch a run needs on top of the arena.
func (a Assignment) MaxWorkspace() int64 {
	var ws int64
	for _, n := range a.Graph.Nodes {
		ws = max(ws, Workspace(n, a.Batch))
	}
	return ws
}

// Layouts holds the two arena layouts that cover every batch size of one
// graph. Above batch 1 the alias plan does not depend on the batch
// (concat inputs become views only at batch 1, where their rows are
// contiguous; flatten views and in-place runs hold at any batch), and
// every tensor's size is the batch times its per-sample size. The
// largest-first best-fit placement therefore makes the same choices at
// every n > 1, and AssignOffsets(g, n) is exactly n times one per-sample
// layout: offsets, arena size and live peak alike. Batch 1 keeps a layout
// of its own, with its concat views.
type Layouts struct {
	one Assignment
	// perSample is the batch-2 layout; At scales it by n/2 (every byte
	// quantity in it is a multiple of 2).
	perSample Assignment
}

// PlanLayouts plans and checks both layouts of g. It is the only offset
// assignment a compiled graph needs: At serves any batch size from them.
func PlanLayouts(g *ir.Graph) (Layouts, error) {
	l := Layouts{one: AssignOffsets(g, 1), perSample: AssignOffsets(g, 2)}
	if err := l.one.Check(); err != nil {
		return Layouts{}, err
	}
	if err := l.perSample.Check(); err != nil {
		return Layouts{}, err
	}
	return l, nil
}

// At returns the layout for a batch size ≥ 1, equal to AssignOffsets(g,
// batch), in O(nodes): the batch-1 layout, or the per-sample layout
// scaled to batch.
func (l Layouts) At(batch int) Assignment {
	if batch == 1 {
		return l.one
	}
	a := l.perSample
	scale := func(x int64) int64 { return x / int64(a.Batch) * int64(batch) }
	out := Assignment{Graph: a.Graph, Batch: batch, Offsets: make(map[*ir.Node]int64, len(a.Offsets)),
		ArenaBytes: scale(a.ArenaBytes), PeakInternal: scale(a.PeakInternal), Alias: a.Alias.scaled(batch)}
	for n, off := range a.Offsets {
		out.Offsets[n] = scale(off)
	}
	return out
}

type interval struct {
	node       *ir.Node
	begin, end int
	size       int64
	offset     int64
}

// AssignOffsets computes a greedy best-fit arena layout for g's internal
// tensors at the given batch size, honoring the alias-aware storage plan
// when aliasing is enabled (TEMCO_NOALIAS=1 or SetAliasing(false) restores
// the classic one-region-per-tensor layout). Owned tensors are placed in
// decreasing size order (the heuristic [31] reports best results with);
// each is placed at the lowest offset where it fits below or between
// already-placed tensors whose lifetimes overlap its own.
func AssignOffsets(g *ir.Graph, batch int) Assignment {
	return assignOffsets(g, batch, BuildAliasPlan(g, batch))
}

// AssignOffsetsNoAlias computes the classic layout with every tensor
// owned, regardless of the aliasing switch. Comparisons and bisection use
// it as the baseline.
func AssignOffsetsNoAlias(g *ir.Graph, batch int) Assignment {
	return assignOffsets(g, batch, nil)
}

func assignOffsets(g *ir.Graph, batch int, plan *AliasPlan) Assignment {
	live := Analyze(g)
	p := SimulateAlias(g, batch, 0, plan)
	// One interval per owned storage root, spanning every sharer.
	roots := rootIntervals(g, plan, live)
	ivs := make([]*interval, 0, len(roots))
	for r, be := range roots {
		ivs = append(ivs, &interval{node: r, begin: be[0], end: be[1], size: r.OutBytes(batch)})
	}
	// Largest first; ties by definition order for determinism.
	sort.SliceStable(ivs, func(i, j int) bool {
		if ivs[i].size != ivs[j].size {
			return ivs[i].size > ivs[j].size
		}
		if ivs[i].begin != ivs[j].begin {
			return ivs[i].begin < ivs[j].begin
		}
		return ivs[i].node.ID < ivs[j].node.ID
	})
	var placed []*interval
	var arena int64
	for _, iv := range ivs {
		// Collect the offset ranges blocked by lifetime-overlapping placed
		// tensors, sorted by offset.
		var blocks []*interval
		for _, q := range placed {
			if overlaps(iv, q) {
				blocks = append(blocks, q)
			}
		}
		sort.Slice(blocks, func(i, j int) bool { return blocks[i].offset < blocks[j].offset })
		// Best-fit: lowest gap that holds the tensor.
		var off int64
		for _, q := range blocks {
			if q.offset-off >= iv.size {
				break
			}
			if q.offset+q.size > off {
				off = q.offset + q.size
			}
		}
		iv.offset = off
		if off+iv.size > arena {
			arena = off + iv.size
		}
		placed = append(placed, iv)
	}
	out := Assignment{Graph: g, Batch: batch, Offsets: make(map[*ir.Node]int64, len(g.Nodes)),
		ArenaBytes: arena, PeakInternal: p.PeakInternal, Alias: plan}
	rootOff := make(map[*ir.Node]int64, len(ivs))
	for _, iv := range ivs {
		rootOff[iv.node] = iv.offset
	}
	for _, n := range g.Nodes {
		if plan == nil {
			out.Offsets[n] = rootOff[n]
			continue
		}
		r, rel := plan.Root(n)
		out.Offsets[n] = rootOff[r] + rel
	}
	return out
}

// overlaps reports whether two tensors are ever live simultaneously. A
// tensor is live from its defining slot through its last-use slot.
func overlaps(a, b *interval) bool {
	return a.begin <= b.end && b.begin <= a.end
}

// Check verifies the layout. Owned regions with overlapping (extended)
// lifetimes must not intersect in the arena; view-classed tensors must sit
// exactly at their declared offset inside their root's region. It returns
// an error naming the first conflict.
func (a Assignment) Check() error {
	if err := a.Alias.Validate(); err != nil {
		return err
	}
	live := Analyze(a.Graph)
	rootIv := rootIntervals(a.Graph, a.Alias, live)
	// Views: exact placement inside the root, fully contained.
	for _, n := range a.Graph.Nodes {
		off, ok := a.Offsets[n]
		if !ok {
			return fmt.Errorf("memplan: %s has no arena offset", n)
		}
		if off+n.OutBytes(a.Batch) > a.ArenaBytes {
			return fmt.Errorf("memplan: %s exceeds arena: %d+%d > %d", n, off, n.OutBytes(a.Batch), a.ArenaBytes)
		}
		if a.Alias == nil {
			continue
		}
		r, rel := a.Alias.Root(n)
		if a.Offsets[n] != a.Offsets[r]+rel {
			return fmt.Errorf("memplan: view %s at offset %d, declared %d inside root %s at %d",
				n, a.Offsets[n], rel, r, a.Offsets[r])
		}
		if rel+n.OutBytes(a.Batch) > r.OutBytes(a.Batch) {
			return fmt.Errorf("memplan: view %s overflows root %s", n, r)
		}
	}
	// Owned roots: pairwise disjoint when simultaneously live.
	roots := make([]*ir.Node, 0, len(rootIv))
	for r := range rootIv {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ID < roots[j].ID })
	for i, n := range roots {
		be := rootIv[n]
		ni := interval{begin: be[0], end: be[1], size: n.OutBytes(a.Batch), offset: a.Offsets[n]}
		for _, m := range roots[i+1:] {
			mbe := rootIv[m]
			mi := interval{begin: mbe[0], end: mbe[1], size: m.OutBytes(a.Batch), offset: a.Offsets[m]}
			if overlaps(&ni, &mi) && ni.offset < mi.offset+mi.size && mi.offset < ni.offset+ni.size {
				return fmt.Errorf("memplan: %s and %s overlap in arena and in time", n, m)
			}
		}
	}
	return nil
}
