package memplan

// Alias-aware storage planning (DESIGN.md §14). The classic planner gives
// every tensor its own arena region; this pass reclassifies tensors whose
// bytes can live inside another tensor's region:
//
//   - concat inputs become views at their row offset inside the concat
//     output, so producers write their rows directly into the destination
//     and the concat step stops copying them (VTC's virtual tensors);
//   - flatten outputs are identity views of their input;
//   - elementwise ops (relu, silu, sigmoid, batchnorm, add, softmax)
//     whose input storage is entirely at its last use run in place.
//
// The safety rule is conservative and proved per view, never guessed: a
// tensor may share storage only when every other tensor rooted at the same
// region is dead by the time the sharer's writer runs. Any condition that
// cannot be proved falls back to the copy. TEMCO_NOALIAS=1 (or
// SetAliasing(false)) disables the whole pass, mirroring TEMCO_NOSIMD:
// plans degrade to the classic one-region-per-tensor layout bit-for-bit.

import (
	"fmt"
	"os"

	"temco/internal/ir"
)

// aliasEnabled gates the alias-aware planner. Resolved from the
// environment once at init; tests flip it with SetAliasing.
var aliasEnabled = os.Getenv("TEMCO_NOALIAS") == ""

// AliasingEnabled reports whether alias-aware planning is active.
func AliasingEnabled() bool { return aliasEnabled }

// SetAliasing enables or disables alias-aware planning at runtime and
// returns the previous setting. It exists for tests and bisection
// (aliasing on vs off must be bit-identical; peak memory differs). Callers
// must not flip it concurrently with planning, and plans built under the
// old mode keep their storage classes.
func SetAliasing(on bool) bool {
	prev := aliasEnabled
	aliasEnabled = on
	return prev
}

// StorageClass says where a tensor's bytes live.
type StorageClass int

const (
	// StorageOwned tensors get their own arena region.
	StorageOwned StorageClass = iota
	// StorageView tensors live inside another tensor's region.
	StorageView
)

// Storage is one tensor's storage assignment. Views name their direct
// base and the byte offset of this tensor inside the base's tensor;
// chains (a view of a view) resolve through Root.
type Storage struct {
	Class   StorageClass
	Base    *ir.Node
	ByteOff int64
}

// AliasPlan maps every node of one (graph, batch) pair to its storage
// class. A nil *AliasPlan means aliasing is off and every tensor is owned.
type AliasPlan struct {
	Graph *ir.Graph
	Batch int
	// views holds the view assignments; absent nodes are owned.
	views map[*ir.Node]Storage
	// ConcatSkip marks, per concat node, the input indices whose rows are
	// views into the concat output (the concat step must not copy them).
	// Concats with no aliased inputs are absent.
	ConcatSkip map[*ir.Node][]bool

	// Views counts view-classed tensors; InPlace the subset that are
	// in-place elementwise results.
	Views   int
	InPlace int
	// EliminatedBytes is the memcpy the plan removes per run: the bytes of
	// aliased concat inputs and flatten views.
	EliminatedBytes int64
	// EliminatedCopies counts those removed copies.
	EliminatedCopies uint64
}

// StorageOf returns n's storage assignment (owned for nodes not in the
// plan and for nil plans).
func (p *AliasPlan) StorageOf(n *ir.Node) Storage {
	if p == nil {
		return Storage{Class: StorageOwned}
	}
	if s, ok := p.views[n]; ok {
		return s
	}
	return Storage{Class: StorageOwned}
}

// Root resolves n's storage to its owning tensor and n's byte offset
// inside it.
func (p *AliasPlan) Root(n *ir.Node) (*ir.Node, int64) {
	var off int64
	for {
		s := p.StorageOf(n)
		if s.Class == StorageOwned {
			return n, off
		}
		off += s.ByteOff
		n = s.Base
	}
}

// scaled returns the plan at another batch size above 1: the storage
// classes do not depend on the batch there, so only the byte quantities
// change. See Layouts.
func (p *AliasPlan) scaled(batch int) *AliasPlan {
	if p == nil {
		return nil
	}
	q := *p
	q.Batch = batch
	q.views = make(map[*ir.Node]Storage, len(p.views))
	for n, s := range p.views {
		s.ByteOff = s.ByteOff / int64(p.Batch) * int64(batch)
		q.views[n] = s
	}
	q.EliminatedBytes = p.EliminatedBytes / int64(p.Batch) * int64(batch)
	return &q
}

// inPlaceCandidates returns the inputs whose storage n's kernel may
// legally overwrite: ops that read element k of the candidate only to
// produce element k (before writing it), so running on shared storage
// reproduces the out-of-place result bit-for-bit — including under
// parallel workers, whose index ranges are disjoint.
func inPlaceCandidates(n *ir.Node) []*ir.Node {
	switch n.Kind {
	case ir.KindReLU, ir.KindSiLU, ir.KindSigmoid, ir.KindBatchNorm, ir.KindSoftmax:
		return n.Inputs[:1]
	case ir.KindAdd:
		// Either operand works: addRange reads a[i] and b[i] before
		// writing out[i].
		return n.Inputs
	default:
		return nil
	}
}

// BuildAliasPlan computes the storage assignment for g at the given batch
// size. It walks the schedule once, proving each candidate view with the
// liveness analysis; anything unproved stays owned (the executor copies).
// Returns nil when aliasing is disabled.
func BuildAliasPlan(g *ir.Graph, batch int) *AliasPlan {
	if !aliasEnabled {
		return nil
	}
	live := Analyze(g)
	p := &AliasPlan{
		Graph:      g,
		Batch:      batch,
		views:      make(map[*ir.Node]Storage),
		ConcatSkip: make(map[*ir.Node][]bool),
	}
	// group lists, per owned root, every node resolving to its storage
	// (the root included). Merged when a root is re-based into a concat.
	group := make(map[*ir.Node][]*ir.Node)
	members := func(r *ir.Node) []*ir.Node {
		if m, ok := group[r]; ok {
			return m
		}
		return []*ir.Node{r}
	}
	// setView classes n as a view of base. If n was itself a root with
	// views (re-basing a concat input), its whole group moves along.
	setView := func(n, base *ir.Node, off int64) {
		p.views[n] = Storage{Class: StorageView, Base: base, ByteOff: off}
		r, _ := p.Root(base)
		moved := members(n)
		group[r] = append(members(r), moved...)
		delete(group, n)
	}
	// deadBy reports whether every tensor sharing root r's storage is past
	// its last use at schedule slot i — the safety rule: the region may be
	// overwritten at slot i only if no sharer is read at or after slot i.
	// Graph outputs have End == len(Nodes) and therefore never pass.
	deadBy := func(r *ir.Node, i int) bool {
		for _, m := range members(r) {
			if live.End[m] > i {
				return false
			}
		}
		return true
	}

	for i, n := range g.Nodes {
		switch {
		case n.Kind == ir.KindFlatten:
			// Pure reshape: same bytes, same order. Always a view; reads
			// of the view are reads of the base, and any later writer of
			// the shared region is guarded by deadBy below.
			setView(n, n.Inputs[0], 0)
			p.Views++
			p.EliminatedBytes += n.OutBytes(batch)
			p.EliminatedCopies++

		case n.Kind == ir.KindConcat && batch == 1:
			// Channel concat rows are contiguous per sample only at batch
			// 1; at larger batches samples interleave and a flat view
			// cannot represent an input, so the copy stays.
			skip := make([]bool, len(n.Inputs))
			var off int64
			var any bool
			for j, x := range n.Inputs {
				sz := x.OutBytes(batch)
				// x must still own its storage: a tensor already living
				// inside another region (an earlier concat, an in-place
				// chain) cannot be relocated, and a repeated input
				// (concat(x,x)) aliases only its first occurrence.
				if p.StorageOf(x).Class == StorageOwned {
					setView(x, n, off)
					skip[j] = true
					any = true
					p.Views++
					p.EliminatedBytes += sz
					p.EliminatedCopies++
				}
				off += sz
			}
			if any {
				p.ConcatSkip[n] = skip
			}

		default:
			for _, cand := range inPlaceCandidates(n) {
				if n.OutBytes(batch) != cand.OutBytes(batch) {
					continue
				}
				r, _ := p.Root(cand)
				// The kernel overwrites the whole region: legal only when
				// every sharer (the candidate itself included — so this
				// must be its last use) is dead once slot i runs.
				if !deadBy(r, i) {
					continue
				}
				setView(n, cand, 0)
				p.Views++
				p.InPlace++
				break
			}
		}
	}
	return p
}

// rootIntervals maps every owned storage root of g under plan (every node
// when plan is nil) to its extended liveness: from the first definition of
// any sharer (producers write their rows into the region before the
// root's own slot) through the last use of any sharer.
func rootIntervals(g *ir.Graph, plan *AliasPlan, live Liveness) map[*ir.Node][2]int {
	iv := make(map[*ir.Node][2]int, len(g.Nodes))
	for _, n := range g.Nodes {
		r, _ := plan.Root(n)
		b, e := live.Begin[n], min(live.End[n], len(g.Nodes))
		cur, ok := iv[r]
		if !ok {
			cur = [2]int{b, e}
		} else {
			if b < cur[0] {
				cur[0] = b
			}
			if e > cur[1] {
				cur[1] = e
			}
		}
		iv[r] = cur
	}
	return iv
}

// Validate checks the plan's structural invariants: every view chain
// resolves to an owned root, and every view's bytes fit inside its root at
// the declared offset. Planning bugs must fail loudly, not corrupt
// inference.
func (p *AliasPlan) Validate() error {
	if p == nil {
		return nil
	}
	for _, n := range p.Graph.Nodes {
		r, off := p.Root(n)
		if p.StorageOf(r).Class != StorageOwned {
			return fmt.Errorf("memplan: alias root %s of %s is not owned", r, n)
		}
		if off < 0 || off%4 != 0 {
			return fmt.Errorf("memplan: view %s has bad offset %d in %s", n, off, r)
		}
		if off+n.OutBytes(p.Batch) > r.OutBytes(p.Batch) {
			return fmt.Errorf("memplan: view %s [%d,+%d) exceeds root %s (%d bytes)",
				n, off, n.OutBytes(p.Batch), r, r.OutBytes(p.Batch))
		}
	}
	return nil
}

// SimulateAlias replays g's schedule like Simulate, but charges storage
// per owned region over its extended lifetime: a root's bytes are live
// from the first definition of any sharer through the last use of any
// sharer, and views contribute nothing of their own. With a nil plan it
// reproduces Simulate exactly. The result's PeakInternal is the live-byte
// floor an alias-aware arena layout must cover.
func SimulateAlias(g *ir.Graph, batch, skipThreshold int, plan *AliasPlan) Profile {
	if plan == nil {
		return Simulate(g, batch, skipThreshold)
	}
	if skipThreshold <= 0 {
		skipThreshold = DefaultSkipThreshold
	}
	live := Analyze(g)
	iv := rootIntervals(g, plan, live)
	p := Profile{Graph: g, Batch: batch, WeightBytes: g.WeightBytes()}
	allocAt := make([][]*ir.Node, len(g.Nodes)+1)
	freeAt := make([][]*ir.Node, len(g.Nodes)+1)
	for r, be := range iv {
		allocAt[be[0]] = append(allocAt[be[0]], r)
		freeAt[be[1]] = append(freeAt[be[1]], r)
	}
	isSkip := func(n *ir.Node) bool { return live.Lifespan(n) > skipThreshold }
	var cur, curSkip int64
	for i, n := range g.Nodes {
		for _, r := range allocAt[i] {
			b := r.OutBytes(batch)
			cur += b
			if isSkip(r) {
				curSkip += b
			}
		}
		ws := Workspace(n, batch)
		p.Events = append(p.Events, Event{Index: i, Name: n.Name, Kind: n.Kind,
			LiveBytes: cur, SkipBytes: curSkip, WorkspaceBytes: ws})
		if cur > p.PeakInternal {
			p.PeakInternal = cur
			p.PeakSkipBytes = curSkip
			p.PeakIndex = i
		}
		if cur+ws > p.PeakWithWorkspace {
			p.PeakWithWorkspace = cur + ws
		}
		for _, r := range freeAt[i] {
			b := r.OutBytes(batch)
			cur -= b
			if isSkip(r) {
				curSkip -= b
			}
		}
	}
	return p
}
