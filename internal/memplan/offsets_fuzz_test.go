package memplan

// Property-based check of the static arena layout: for arbitrary graphs,
// AssignOffsets must place every pair of simultaneously-live tensors in
// disjoint byte ranges — except where the alias plan *declares* an overlap
// (a view inside its root's region, at exactly the declared offset) — and
// the arena it claims must sit between the simulator's live-byte peak
// (Eq. 3/4 lower bound) and the no-reuse sum of all tensor sizes. Both the
// default (alias-aware) and the explicit no-alias layout are checked. The
// fuzz corpus doubles as a regression suite under plain `go test` (seed
// entries run without -fuzz).

import (
	"testing"

	"temco/internal/ir"
)

// fuzzGraph decodes a byte string into a graph: each byte appends one
// layer to a chain whose recent nodes can also be rejoined through Add,
// Concat, and skip-style reuse, so liveness intervals genuinely overlap.
// Every decode is total — any byte string yields a valid graph.
func fuzzGraph(data []byte) *ir.Graph {
	b := ir.NewBuilder("fuzz", 1)
	// Small spatial dims keep OutBytes varied but cheap.
	cur := b.Input(int(data[0]%7)+1, 8, 8)
	recent := []*ir.Node{cur}
	spatial := 8 // track H=W so pooling never underflows
	for _, op := range data[1:] {
		switch op % 10 {
		case 0:
			cur = b.Conv(cur, int(op/10)%8+1, 3, 1, 1)
		case 1:
			cur = b.Conv(cur, int(op/10)%8+1, 1, 1, 0)
		case 2:
			cur = b.ReLU(cur)
		case 3:
			cur = b.BatchNorm(cur)
		case 4:
			if spatial >= 2 {
				cur = b.MaxPool(cur, 2, 2)
				spatial /= 2
			} else {
				cur = b.SiLU(cur)
			}
		case 5:
			if spatial <= 8 {
				cur = b.Upsample(cur, 2)
				spatial *= 2
			} else {
				cur = b.Sigmoid(cur)
			}
		case 6:
			// Skip-style rejoin: Add needs identical shapes, so add a
			// same-shape conv of cur instead of an older node.
			cur = b.Add(cur, b.Conv(cur, cur.Shape[0], 3, 1, 1))
		case 7:
			// Concat with an earlier same-spatial node when one exists.
			prev := cur
			for _, r := range recent {
				if r.Shape[1] == cur.Shape[1] && r.Shape[2] == cur.Shape[2] {
					prev = r
					break
				}
			}
			cur = b.Concat(cur, prev)
		case 8:
			cur = b.SiLU(cur)
		case 9:
			cur = b.Conv(cur, int(op/10)%4+1, 3, 2, 1)
			spatial = (spatial + 1) / 2
			if spatial < 1 {
				spatial = 1
			}
		}
		recent = append(recent, cur)
		if len(recent) > 4 {
			recent = recent[1:]
		}
	}
	b.Output(cur)
	return b.G
}

func checkAssignment(t *testing.T, g *ir.Graph, batch int) {
	t.Helper()
	checkLayout(t, g, AssignOffsets(g, batch), batch)
	// The explicit baseline must satisfy the same properties with every
	// tensor owned — and must really be alias-free.
	na := AssignOffsetsNoAlias(g, batch)
	if na.Alias != nil {
		t.Fatalf("AssignOffsetsNoAlias carries an alias plan")
	}
	checkLayout(t, g, na, batch)
}

func checkLayout(t *testing.T, g *ir.Graph, a Assignment, batch int) {
	t.Helper()
	if err := a.Check(); err != nil {
		t.Fatalf("batch %d: %v", batch, err)
	}
	// Independent re-derivation of the overlap properties, not trusting
	// Check's interval math: walk the declared view chains one hop at a
	// time (bounded, so a cyclic plan fails instead of hanging) to find
	// every node's storage root and offset inside it.
	live := Analyze(g)
	rootOf := make(map[*ir.Node]*ir.Node, len(g.Nodes))
	relOf := make(map[*ir.Node]int64, len(g.Nodes))
	for _, n := range g.Nodes {
		r, rel := n, int64(0)
		for hops := 0; ; hops++ {
			if hops > len(g.Nodes) {
				t.Fatalf("view chain from %s does not terminate", n)
			}
			s := a.Alias.StorageOf(r)
			if s.Class == StorageOwned {
				break
			}
			rel += s.ByteOff
			r = s.Base
		}
		rootOf[n], relOf[n] = r, rel
	}
	var sum int64
	for _, n := range g.Nodes {
		off, ok := a.Offsets[n]
		if !ok {
			t.Fatalf("node %s has no offset", n)
		}
		if off < 0 || off%4 != 0 {
			t.Fatalf("node %s offset %d: negative or unaligned", n, off)
		}
		size := n.OutBytes(batch)
		sum += size
		if off+size > a.ArenaBytes {
			t.Fatalf("node %s [%d, %d) exceeds arena %d", n, off, off+size, a.ArenaBytes)
		}
		// A view's overlap is accepted only as declared: exactly at its
		// offset inside the root, fully contained.
		r := rootOf[n]
		if off != a.Offsets[r]+relOf[n] {
			t.Fatalf("view %s at %d, declared %d inside root %s at %d",
				n, off, relOf[n], r, a.Offsets[r])
		}
		if relOf[n]+size > r.OutBytes(batch) {
			t.Fatalf("view %s [%d,+%d) overflows root %s (%d bytes)",
				n, relOf[n], size, r, r.OutBytes(batch))
		}
	}
	// Any *accidental* overlap — two simultaneously-live tensors on
	// distinct storage roots sharing bytes — is rejected.
	for i, n := range g.Nodes {
		nb, ne := live.Begin[n], live.End[n]
		for _, m := range g.Nodes[i+1:] {
			if rootOf[n] == rootOf[m] {
				continue // declared sharing, verified exact above
			}
			mb, me := live.Begin[m], live.End[m]
			if nb > me || mb > ne {
				continue // lifetimes disjoint: may share bytes
			}
			no, mo := a.Offsets[n], a.Offsets[m]
			if no < mo+m.OutBytes(batch) && mo < no+n.OutBytes(batch) {
				t.Fatalf("live-overlapping %s [%d,+%d) and %s [%d,+%d) share arena bytes",
					n, no, n.OutBytes(batch), m, mo, m.OutBytes(batch))
			}
		}
	}
	// Stronger root-level restatement: owned regions must stay disjoint
	// over their *extended* intervals (a root is busy from the first
	// definition of any sharer — producers write their concat rows before
	// the concat's own slot — through the last use of any sharer).
	ivs := make(map[*ir.Node][2]int)
	for _, n := range g.Nodes {
		r := rootOf[n]
		b, e := live.Begin[n], live.End[n]
		if e > len(g.Nodes) {
			e = len(g.Nodes)
		}
		cur, ok := ivs[r]
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
		ivs[r] = cur
	}
	roots := make([]*ir.Node, 0, len(ivs))
	for r := range ivs {
		roots = append(roots, r)
	}
	for i, n := range roots {
		for _, m := range roots[i+1:] {
			if ivs[n][0] > ivs[m][1] || ivs[m][0] > ivs[n][1] {
				continue
			}
			no, mo := a.Offsets[n], a.Offsets[m]
			if no < mo+m.OutBytes(batch) && mo < no+n.OutBytes(batch) {
				t.Fatalf("busy-overlapping roots %s and %s share arena bytes", n, m)
			}
		}
	}
	if a.ArenaBytes < a.PeakInternal {
		t.Fatalf("arena %d below the simulated live-byte peak %d", a.ArenaBytes, a.PeakInternal)
	}
	if a.ArenaBytes > sum {
		t.Fatalf("arena %d exceeds the no-reuse total %d", a.ArenaBytes, sum)
	}
	p := SimulateAlias(g, batch, 0, a.Alias)
	if a.PeakInternal != p.PeakInternal {
		t.Fatalf("assignment peak %d disagrees with simulator %d", a.PeakInternal, p.PeakInternal)
	}
	if a.Alias == nil {
		// Without a plan the alias simulator must reduce to the classic one.
		if s := Simulate(g, batch, 0); s.PeakInternal != p.PeakInternal {
			t.Fatalf("SimulateAlias(nil) peak %d disagrees with Simulate %d", p.PeakInternal, s.PeakInternal)
		}
	}
}

func FuzzAssignOffsets(f *testing.F) {
	f.Add([]byte{3, 0, 22, 64, 17, 96, 41, 7, 250, 13})
	f.Add([]byte{1, 6, 6, 7, 4, 0, 5, 7, 9, 2, 3, 66, 77, 88})
	f.Add([]byte{5})
	f.Add([]byte{255, 9, 9, 9, 4, 4, 4, 7, 6, 1, 0, 128, 200, 33, 14})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 48 {
			t.Skip() // empty has no input byte; long chains just cost time
		}
		g := fuzzGraph(data)
		if err := g.Validate(); err != nil {
			t.Fatalf("generator produced an invalid graph: %v", err)
		}
		for _, batch := range []int{1, 3} {
			checkAssignment(t, g, batch)
		}
		checkLayoutsAt(t, g)
	})
}
