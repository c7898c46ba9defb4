package ir

import (
	"fmt"

	"temco/internal/tensor"
)

// Graph is an ordered SSA layer list. Nodes appear in execution order; the
// order is the schedule the memory planner replays, exactly as the paper's
// Algorithm 1 takes "an ordered tensor node list L in SSA form".
type Graph struct {
	Name    string
	Nodes   []*Node
	Inputs  []*Node
	Outputs []*Node
	nextID  int
}

// NewGraph returns an empty graph.
func NewGraph(name string) *Graph {
	return &Graph{Name: name}
}

// NewID reserves a fresh node ID (used by passes that build nodes
// manually before splicing them into the schedule).
func (g *Graph) NewID() int {
	id := g.nextID
	g.nextID++
	return id
}

// ReserveIDs makes future NewID calls return values strictly greater than
// max. Loaders use it so post-load passes never collide with loaded IDs.
func (g *Graph) ReserveIDs(max int) {
	if max >= g.nextID {
		g.nextID = max + 1
	}
}

// Input appends a graph input with the given shape.
func (g *Graph) Input(name string, shape ...int) *Node {
	n := &Node{ID: g.NewID(), Name: name, Kind: KindInput, Shape: append([]int(nil), shape...)}
	g.Nodes = append(g.Nodes, n)
	g.Inputs = append(g.Inputs, n)
	return n
}

// Apply appends an operator node, inferring its output shape. It panics on
// malformed applications: model construction errors are programming errors.
func (g *Graph) Apply(kind Kind, name string, attrs any, inputs ...*Node) *Node {
	shapes := make([][]int, len(inputs))
	for i, in := range inputs {
		shapes[i] = in.Shape
	}
	shape, err := InferShape(kind, attrs, shapes)
	if err != nil {
		panic(fmt.Sprintf("ir: %s/%s: %v", g.Name, name, err))
	}
	n := &Node{ID: g.NewID(), Name: name, Kind: kind, Inputs: append([]*Node(nil), inputs...), Attrs: attrs, Shape: shape}
	g.Nodes = append(g.Nodes, n)
	return n
}

// MarkOutput declares n a graph output (live until the end of inference).
func (g *Graph) MarkOutput(n *Node) {
	g.Outputs = append(g.Outputs, n)
}

// Index returns a map from node pointer to schedule position.
func (g *Graph) Index() map[*Node]int {
	idx := make(map[*Node]int, len(g.Nodes))
	for i, n := range g.Nodes {
		idx[n] = i
	}
	return idx
}

// Succs returns the successor lists of the program dependence graph:
// for each node, the nodes that consume its output, in schedule order.
func (g *Graph) Succs() map[*Node][]*Node {
	s := make(map[*Node][]*Node, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			s[in] = append(s[in], n)
		}
	}
	return s
}

// UseCounts returns the number of consumers of each node, counting graph
// outputs as an extra use (they stay live to the end).
func (g *Graph) UseCounts() map[*Node]int {
	u := make(map[*Node]int, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			u[in]++
		}
	}
	for _, o := range g.Outputs {
		u[o]++
	}
	return u
}

// Validate checks SSA and schedule invariants: every input of a node is
// defined earlier in the list, IDs are unique, shapes are consistent with
// re-running inference, and outputs are graph members.
func (g *Graph) Validate() error {
	pos := make(map[*Node]int, len(g.Nodes))
	ids := make(map[int]bool, len(g.Nodes))
	for i, n := range g.Nodes {
		if ids[n.ID] {
			return fmt.Errorf("%s: duplicate node ID %d (%s)", g.Name, n.ID, n.Name)
		}
		ids[n.ID] = true
		for _, in := range n.Inputs {
			j, ok := pos[in]
			if !ok {
				return fmt.Errorf("%s: node %s uses %s which is not defined before it", g.Name, n, in)
			}
			if j >= i {
				return fmt.Errorf("%s: node %s uses %s defined at a later position", g.Name, n, in)
			}
		}
		if n.Kind != KindInput {
			shapes := make([][]int, len(n.Inputs))
			for k, in := range n.Inputs {
				shapes[k] = in.Shape
			}
			want, err := InferShape(n.Kind, n.Attrs, shapes)
			if err != nil {
				return fmt.Errorf("%s: node %s: %v", g.Name, n, err)
			}
			if !shapeEq(want, n.Shape) {
				return fmt.Errorf("%s: node %s has stale shape %v, inference says %v", g.Name, n, n.Shape, want)
			}
			if err := checkParams(n); err != nil {
				return fmt.Errorf("%s: node %s: %w", g.Name, n, err)
			}
		}
		pos[n] = i
	}
	for _, o := range g.Outputs {
		if _, ok := pos[o]; !ok {
			return fmt.Errorf("%s: output %s is not in the node list", g.Name, o)
		}
	}
	for _, in := range g.Inputs {
		if _, ok := pos[in]; !ok {
			return fmt.Errorf("%s: input %s is not in the node list", g.Name, in)
		}
	}
	return nil
}

// InsertBefore splices newNodes into the schedule immediately before node
// at. It panics if at is not in the graph.
func (g *Graph) InsertBefore(at *Node, newNodes ...*Node) {
	idx := -1
	for i, n := range g.Nodes {
		if n == at {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("ir: InsertBefore: node %s not in graph %s", at, g.Name))
	}
	out := make([]*Node, 0, len(g.Nodes)+len(newNodes))
	out = append(out, g.Nodes[:idx]...)
	out = append(out, newNodes...)
	out = append(out, g.Nodes[idx:]...)
	g.Nodes = out
}

// ReplaceUsesIn rewrites consumer's input edges from old to new.
func ReplaceUsesIn(consumer *Node, old, new *Node) {
	for i, in := range consumer.Inputs {
		if in == old {
			consumer.Inputs[i] = new
		}
	}
}

// ReplaceAllUses rewrites every use of old (including graph outputs) to new.
func (g *Graph) ReplaceAllUses(old, new *Node) {
	for _, n := range g.Nodes {
		ReplaceUsesIn(n, old, new)
	}
	for i, o := range g.Outputs {
		if o == old {
			g.Outputs[i] = new
		}
	}
}

// DeadCodeElim removes nodes whose outputs are unreachable from the graph
// outputs (graph inputs are always retained). It returns the number of
// nodes removed. Skip-connection optimization relies on this to delete the
// original restore chains once every use has been rematerialized.
func (g *Graph) DeadCodeElim() int {
	live := make(map[*Node]bool, len(g.Nodes))
	var mark func(n *Node)
	mark = func(n *Node) {
		if live[n] {
			return
		}
		live[n] = true
		for _, in := range n.Inputs {
			mark(in)
		}
	}
	for _, o := range g.Outputs {
		mark(o)
	}
	for _, in := range g.Inputs {
		live[in] = true
	}
	kept := g.Nodes[:0]
	removed := 0
	for _, n := range g.Nodes {
		if live[n] {
			kept = append(kept, n)
		} else {
			removed++
		}
	}
	g.Nodes = kept
	return removed
}

// Clone deep-copies the graph structure. Weight tensors are shared (they
// are immutable at inference time), node structs are fresh, so passes can
// rewrite the clone without touching the original.
func (g *Graph) Clone() *Graph {
	ng := &Graph{Name: g.Name, nextID: g.nextID}
	m := make(map[*Node]*Node, len(g.Nodes))
	for _, n := range g.Nodes {
		c := &Node{
			ID: n.ID, Name: n.Name, Kind: n.Kind,
			Attrs: cloneAttrs(n.Attrs),
			W:     n.W, B: n.B,
			Shape: append([]int(nil), n.Shape...),
			Role:  n.Role,
		}
		c.Inputs = make([]*Node, len(n.Inputs))
		for i, in := range n.Inputs {
			c.Inputs[i] = m[in]
		}
		m[n] = c
		ng.Nodes = append(ng.Nodes, c)
	}
	for _, in := range g.Inputs {
		ng.Inputs = append(ng.Inputs, m[in])
	}
	for _, o := range g.Outputs {
		ng.Outputs = append(ng.Outputs, m[o])
	}
	return ng
}

// CloneAttrs deep-copies an operator attribute struct. Passes use it when
// duplicating nodes (e.g. skip-connection rematerialization).
func CloneAttrs(a any) any { return cloneAttrs(a) }

func cloneAttrs(a any) any {
	switch v := a.(type) {
	case nil:
		return nil
	case *ConvAttrs:
		c := *v
		c.Blocks = cloneBlocks(v.Blocks)
		return &c
	case *PoolAttrs:
		c := *v
		return &c
	case *LinearAttrs:
		c := *v
		return &c
	case *UpsampleAttrs:
		c := *v
		return &c
	case *BatchNormAttrs:
		c := *v
		return &c
	case *FusedAttrs:
		c := *v
		if v.Pool != nil {
			p := *v.Pool
			c.Pool = &p
		}
		c.LBlocks = cloneBlocks(v.LBlocks)
		return &c
	default:
		panic(fmt.Sprintf("ir: cloneAttrs: unknown attrs type %T", a))
	}
}

func cloneBlocks(b []ConvBlock) []ConvBlock {
	if b == nil {
		return nil
	}
	return append([]ConvBlock(nil), b...)
}

// WeightBytes sums the parameter footprint of the whole graph.
func (g *Graph) WeightBytes() int64 {
	var b int64
	for _, n := range g.Nodes {
		b += n.WeightBytes()
	}
	return b
}

// NodeByName returns the first node with the given name, or nil.
func (g *Graph) NodeByName(name string) *Node {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// checkParams verifies a node's parameter tensors match its attrs.
func checkParams(n *Node) error {
	switch n.Kind {
	case KindConv2D:
		a := n.Conv()
		g := a.Groups
		if g == 0 {
			g = 1
		}
		want := a.OutC * (a.InC / g) * a.KH * a.KW
		if a.Blocks != nil {
			if a.KH != 1 || a.KW != 1 || a.SH != 1 || a.SW != 1 || a.PH != 0 || a.PW != 0 || g != 1 {
				return fmt.Errorf("conv blocks need a 1×1 stride-1 unpadded ungrouped conv")
			}
			var err error
			if want, err = checkBlocks(a.Blocks, a.InC, a.OutC); err != nil {
				return fmt.Errorf("conv %w", err)
			}
		}
		if n.W == nil || n.W.Len() != want {
			return fmt.Errorf("conv weight has %d elems, attrs imply %d", tlen(n.W), want)
		}
		if n.B != nil && n.B.Len() != a.OutC {
			return fmt.Errorf("conv bias has %d elems, attrs imply %d", n.B.Len(), a.OutC)
		}
	case KindLinear:
		a := n.Attrs.(*LinearAttrs)
		if n.W == nil || n.W.Len() != a.In*a.Out {
			return fmt.Errorf("linear weight has %d elems, attrs imply %d", tlen(n.W), a.In*a.Out)
		}
	case KindBatchNorm:
		a := n.Attrs.(*BatchNormAttrs)
		if n.W == nil || n.W.Len() != a.C || n.B == nil || n.B.Len() != a.C {
			return fmt.Errorf("batchnorm params do not match %d channels", a.C)
		}
	case KindFused:
		a := n.Fused()
		want := a.MidC * a.InC
		if a.LBlocks != nil {
			var err error
			if want, err = checkBlocks(a.LBlocks, a.InC, a.MidC); err != nil {
				return fmt.Errorf("fused lconv %w", err)
			}
		}
		if a.LW == nil || a.LW.Len() != want {
			return fmt.Errorf("fused lconv weight has %d elems, attrs imply %d", tlen(a.LW), want)
		}
		if a.FW == nil {
			if a.OutC != a.MidC {
				return fmt.Errorf("tail fusion emits %d channels, want MidC=%d", a.OutC, a.MidC)
			}
		} else if a.FW.Len() != a.OutC*a.MidC {
			return fmt.Errorf("fused fconv weight has %d elems, attrs imply %d", tlen(a.FW), a.OutC*a.MidC)
		}
	}
	return nil
}

func tlen(t *tensor.Tensor) int {
	if t == nil {
		return 0
	}
	return t.Len()
}
