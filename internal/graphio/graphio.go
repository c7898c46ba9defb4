// Package graphio serializes layer graphs (structure + weights) to a
// self-contained JSON envelope with base64 tensor payloads, so compiled
// models survive process boundaries: cmd/temco can compile once and a
// deployment binary can load and run the optimized graph.
package graphio

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"temco/internal/guard"
	"temco/internal/ir"
	"temco/internal/tensor"
)

// FormatVersion identifies the envelope layout.
const FormatVersion = 1

// DefaultMaxWeightBytes caps the total decoded tensor payload of one
// envelope (2 GiB) unless LoadOptions raises or lowers it.
const DefaultMaxWeightBytes = 2 << 30

// LoadOptions tunes the defensive limits of Load.
type LoadOptions struct {
	// MaxWeightBytes bounds the total decoded tensor payload; ≤ 0 means
	// DefaultMaxWeightBytes.
	MaxWeightBytes int64
}

type envelope struct {
	Version int        `json:"version"`
	Name    string     `json:"name"`
	Nodes   []nodeJSON `json:"nodes"`
	Inputs  []int      `json:"inputs"`
	Outputs []int      `json:"outputs"`
}

type nodeJSON struct {
	ID     int        `json:"id"`
	Name   string     `json:"name"`
	Kind   string     `json:"kind"`
	Inputs []int      `json:"inputs,omitempty"`
	Shape  []int      `json:"shape"`
	Role   string     `json:"role,omitempty"`
	Attrs  *attrsJSON `json:"attrs,omitempty"`
	W      *tensJSON  `json:"w,omitempty"`
	B      *tensJSON  `json:"b,omitempty"`
}

// attrsJSON is a tagged union over the operator attribute structs.
type attrsJSON struct {
	Type string `json:"type"`

	Conv   *ir.ConvAttrs      `json:"conv,omitempty"`
	Pool   *ir.PoolAttrs      `json:"pool,omitempty"`
	Linear *ir.LinearAttrs    `json:"linear,omitempty"`
	Up     *ir.UpsampleAttrs  `json:"up,omitempty"`
	BN     *ir.BatchNormAttrs `json:"bn,omitempty"`
	Fused  *fusedJSON         `json:"fused,omitempty"`
}

type fusedJSON struct {
	InC      int            `json:"inC"`
	MidC     int            `json:"midC"`
	OutC     int            `json:"outC"`
	Act      string         `json:"act"`
	Pool     *ir.PoolAttrs  `json:"pool,omitempty"`
	PoolKind string         `json:"poolKind,omitempty"`
	LW       *tensJSON      `json:"lw"`
	LB       *tensJSON      `json:"lb,omitempty"`
	FW       *tensJSON      `json:"fw,omitempty"`
	FB       *tensJSON      `json:"fb,omitempty"`
	LBlocks  []ir.ConvBlock `json:"lblocks,omitempty"`
}

type tensJSON struct {
	Shape []int  `json:"shape"`
	Data  string `json:"data"` // little-endian float32, base64
}

var kindByName = func() map[string]ir.Kind {
	m := make(map[string]ir.Kind)
	for k := ir.KindInput; k <= ir.KindFused; k++ {
		m[k.String()] = k
	}
	return m
}()

var roleByName = map[string]ir.Role{
	"none": ir.RoleNone, "fconv": ir.RoleFConv, "core": ir.RoleCore, "lconv": ir.RoleLConv,
}

func encodeTensor(t *tensor.Tensor) *tensJSON {
	if t == nil {
		return nil
	}
	buf := make([]byte, 4*len(t.Data))
	for i, v := range t.Data {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return &tensJSON{Shape: t.Shape, Data: base64.StdEncoding.EncodeToString(buf)}
}

// decoder carries the defensive state of one Load: the remaining tensor
// payload budget.
type decoder struct {
	remaining int64
}

// decodeTensor validates an untrusted tensor against its declared shape
// before allocating anything shape-sized: dimensions must be non-negative,
// the element count must not overflow, the payload length must match the
// shape exactly, and the running total must stay within the weight budget.
func (d *decoder) decodeTensor(j *tensJSON) (*tensor.Tensor, error) {
	if j == nil {
		return nil, nil
	}
	elems, err := tensor.CheckedNumElems(j.Shape)
	if err != nil {
		return nil, fmt.Errorf("graphio: bad tensor shape: %w", err)
	}
	if elems > math.MaxInt/4 {
		return nil, fmt.Errorf("graphio: tensor shape %v exceeds addressable bytes", j.Shape)
	}
	raw, err := base64.StdEncoding.DecodeString(j.Data)
	if err != nil {
		return nil, fmt.Errorf("graphio: bad tensor payload: %w", err)
	}
	if len(raw) != 4*elems {
		return nil, fmt.Errorf("graphio: tensor payload %d bytes does not match shape %v", len(raw), j.Shape)
	}
	if d.remaining -= int64(len(raw)); d.remaining < 0 {
		return nil, fmt.Errorf("graphio: total weight payload exceeds the configured limit")
	}
	t := tensor.New(j.Shape...)
	for i := range t.Data {
		t.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return t, nil
}

func encodeAttrs(n *ir.Node) (*attrsJSON, error) {
	switch a := n.Attrs.(type) {
	case nil:
		return nil, nil
	case *ir.ConvAttrs:
		return &attrsJSON{Type: "conv", Conv: a}, nil
	case *ir.PoolAttrs:
		return &attrsJSON{Type: "pool", Pool: a}, nil
	case *ir.LinearAttrs:
		return &attrsJSON{Type: "linear", Linear: a}, nil
	case *ir.UpsampleAttrs:
		return &attrsJSON{Type: "up", Up: a}, nil
	case *ir.BatchNormAttrs:
		return &attrsJSON{Type: "bn", BN: a}, nil
	case *ir.FusedAttrs:
		f := &fusedJSON{
			InC: a.InC, MidC: a.MidC, OutC: a.OutC, Act: a.Act.String(),
			Pool: a.Pool,
			LW:   encodeTensor(a.LW), LB: encodeTensor(a.LB),
			FW: encodeTensor(a.FW), FB: encodeTensor(a.FB),
			LBlocks: a.LBlocks,
		}
		if a.Pool != nil {
			f.PoolKind = a.PoolKind.String()
		}
		return &attrsJSON{Type: "fused", Fused: f}, nil
	default:
		return nil, fmt.Errorf("graphio: unknown attrs type %T on %s", n.Attrs, n)
	}
}

// decodeAttrs resolves the tagged union defensively: the payload matching
// the tag must be present (a tag with a missing payload would otherwise
// decode to a typed nil pointer and crash shape inference later).
func (d *decoder) decodeAttrs(j *attrsJSON) (any, error) {
	if j == nil {
		return nil, nil
	}
	missing := func() error { return fmt.Errorf("graphio: attrs tagged %q have no %s payload", j.Type, j.Type) }
	switch j.Type {
	case "conv":
		if j.Conv == nil {
			return nil, missing()
		}
		return j.Conv, nil
	case "pool":
		if j.Pool == nil {
			return nil, missing()
		}
		return j.Pool, nil
	case "linear":
		if j.Linear == nil {
			return nil, missing()
		}
		return j.Linear, nil
	case "up":
		if j.Up == nil {
			return nil, missing()
		}
		return j.Up, nil
	case "bn":
		if j.BN == nil {
			return nil, missing()
		}
		return j.BN, nil
	case "fused":
		f := j.Fused
		if f == nil {
			return nil, missing()
		}
		act, ok := kindByName[f.Act]
		if !ok {
			return nil, fmt.Errorf("graphio: unknown activation %q", f.Act)
		}
		out := &ir.FusedAttrs{InC: f.InC, MidC: f.MidC, OutC: f.OutC, Act: act, Pool: f.Pool, LBlocks: f.LBlocks}
		if f.Pool != nil {
			pk, ok := kindByName[f.PoolKind]
			if !ok {
				return nil, fmt.Errorf("graphio: unknown pool kind %q", f.PoolKind)
			}
			out.PoolKind = pk
		}
		var err error
		if out.LW, err = d.decodeTensor(f.LW); err != nil {
			return nil, err
		}
		if out.LB, err = d.decodeTensor(f.LB); err != nil {
			return nil, err
		}
		if out.FW, err = d.decodeTensor(f.FW); err != nil {
			return nil, err
		}
		if out.FB, err = d.decodeTensor(f.FB); err != nil {
			return nil, err
		}
		return out, nil
	default:
		return nil, fmt.Errorf("graphio: unknown attrs tag %q", j.Type)
	}
}

// Save writes g (structure and weights) to w.
func Save(w io.Writer, g *ir.Graph) error {
	env := envelope{Version: FormatVersion, Name: g.Name}
	for _, n := range g.Nodes {
		attrs, err := encodeAttrs(n)
		if err != nil {
			return err
		}
		nj := nodeJSON{
			ID: n.ID, Name: n.Name, Kind: n.Kind.String(),
			Shape: n.Shape, Role: n.Role.String(), Attrs: attrs,
			W: encodeTensor(n.W), B: encodeTensor(n.B),
		}
		for _, in := range n.Inputs {
			nj.Inputs = append(nj.Inputs, in.ID)
		}
		env.Nodes = append(env.Nodes, nj)
	}
	for _, in := range g.Inputs {
		env.Inputs = append(env.Inputs, in.ID)
	}
	for _, o := range g.Outputs {
		env.Outputs = append(env.Outputs, o.ID)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(env)
}

// Load reads a graph written by Save and validates it with the default
// limits. See LoadWith for the hardening guarantees.
func Load(r io.Reader) (*ir.Graph, error) {
	return LoadWith(r, LoadOptions{})
}

// LoadWith reads a graph written by Save, treating the stream as untrusted:
// malformed or adversarial envelopes — out-of-range node references,
// negative or overflowing shape dimensions, payload/shape mismatches,
// unknown kinds or attribute tags, non-topological node order, payloads
// over the weight budget — return an error wrapping guard.ErrInvalidModel
// and never panic. As defense in depth, any panic escaping the decode is
// recovered into the same error kind.
func LoadWith(r io.Reader, opts LoadOptions) (g *ir.Graph, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			g = nil
			err = guard.Errorf(guard.ErrInvalidModel, "graphio.Load", "panic during decode: %v", rec)
		}
	}()
	g, err = load(r, opts)
	if err != nil {
		return nil, guard.New(guard.ErrInvalidModel, "graphio.Load", err)
	}
	return g, nil
}

func load(r io.Reader, opts LoadOptions) (*ir.Graph, error) {
	d := &decoder{remaining: opts.MaxWeightBytes}
	if d.remaining <= 0 {
		d.remaining = DefaultMaxWeightBytes
	}
	var env envelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	if env.Version != FormatVersion {
		return nil, fmt.Errorf("graphio: unsupported format version %d", env.Version)
	}
	g := ir.NewGraph(env.Name)
	byID := make(map[int]*ir.Node, len(env.Nodes))
	for _, nj := range env.Nodes {
		kind, ok := kindByName[nj.Kind]
		if !ok {
			return nil, fmt.Errorf("graphio: unknown kind %q", nj.Kind)
		}
		role, ok := roleByName[nj.Role]
		if !ok && nj.Role != "" {
			return nil, fmt.Errorf("graphio: unknown role %q", nj.Role)
		}
		if err := checkNodeShape(nj.Shape); err != nil {
			return nil, fmt.Errorf("graphio: node %s: %w", nj.Name, err)
		}
		attrs, err := d.decodeAttrs(nj.Attrs)
		if err != nil {
			return nil, err
		}
		w, err := d.decodeTensor(nj.W)
		if err != nil {
			return nil, err
		}
		b, err := d.decodeTensor(nj.B)
		if err != nil {
			return nil, err
		}
		n := &ir.Node{ID: nj.ID, Name: nj.Name, Kind: kind,
			Attrs: attrs, W: w, B: b,
			Shape: append([]int(nil), nj.Shape...), Role: role}
		// byID holds only earlier nodes, so forward, cyclic, and self
		// references are all rejected here: node order must be topological.
		for _, id := range nj.Inputs {
			in, ok := byID[id]
			if !ok {
				return nil, fmt.Errorf("graphio: node %s references undefined node %d", nj.Name, id)
			}
			n.Inputs = append(n.Inputs, in)
		}
		if _, dup := byID[nj.ID]; dup {
			return nil, fmt.Errorf("graphio: duplicate node ID %d (%s)", nj.ID, nj.Name)
		}
		byID[nj.ID] = n
		g.Nodes = append(g.Nodes, n)
	}
	for _, id := range env.Inputs {
		in, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("graphio: undefined input node %d", id)
		}
		g.Inputs = append(g.Inputs, in)
	}
	for _, id := range env.Outputs {
		o, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("graphio: undefined output node %d", id)
		}
		g.Outputs = append(g.Outputs, o)
	}
	// Reserve past the max ID so post-load passes can add nodes.
	g.ReserveIDs(maxNodeID(g))
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graphio: loaded graph invalid: %w", err)
	}
	return g, nil
}

// checkNodeShape validates a node's declared output shape: every dimension
// positive, rank bounded, element count within int range. Output shapes
// drive downstream allocations, so adversarial values must die here.
func checkNodeShape(shape []int) error {
	if len(shape) > 8 {
		return fmt.Errorf("shape rank %d exceeds limit", len(shape))
	}
	for _, dim := range shape {
		if dim < 1 {
			return fmt.Errorf("non-positive dimension in shape %v", shape)
		}
	}
	if _, err := tensor.CheckedNumElems(shape); err != nil {
		return err
	}
	return nil
}

func maxNodeID(g *ir.Graph) int {
	m := 0
	for _, n := range g.Nodes {
		if n.ID > m {
			m = n.ID
		}
	}
	return m
}
