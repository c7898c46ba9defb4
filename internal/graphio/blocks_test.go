package graphio

import (
	"encoding/base64"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"temco/internal/core"
	"temco/internal/exec"
	"temco/internal/ir"
	"temco/internal/tensor"
)

// blockConvEnvelope is a one-conv graph over a [4,4,4] input whose conv
// attrs are the given JSON and whose weight holds wElems zeros.
func blockConvEnvelope(conv string, wElems int) string {
	return `{"version":1,"name":"x","nodes":[{"id":0,"name":"a","kind":"input","shape":[4,4,4]},` +
		`{"id":1,"name":"c","kind":"conv2d","inputs":[0],"shape":[6,4,4],"attrs":{"type":"conv","conv":` + conv + `},` +
		`"w":{"shape":[` + strconv.Itoa(wElems) + `],"data":"` + zeros(wElems) + `"}}],"inputs":[0],"outputs":[1]}`
}

// blockFusedEnvelope is one tail-fused node over a [3,4,4] input whose
// lconv block list is the given JSON and whose lconv weight holds wElems
// zeros.
func blockFusedEnvelope(blocks string, wElems int) string {
	return `{"version":1,"name":"x","nodes":[{"id":0,"name":"a","kind":"input","shape":[3,4,4]},` +
		`{"id":1,"name":"f","kind":"fused","inputs":[0],"shape":[5,4,4],"attrs":{"type":"fused","fused":` +
		`{"inC":3,"midC":5,"outC":5,"act":"relu","lw":{"shape":[` + strconv.Itoa(wElems) + `],"data":"` + zeros(wElems) +
		`"},"lblocks":` + blocks + `}}}],"inputs":[0],"outputs":[1]}`
}

// zeros is the base64 payload of n float32 zeros.
func zeros(n int) string { return base64.StdEncoding.EncodeToString(make([]byte, 4*n)) }

// wellFormedBlockEnvelopes are the skeletons the malformed block cases of
// adversarialEnvelopes start from; they must load.
var wellFormedBlockEnvelopes = []string{
	blockConvEnvelope(`{"InC":4,"OutC":6,"KH":1,"KW":1,"SH":1,"SW":1,"Groups":1,"Blocks":[{"InC":1,"OutC":2},{"InC":3,"OutC":4}]}`, 14),
	blockFusedEnvelope(`[{"InC":1,"OutC":2},{"InC":2,"OutC":3}]`, 8),
}

func TestLoadWellFormedBlockEnvelopes(t *testing.T) {
	for i, env := range wellFormedBlockEnvelopes {
		if _, err := Load(strings.NewReader(env)); err != nil {
			t.Errorf("envelope %d: %v", i, err)
		}
	}
}

// TestRoundTripBlockGraph: merged lconvs keep their block lists through
// Save/Load, unfused (ConvAttrs.Blocks) and fused (FusedAttrs.LBlocks),
// and the loaded graphs compute the same bits.
func TestRoundTripBlockGraph(t *testing.T) {
	b := ir.NewBuilder("blocks", 3)
	in := b.Input(4, 8, 8)
	r1 := b.ConvNamed("red1", in, 3, 3, 3, 1, 1, 1, 1, 1)
	r2 := b.ConvNamed("red2", in, 5, 3, 3, 1, 1, 1, 1, 1)
	a1 := b.ReLU(b.ConvNamed("l1", r1, 24, 1, 1, 1, 1, 0, 0, 1))
	a2 := b.ReLU(b.ConvNamed("l2", r2, 40, 1, 1, 1, 1, 0, 0, 1))
	b.Output(b.ConvNamed("f", b.Concat(a1, a2), 8, 1, 1, 1, 1, 0, 0, 1))
	cfg := core.DefaultConfig()
	cfg.SkipOpt = false
	fused, _ := core.Optimize(b.G, cfg)
	cfg.Fusion = false
	unfused, st := core.Optimize(b.G, cfg)
	if st.MergedLConvs != 1 {
		t.Fatalf("merged lconvs = %d, want 1", st.MergedLConvs)
	}
	x := tensor.New(2, 4, 8, 8)
	x.FillNormal(tensor.NewRNG(4), 0, 1)
	for _, g := range []*ir.Graph{unfused, fused} {
		lg := roundTrip(t, g)
		blocks := 0
		for i, n := range g.Nodes {
			var want, got []ir.ConvBlock
			switch a := n.Attrs.(type) {
			case *ir.ConvAttrs:
				want, got = a.Blocks, lg.Nodes[i].Conv().Blocks
			case *ir.FusedAttrs:
				want, got = a.LBlocks, lg.Nodes[i].Fused().LBlocks
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: blocks %v came back as %v", n, want, got)
			}
			blocks += len(want)
		}
		if blocks != 2 {
			t.Fatalf("graph carries %d blocks, want the merged lconv's 2", blocks)
		}
		ra, err := exec.Run(g, x)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := exec.Run(lg, x)
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(ra.Outputs[0], rb.Outputs[0]); d != 0 {
			t.Fatalf("loaded block graph deviates by %v", d)
		}
	}
}
