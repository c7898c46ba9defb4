package graphio

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"temco/internal/guard"
	"temco/internal/ir"
)

// vggStyleGraph builds a narrow VGG-shaped classifier (conv-relu-pool
// stages, flatten, linear, softmax) — the structural vocabulary of the
// saved models, small enough to keep the fuzz corpus compact.
func vggStyleGraph() *ir.Graph {
	b := ir.NewBuilder("vgg-fuzz", 17)
	x := b.Input(3, 16, 16)
	x = b.MaxPool(b.ReLU(b.Conv(x, 8, 3, 1, 1)), 2, 2)
	x = b.MaxPool(b.ReLU(b.Conv(x, 16, 3, 1, 1)), 2, 2)
	x = b.Softmax(b.Linear(b.Flatten(x), 10))
	b.Output(x)
	return b.G
}

// adversarialEnvelopes is the shared corpus of corrupted inputs: every one
// must come back as an error wrapping guard.ErrInvalidModel, never a panic.
var adversarialEnvelopes = map[string]string{
	"garbage":          `not json`,
	"bad version":      `{"version":99,"name":"x"}`,
	"unknown kind":     `{"version":1,"name":"x","nodes":[{"id":0,"name":"a","kind":"warp","shape":[1,2,2]}]}`,
	"unknown attr tag": `{"version":1,"name":"x","nodes":[{"id":0,"name":"a","kind":"input","shape":[1,2,2],"attrs":{"type":"quantum"}}]}`,
	"attr tag without payload": `{"version":1,"name":"x","nodes":[{"id":0,"name":"a","kind":"input","shape":[3,4,4]},` +
		`{"id":1,"name":"c","kind":"conv2d","inputs":[0],"shape":[3,4,4],"attrs":{"type":"conv"}}]}`,
	"zero-stride conv": `{"version":1,"name":"x","nodes":[{"id":0,"name":"a","kind":"input","shape":[1,4,4]},` +
		`{"id":1,"name":"c","kind":"conv2d","inputs":[0],"shape":[1,4,4],` +
		`"attrs":{"type":"conv","conv":{"InC":1,"OutC":1,"KH":1,"KW":1,"SH":0,"SW":0}},` +
		`"w":{"shape":[1,1,1,1],"data":"AACAPw=="}}]}`,
	"forward node ref": `{"version":1,"name":"x","nodes":[{"id":0,"name":"a","kind":"relu","inputs":[5],"shape":[1,2,2]}]}`,
	"self node ref":    `{"version":1,"name":"x","nodes":[{"id":0,"name":"a","kind":"relu","inputs":[0],"shape":[1,2,2]}]}`,
	"duplicate node id": `{"version":1,"name":"x","nodes":[{"id":0,"name":"a","kind":"input","shape":[1,2,2]},` +
		`{"id":0,"name":"b","kind":"relu","inputs":[0],"shape":[1,2,2]}]}`,
	"undefined graph input":  `{"version":1,"name":"x","nodes":[],"inputs":[3]}`,
	"undefined graph output": `{"version":1,"name":"x","nodes":[],"outputs":[3]}`,
	"negative node dim":      `{"version":1,"name":"x","nodes":[{"id":0,"name":"a","kind":"input","shape":[-1,2,2]}]}`,
	"zero node dim":          `{"version":1,"name":"x","nodes":[{"id":0,"name":"a","kind":"input","shape":[0,2,2]}]}`,
	"overflowing node shape": `{"version":1,"name":"x","nodes":[{"id":0,"name":"a","kind":"input","shape":[4611686018427387904,4]}]}`,
	"excessive rank":         `{"version":1,"name":"x","nodes":[{"id":0,"name":"a","kind":"input","shape":[1,1,1,1,1,1,1,1,1]}]}`,
	"negative weight dim": `{"version":1,"name":"x","nodes":[{"id":0,"name":"a","kind":"input","shape":[1,2,2],` +
		`"w":{"shape":[-4],"data":""}}]}`,
	"truncated payload": `{"version":1,"name":"x","nodes":[{"id":0,"name":"a","kind":"input","shape":[1,2,2],` +
		`"w":{"shape":[2,2],"data":"AAAA"}}]}`,
	"payload not base64": `{"version":1,"name":"x","nodes":[{"id":0,"name":"a","kind":"input","shape":[1,2,2],` +
		`"w":{"shape":[1],"data":"????"}}]}`,
	"conv without weights":        `{"version":1,"name":"x","nodes":[{"id":0,"name":"a","kind":"conv2d","shape":[1],"role":"none"}]}`,
	"unknown role":                `{"version":1,"name":"x","nodes":[{"id":0,"name":"a","kind":"input","shape":[1,2,2],"role":"boss"}]}`,
	"conv blocks sum mismatch":    blockConvEnvelope(`{"InC":4,"OutC":6,"KH":1,"KW":1,"SH":1,"SW":1,"Groups":1,"Blocks":[{"InC":1,"OutC":2},{"InC":2,"OutC":4}]}`, 10),
	"conv zero-size block":        blockConvEnvelope(`{"InC":4,"OutC":6,"KH":1,"KW":1,"SH":1,"SW":1,"Groups":1,"Blocks":[{"InC":0,"OutC":2},{"InC":4,"OutC":4}]}`, 16),
	"conv negative block":         blockConvEnvelope(`{"InC":4,"OutC":6,"KH":1,"KW":1,"SH":1,"SW":1,"Groups":1,"Blocks":[{"InC":-1,"OutC":2},{"InC":5,"OutC":4}]}`, 18),
	"conv overflowing block":      blockConvEnvelope(`{"InC":4,"OutC":6,"KH":1,"KW":1,"SH":1,"SW":1,"Groups":1,"Blocks":[{"InC":4611686018427387904,"OutC":2},{"InC":4,"OutC":4}]}`, 16),
	"conv empty block list":       blockConvEnvelope(`{"InC":4,"OutC":6,"KH":1,"KW":1,"SH":1,"SW":1,"Groups":1,"Blocks":[]}`, 24),
	"conv block weight length":    blockConvEnvelope(`{"InC":4,"OutC":6,"KH":1,"KW":1,"SH":1,"SW":1,"Groups":1,"Blocks":[{"InC":1,"OutC":2},{"InC":3,"OutC":4}]}`, 24),
	"conv blocks on 3x3":          blockConvEnvelope(`{"InC":4,"OutC":6,"KH":3,"KW":3,"SH":1,"SW":1,"PH":1,"PW":1,"Groups":1,"Blocks":[{"InC":1,"OutC":2},{"InC":3,"OutC":4}]}`, 14),
	"conv blocks on grouped":      blockConvEnvelope(`{"InC":4,"OutC":6,"KH":1,"KW":1,"SH":1,"SW":1,"Groups":2,"Blocks":[{"InC":2,"OutC":3},{"InC":2,"OutC":3}]}`, 12),
	"fused lblocks sum mismatch":  blockFusedEnvelope(`[{"InC":1,"OutC":2},{"InC":1,"OutC":3}]`, 5),
	"fused lblocks weight length": blockFusedEnvelope(`[{"InC":1,"OutC":2},{"InC":2,"OutC":3}]`, 15),
}

// TestLoadAdversarial drives Load over the corrupted-envelope corpus: each
// must return a typed invalid-model error and must not panic.
func TestLoadAdversarial(t *testing.T) {
	for name, env := range adversarialEnvelopes {
		g, err := Load(strings.NewReader(env))
		if err == nil {
			t.Errorf("%s: accepted (graph %v)", name, g)
			continue
		}
		if !errors.Is(err, guard.ErrInvalidModel) {
			t.Errorf("%s: error does not wrap ErrInvalidModel: %v", name, err)
		}
	}
}

// TestLoadWeightBudget: an envelope whose total tensor payload exceeds the
// configured limit is rejected.
func TestLoadWeightBudget(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, vggStyleGraph()); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadWith(bytes.NewReader(buf.Bytes()), LoadOptions{MaxWeightBytes: 64}); !errors.Is(err, guard.ErrInvalidModel) {
		t.Fatalf("want ErrInvalidModel for over-budget weights, got %v", err)
	}
	if _, err := LoadWith(bytes.NewReader(buf.Bytes()), LoadOptions{}); err != nil {
		t.Fatalf("default budget must admit the model: %v", err)
	}
}

// TestLoadHugeNodeID: a far-out node ID must not stall the loader (the old
// code spun NewID up to the max ID one increment at a time) and NewID must
// still not collide.
func TestLoadHugeNodeID(t *testing.T) {
	env := `{"version":1,"name":"x","nodes":[{"id":1152921504606846976,"name":"a","kind":"input","shape":[1,2,2]}],"inputs":[1152921504606846976]}`
	g, err := Load(strings.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	if id := g.NewID(); id <= 1152921504606846976 {
		t.Fatalf("NewID %d collides with loaded ID space", id)
	}
}

// FuzzLoad fuzzes the JSON envelope decoder. Invariants: Load never
// panics; failures wrap guard.ErrInvalidModel; an accepted graph passes
// validation and round-trips through Save.
func FuzzLoad(f *testing.F) {
	var buf bytes.Buffer
	if err := Save(&buf, vggStyleGraph()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, env := range wellFormedBlockEnvelopes {
		f.Add([]byte(env))
	}
	for _, env := range adversarialEnvelopes {
		f.Add([]byte(env))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Load(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, guard.ErrInvalidModel) {
				t.Fatalf("error does not wrap ErrInvalidModel: %v", err)
			}
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("Load accepted an invalid graph: %v", err)
		}
		if err := Save(&bytes.Buffer{}, g); err != nil {
			t.Fatalf("accepted graph does not re-save: %v", err)
		}
	})
}
