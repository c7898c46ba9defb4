package train

import (
	"errors"
	"testing"

	"temco/internal/guard"
	"temco/internal/ir"
	"temco/internal/tensor"
)

// TestForwardRejectsBlockConv: the conv gradient assumes a dense weight,
// so a block-diagonal conv is an invalid model for the trainer.
func TestForwardRejectsBlockConv(t *testing.T) {
	g := ir.NewGraph("blk")
	in := g.Input("x", 4, 4, 4)
	c := g.Apply(ir.KindConv2D, "c", &ir.ConvAttrs{InC: 4, OutC: 6, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 1,
		Blocks: []ir.ConvBlock{{InC: 1, OutC: 2}, {InC: 3, OutC: 4}}}, in)
	c.W = tensor.New(14)
	g.MarkOutput(c)
	if _, err := New(g, 0.1, 0).Predict(tensor.New(1, 4, 4, 4)); !errors.Is(err, guard.ErrInvalidModel) {
		t.Fatalf("Predict on a block conv: %v, want ErrInvalidModel", err)
	}
}
