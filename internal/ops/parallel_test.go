package ops

import (
	"testing"

	"temco/internal/ir"
	"temco/internal/tensor"
)

// TestKernelsSingleWorker pins the Workers=1 code path: results must be
// identical to the parallel path (the kernels must not depend on the
// split).
func TestKernelsSingleWorker(t *testing.T) {
	r := tensor.NewRNG(3)
	a := &ir.ConvAttrs{InC: 4, OutC: 6, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, Groups: 1}
	in := randT(r, 2, 4, 9, 9)
	w := randT(r, 6, 4, 3, 3)
	b := randT(r, 6)
	par := tensor.New(2, 6, 9, 9)
	Conv2D(par, in, w, b, a)

	old := Workers
	defer func() { Workers = old }()
	Workers = 1
	ser := tensor.New(2, 6, 9, 9)
	Conv2D(ser, in, w, b, a)
	if d := tensor.MaxAbsDiff(par, ser); d != 0 {
		t.Fatalf("serial and parallel conv differ by %v", d)
	}
	fa := &ir.FusedAttrs{InC: 4, MidC: 16, OutC: 4, Act: ir.KindReLU,
		LW: randT(r, 16, 4, 1, 1), FW: randT(r, 4, 16, 1, 1)}
	out1 := tensor.New(2, 4, 9, 9)
	fusedPlanned(out1, in, fa)
	Workers = old
	out2 := tensor.New(2, 4, 9, 9)
	fusedPlanned(out2, in, fa)
	if d := tensor.MaxAbsDiff(out1, out2); d != 0 {
		t.Fatalf("serial and parallel fused differ by %v", d)
	}
}

func TestFusedWorkspaceIndependentOfResolution(t *testing.T) {
	a := &ir.FusedAttrs{InC: 8, MidC: 64, OutC: 8, Act: ir.KindReLU,
		LW: tensor.New(64, 8, 1, 1), FW: tensor.New(8, 64, 1, 1)}
	// Workspace formula has no H/W term: the whole point of tiling.
	w1 := FusedWorkspaceBytes(a)
	w2 := FusedWorkspaceBytes(a) // same attrs, any map size
	if w1 != w2 || w1 <= 0 {
		t.Fatalf("workspace bytes unstable: %d vs %d", w1, w2)
	}
}
