package engine_test

import (
	"context"
	"fmt"
	"testing"

	"temco/internal/core"
	"temco/internal/decompose"
	"temco/internal/engine"
	"temco/internal/exec"
	"temco/internal/ir"
	"temco/internal/models"
	"temco/internal/ops"
	"temco/internal/tensor"
)

// TestEngineTransformOnlyBlockConv runs densenet40 with the transforms but
// without fusion, so every merged lconv stays an unfused block-diagonal
// Conv2D on the pointwise kernel: the engine must match the interpreter bit
// for bit and the decomposed graph within the verify tolerance.
func TestEngineTransformOnlyBlockConv(t *testing.T) {
	if raceEnabled {
		t.Skip("bit check, not a concurrency check; too slow under the race detector")
	}
	ctx := context.Background()
	base, err := models.Build("densenet40", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	core.FoldBatchNorm(base)
	dec, _ := decompose.Decompose(base, decompose.DefaultOptions())
	cfg := core.DefaultConfig()
	cfg.Fusion = false
	g, _ := core.Optimize(dec, cfg)
	blocks := 0
	for _, n := range g.Nodes {
		if n.Kind == ir.KindConv2D && n.Conv().Blocks != nil {
			blocks++
		}
	}
	if blocks == 0 {
		t.Fatal("no unfused block conv in the transform-only graph")
	}
	x := randInput(g, 1, 13)
	want, err := exec.RunCtx(ctx, g, 0, x)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		prev := ops.SetWorkers(workers)
		e, err := engine.Compile(g, engine.Options{Batch: 1})
		if err != nil {
			ops.SetWorkers(prev)
			t.Fatal(err)
		}
		got, err := e.NewInstance().Run(ctx, x)
		ops.SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, fmt.Sprintf("transform-only/workers=%d", workers), got, want)
	}
	ref, err := exec.RunCtx(ctx, dec, 0, x)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(ref.Outputs[0], want.Outputs[0]); d > 0.05 {
		t.Errorf("transform-only output is %v from the decomposed graph (verify tolerance 0.05)", d)
	}
}
