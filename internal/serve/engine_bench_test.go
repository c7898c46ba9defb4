package serve

// BenchmarkEngineServe measures end-to-end serving throughput through the
// full Session path (queue, breaker, worker, compiled engine) on Fig. 11
// models. The req/s metric is the number recorded in results/engine.txt.

import (
	"context"
	"testing"

	"temco/internal/decompose"
	"temco/internal/experiments"
	"temco/internal/ir"
	"temco/internal/models"
	"temco/internal/tensor"
)

func benchGraphs(tb testing.TB, name string) (opt, fb *ir.Graph) {
	tb.Helper()
	spec, err := models.Get(name)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := models.DefaultConfig()
	cfg.H, cfg.W = 32, 32
	v := experiments.Fusion
	if spec.HasSkips {
		v = experiments.SkipOptFusion
	}
	opt, err = experiments.BuildVariant(spec, v, cfg, decompose.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	fb, err = experiments.BuildVariant(spec, experiments.Decomposed, cfg, decompose.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return opt, fb
}

func BenchmarkEngineServe(b *testing.B) {
	for _, name := range []string{"alexnet", "vgg11", "resnet18"} {
		opt, fb := benchGraphs(b, name)
		b.Run(name, func(b *testing.B) {
			s, err := New(opt, fb, Config{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			x := tensor.New(append([]int{1}, opt.Inputs[0].Shape...)...)
			x.FillNormal(tensor.NewRNG(17), 0, 1)
			ctx := context.Background()
			req := Request{Inputs: []*tensor.Tensor{x}}
			// Warm the engine's per-batch buffers out of the timed loop.
			if _, err := s.Infer(ctx, req); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Infer(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
			if err := s.Close(ctx); err != nil {
				b.Fatal(err)
			}
		})
	}
}
