package temco

// Benchmarks regenerating the paper's evaluation figures. Each benchmark
// reports the figure's headline quantity as custom metrics (peak MB,
// overhead ratios, reduction percentages) alongside the usual ns/op.
//
//	go test -bench=Fig -benchmem          # all figure benches
//	go test -bench=Fig11 -res-time=32     # timing only
import (
	"context"
	"fmt"
	"testing"

	"temco/internal/decompose"
	"temco/internal/exec"
	"temco/internal/experiments"
	"temco/internal/ir"
	"temco/internal/memplan"
	"temco/internal/models"
	"temco/internal/ops"
	"temco/internal/tensor"
)

func benchCfg() models.Config {
	c := models.DefaultConfig()
	c.H, c.W = 64, 64
	return c
}

func timeCfg() models.Config {
	c := models.DefaultConfig()
	c.H, c.W = 32, 32
	return c
}

// BenchmarkFig4Timeline regenerates the paper's Fig. 4 memory-usage
// curves: internal-tensor bytes over the layer schedule for UNet and
// VGG-16, Original vs Decomposed, batch 4.
func BenchmarkFig4Timeline(b *testing.B) {
	for _, name := range []string{"unet", "vgg16"} {
		for _, v := range []experiments.Variant{experiments.Original, experiments.Decomposed} {
			b.Run(fmt.Sprintf("%s/%s", name, v), func(b *testing.B) {
				var s experiments.TimelineSeries
				var err error
				for i := 0; i < b.N; i++ {
					s, err = experiments.Timeline(name, v, benchCfg(), decompose.DefaultOptions(), 4)
					if err != nil {
						b.Fatal(err)
					}
				}
				var peak int64
				for _, p := range s.Points {
					if p.LiveBytes > peak {
						peak = p.LiveBytes
					}
				}
				b.ReportMetric(float64(peak)/(1<<20), "peakMB")
				b.ReportMetric(s.PeakSkipShare*100, "skipShare%")
			})
		}
	}
}

// BenchmarkFig10Peak regenerates the paper's Fig. 10: peak memory usage of
// all ten models across the paper's variants at batch 4, reporting the
// geomean internal-tensor reduction (paper headline: 75.7%).
func BenchmarkFig10Peak(b *testing.B) {
	var res experiments.PeakResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.PeakMemory(models.Names(), benchCfg(), decompose.DefaultOptions(), 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.GeomeanReduction*100, "geomeanReduction%")
}

// BenchmarkFig11Infer regenerates the paper's Fig. 11: end-to-end
// inference wall time, Decomposed vs TeMCO-optimized, per model and batch.
// The metric of interest is the overhead ratio (paper: 1.08× at batch 4
// rising to 1.70× at batch 32).
func BenchmarkFig11Infer(b *testing.B) {
	for _, name := range []string{"alexnet", "vgg11", "resnet18", "densenet40", "unet-s"} {
		for _, batch := range []int{4, 32} {
			b.Run(fmt.Sprintf("%s/batch%d", name, batch), func(b *testing.B) {
				spec, err := models.Get(name)
				if err != nil {
					b.Fatal(err)
				}
				opt := experiments.Fusion
				if spec.HasSkips {
					opt = experiments.SkipOptFusion
				}
				dg, err := experiments.BuildVariant(spec, experiments.Decomposed, timeCfg(), decompose.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				og, err := experiments.BuildVariant(spec, opt, timeCfg(), decompose.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				x := tensor.New(batch, 3, 32, 32)
				x.FillNormal(tensor.NewRNG(1), 0, 1)
				var dN, oN int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := exec.Run(dg, x); err != nil {
						b.Fatal(err)
					}
					dN++
					if _, err := exec.Run(og, x); err != nil {
						b.Fatal(err)
					}
					oN++
				}
				_ = dN
				_ = oN
			})
		}
	}
}

// BenchmarkFig11Overhead computes the paper's Fig. 11 summary ratios
// directly (median-of-3, geomean across a model subset).
func BenchmarkFig11Overhead(b *testing.B) {
	names := []string{"alexnet", "vgg11", "unet-s"}
	for i := 0; i < b.N; i++ {
		res, err := experiments.InferenceTime(names, timeCfg(), decompose.DefaultOptions(), []int{4}, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OverheadGeomean[4], "overhead@4x")
	}
}

// BenchmarkFig12Accuracy regenerates the paper's Fig. 12 check: the TeMCO
// variants must agree with the decomposed baseline on every prediction.
func BenchmarkFig12Accuracy(b *testing.B) {
	cfg := timeCfg()
	var res experiments.AccuracyResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.AgreementAll([]string{"alexnet", "vgg11", "resnet18", "densenet40", "unet-s"}, cfg, decompose.DefaultOptions(), 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	agr := 1.0
	for _, r := range res.Rows {
		if r.Top1Agreement < agr {
			agr = r.Top1Agreement
		}
	}
	b.ReportMetric(agr, "minAgreement")
}

// BenchmarkEq4Microbench exercises the §2.2 analysis: the simulator's peak
// for the decomposed two-conv + activation microbenchmark equals paper
// Eq. (4)'s closed form.
func BenchmarkEq4Microbench(b *testing.B) {
	bld := ir.NewBuilder("eq4", 1)
	in := bld.Input(64, 32, 32)
	f1 := bld.ConvNamed("f1", in, 6, 1, 1, 1, 1, 0, 0, 1)
	k1 := bld.ConvNamed("k1", f1, 6, 3, 3, 1, 1, 1, 1, 1)
	l1 := bld.ConvNamed("l1", k1, 64, 1, 1, 1, 1, 0, 0, 1)
	r := bld.ReLU(l1)
	f2 := bld.ConvNamed("f2", r, 6, 1, 1, 1, 1, 0, 0, 1)
	k2 := bld.ConvNamed("k2", f2, 6, 3, 3, 1, 1, 1, 1, 1)
	l2 := bld.ConvNamed("l2", k2, 64, 1, 1, 1, 1, 0, 0, 1)
	bld.Output(l2)
	var p memplan.Profile
	for i := 0; i < b.N; i++ {
		p = memplan.Simulate(bld.G, 4, 0)
	}
	b.ReportMetric(float64(p.PeakInternal)/(1<<20), "peakMB")
}

// BenchmarkDecompose measures the three decomposition rewrites on VGG-11
// (Tucker is the paper's baseline; CP and TT cover §2.1's other types).
func BenchmarkDecompose(b *testing.B) {
	for _, m := range []decompose.Method{decompose.Tucker, decompose.CPD, decompose.TensorTrain} {
		b.Run(m.String(), func(b *testing.B) {
			g, err := models.Build("vgg11", timeCfg())
			if err != nil {
				b.Fatal(err)
			}
			opts := decompose.DefaultOptions()
			opts.Method = m
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, rep := decompose.Decompose(g, opts); len(rep.Layers) == 0 {
					b.Fatal("nothing decomposed")
				}
			}
		})
	}
}

// BenchmarkAblationGate measures A1: skip-opt FLOPs cost with and without
// the Overhead gate on ResNet-18 (paper §4.2's ResNet discussion).
func BenchmarkAblationGate(b *testing.B) {
	var res experiments.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.AblateOverheadGate([]string{"resnet18"}, timeCfg(), decompose.DefaultOptions(), 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(res.Rows) == 2 && res.Rows[0].FLOPs > 0 {
		b.ReportMetric(float64(res.Rows[1].FLOPs)/float64(res.Rows[0].FLOPs), "gateOffFLOPsRatio")
	}
}

// BenchmarkAblationTransforms measures A2: fusion coverage with and
// without the §3.3 layer transformations on UNet.
func BenchmarkAblationTransforms(b *testing.B) {
	var res experiments.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.AblateTransforms([]string{"unet-s"}, timeCfg(), decompose.DefaultOptions(), 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(res.Rows) == 2 {
		b.ReportMetric(float64(res.Rows[0].FusedKernels), "fusedWith")
		b.ReportMetric(float64(res.Rows[1].FusedKernels), "fusedWithout")
	}
}

// BenchmarkFusedKernel compares the fused lconv-relu-pool-fconv kernel
// against the unfused four-kernel sequence (paper Listing 1): same math,
// no full-size intermediates.
func BenchmarkFusedKernel(b *testing.B) {
	r := tensor.NewRNG(3)
	attrs := &ir.FusedAttrs{
		InC: 6, MidC: 64, OutC: 6, Act: ir.KindReLU,
		Pool: &ir.PoolAttrs{KH: 2, KW: 2, SH: 2, SW: 2}, PoolKind: ir.KindMaxPool,
		LW: tensor.New(64, 6, 1, 1), LB: tensor.New(64),
		FW: tensor.New(6, 64, 1, 1), FB: tensor.New(6),
	}
	attrs.LW.FillNormal(r, 0, 1)
	attrs.FW.FillNormal(r, 0, 1)
	in := tensor.New(4, 6, 64, 64)
	in.FillNormal(r, 0, 1)
	out := tensor.New(4, 6, 32, 32)
	b.Run("fused", func(b *testing.B) {
		plan := ops.PlanFused(attrs)
		for i := 0; i < b.N; i++ {
			if err := ops.FusedPlannedCtx(context.Background(), out, in, attrs, plan); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(ops.FusedWorkspaceBytes(attrs))/1024, "workspaceKB")
	})
	b.Run("unfused", func(b *testing.B) {
		lattrs := &ir.ConvAttrs{InC: 6, OutC: 64, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 1}
		fattrs := &ir.ConvAttrs{InC: 64, OutC: 6, KH: 1, KW: 1, SH: 1, SW: 1, Groups: 1}
		mid := tensor.New(4, 64, 64, 64)
		act := tensor.New(4, 64, 64, 64)
		pooled := tensor.New(4, 64, 32, 32)
		for i := 0; i < b.N; i++ {
			ops.Conv2D(mid, in, attrs.LW, attrs.LB, lattrs)
			ops.ReLU(act, mid)
			ops.MaxPool(pooled, act, attrs.Pool)
			ops.Conv2D(out, pooled, attrs.FW, attrs.FB, fattrs)
		}
		b.ReportMetric(float64(mid.Bytes()+act.Bytes()+pooled.Bytes())/1024, "intermediateKB")
	})
}

// BenchmarkConv2D tracks the direct convolution kernel itself.
func BenchmarkConv2D(b *testing.B) {
	r := tensor.NewRNG(5)
	a := &ir.ConvAttrs{InC: 32, OutC: 64, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, Groups: 1}
	in := tensor.New(4, 32, 32, 32)
	in.FillNormal(r, 0, 1)
	w := tensor.New(64, 32, 3, 3)
	w.FillNormal(r, 0, 0.1)
	bias := tensor.New(64)
	out := tensor.New(4, 64, 32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops.Conv2D(out, in, w, bias, a)
	}
	flops := int64(4*64*32*32) * 32 * 9 * 2
	b.SetBytes(in.Bytes() + out.Bytes())
	b.ReportMetric(float64(flops)/1e9, "GFLOP/op")
}
