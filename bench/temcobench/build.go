package main

import (
	"fmt"
	"math"
	"time"

	"temco/internal/core"
	"temco/internal/decompose"
	"temco/internal/engine"
	"temco/internal/exec"
	"temco/internal/ir"
	"temco/internal/models"
	"temco/internal/tensor"
)

// modelConfig is the one model configuration every workload uses: 32×32
// inputs, the repository's default class count and weight seed. It matches
// the flags the fleet workload passes to temcod, so the in-process reference
// and the daemons hold identical weights.
var modelConfig = models.Config{H: 32, W: 32, Classes: 100, Seed: 42}

// verifyTolerance is the `temco -verify` bound on max |decomposed − optimized|.
const verifyTolerance = 0.05

// graphs is one model taken through the compiler: the BN-folded original,
// its Tucker decomposition, and the TeMCO-optimized form, with what each
// stage reported and how long it took.
type graphs struct {
	model          string
	base, dec, opt *ir.Graph
	report         decompose.Report
	stats          core.Stats
	buildTime      time.Duration
	decomposeTime  time.Duration
	optimizeTime   time.Duration
}

// buildGraphs runs models.Build, BN fold, decompose.Decompose and
// core.Optimize, each under a harness span.
func buildGraphs(rec *recorder, parent int, model string, ccfg core.Config) (*graphs, error) {
	g := &graphs{model: model}
	t0 := time.Now()
	id := rec.begin(parent, "models.Build", 0)
	base, err := models.Build(model, modelConfig)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", model, err)
	}
	core.FoldBatchNorm(base)
	rec.end(id)
	g.base, g.buildTime = base, time.Since(t0)

	t0 = time.Now()
	id = rec.begin(parent, "decompose.Decompose", 0)
	g.dec, g.report = decompose.Decompose(base, decompose.DefaultOptions())
	rec.end(id)
	g.decomposeTime = time.Since(t0)

	t0 = time.Now()
	id = rec.begin(parent, "core.Optimize", 0)
	g.opt, g.stats = core.Optimize(g.dec, ccfg)
	rec.end(id)
	g.optimizeTime = time.Since(t0)

	// Distinct names scope obs.EnableTrace and the memory recorder to one
	// of the two graphs; temcod names its graphs the same way.
	g.opt.Name, g.dec.Name = "optimized", "fallback"
	return g, nil
}

// engines is the compiled pair an engine workload runs.
type engines struct {
	opt, dec    *engine.Engine
	compileTime time.Duration // the optimized engine's
}

func compileEngines(rec *recorder, parent int, g *graphs, batch int) (*engines, error) {
	e := &engines{}
	t0 := time.Now()
	id := rec.begin(parent, "engine.Compile", 0)
	opt, err := engine.Compile(g.opt, engine.Options{Batch: batch})
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("compile optimized %s: %w", g.model, err)
	}
	e.opt, e.compileTime = opt, time.Since(t0)
	id = rec.begin(parent, "engine.Compile", 0)
	e.dec, err = engine.Compile(g.dec, engine.Options{Batch: batch})
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("compile decomposed %s: %w", g.model, err)
	}
	return e, nil
}

// peakArenaBytes is the optimized engine's planned footprint at its batch.
func peakArenaBytes(e *engine.Engine) float64 {
	st := e.Stats()
	return float64(st.ArenaBytes + st.MaxWorkspaceBytes)
}

// makeInputs draws n seeded [batch,3,H,W] inputs. They are all the program
// under test ever sees of the seed.
func makeInputs(seed uint64, n, batch int) []*tensor.Tensor {
	rng := tensor.NewRNG(seed*0x9e3779b97f4a7c15 + 1)
	out := make([]*tensor.Tensor, n)
	for i := range out {
		out[i] = tensor.New(batch, 3, modelConfig.H, modelConfig.W)
		out[i].FillNormal(rng, 0, 1)
	}
	return out
}

// reference holds, per input, what the outputs must be. Both come from the
// map interpreter (exec.Run), never from the engine under test: ofDec on the
// decomposed graph is the semantic reference the optimized outputs must stay
// within tolerance of; ofOpt on the optimized graph is what the engine must
// reproduce bit for bit.
type reference struct {
	ofDec, ofOpt []*tensor.Tensor
}

func buildReference(g *graphs, inputs []*tensor.Tensor) (*reference, error) {
	ref := &reference{}
	for i, x := range inputs {
		rd, err := exec.Run(g.dec, x)
		if err != nil {
			return nil, fmt.Errorf("reference run %d (decomposed): %w", i, err)
		}
		ro, err := exec.Run(g.opt, x)
		if err != nil {
			return nil, fmt.Errorf("reference run %d (optimized): %w", i, err)
		}
		if d := tensor.MaxAbsDiff(rd.Outputs[0], ro.Outputs[0]); d > verifyTolerance {
			return nil, fmt.Errorf("input %d: interpreter outputs of the optimized and decomposed graphs differ by %g (tolerance %g)", i, d, verifyTolerance)
		}
		ref.ofDec = append(ref.ofDec, rd.Outputs[0])
		ref.ofOpt = append(ref.ofOpt, ro.Outputs[0])
	}
	return ref, nil
}

// bitIdentical reports whether two float32 slices hold the same bits.
func bitIdentical(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// checkOptimized is the output check of an optimized-graph result against
// input i's reference: the interpreter's bits, and within the verify
// tolerance of the decomposed graph's output.
func (r *reference) checkOptimized(i int, got *tensor.Tensor) bool {
	return bitIdentical(got.Data, r.ofOpt[i].Data) && tensor.MaxAbsDiff(got, r.ofDec[i]) <= verifyTolerance
}

// checkDecomposed is the output check of a decomposed-graph result.
func (r *reference) checkDecomposed(i int, got *tensor.Tensor) bool {
	return bitIdentical(got.Data, r.ofDec[i].Data)
}

// argmax returns the index of the largest value.
func argmax(v []float32) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}
