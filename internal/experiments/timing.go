package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"temco/internal/decompose"
	"temco/internal/engine"
	"temco/internal/ir"
	"temco/internal/models"
	"temco/internal/tensor"
)

// TimeRow is one bar of the paper's Fig. 11: end-to-end inference time of
// one (model, variant, batch) triple.
type TimeRow struct {
	Model   string
	Variant Variant
	Batch   int
	// Wall is the median wall-clock time of one inference.
	Wall time.Duration
	// LayerCalls is the kernel dispatch count (the paper's CPU-side
	// overhead is proportional to this).
	LayerCalls int
	// VsDecomposed is Wall divided by the Decomposed variant's Wall at the
	// same batch (the paper reports 1.08× at batch 4, 1.70× at batch 32).
	VsDecomposed float64
}

// TimeResult aggregates Fig. 11.
type TimeResult struct {
	Rows []TimeRow
	// OverheadGeomean maps batch size to the geometric mean of the best
	// TeMCO variant's VsDecomposed across models.
	OverheadGeomean map[int]float64
}

// InferenceTime reproduces Fig. 11: wall-clock inference of the Decomposed
// baseline against the TeMCO-optimized variants on the compiled engine,
// the executor serve runs. reps alternating runs of each variant are taken
// and the medians reported. Variants compared are the paper's: Decomposed
// vs Fusion (no skips) or Skip-Opt+Fusion (skips).
func InferenceTime(names []string, mcfg models.Config, dopts decompose.Options, batches []int, reps int) (TimeResult, error) {
	res := TimeResult{OverheadGeomean: map[int]float64{}}
	type acc struct {
		logSum float64
		n      int
	}
	accs := map[int]*acc{}
	for _, name := range names {
		spec, err := models.Get(name)
		if err != nil {
			return res, err
		}
		opt := Fusion
		if spec.HasSkips {
			opt = SkipOptFusion
		}
		dg, err := BuildVariant(spec, Decomposed, mcfg, dopts)
		if err != nil {
			return res, err
		}
		og, err := BuildVariant(spec, opt, mcfg, dopts)
		if err != nil {
			return res, err
		}
		for _, batch := range batches {
			x := tensor.New(batch, 3, mcfg.H, mcfg.W)
			x.FillNormal(tensor.NewRNG(1), 0, 1)
			walls, calls, err := timePair([2]*ir.Graph{dg, og}, x, reps)
			if err != nil {
				return res, err
			}
			dWall, oWall, dCalls, oCalls := walls[0], walls[1], calls[0], calls[1]
			ratio := float64(oWall) / float64(dWall)
			res.Rows = append(res.Rows,
				TimeRow{Model: name, Variant: Decomposed, Batch: batch, Wall: dWall, LayerCalls: dCalls, VsDecomposed: 1},
				TimeRow{Model: name, Variant: opt, Batch: batch, Wall: oWall, LayerCalls: oCalls, VsDecomposed: ratio},
			)
			a := accs[batch]
			if a == nil {
				a = &acc{}
				accs[batch] = a
			}
			a.logSum += math.Log(ratio)
			a.n++
		}
	}
	for b, a := range accs {
		res.OverheadGeomean[b] = math.Exp(a.logSum / float64(a.n))
	}
	return res, nil
}

// timePair compiles both graphs for x's batch, warms one engine Instance
// each, then times reps runs of each, alternating between the two so that
// drift in the machine's speed lands on both alike. It returns each
// graph's median wall time and kernel dispatch count.
func timePair(gs [2]*ir.Graph, x *tensor.Tensor, reps int) (walls [2]time.Duration, calls [2]int, err error) {
	if reps < 1 {
		reps = 1
	}
	ctx := context.Background()
	var insts [2]*engine.Instance
	for i, g := range gs {
		e, err := engine.Compile(g, engine.Options{Batch: x.Dim(0)})
		if err != nil {
			return walls, calls, err
		}
		insts[i] = e.NewInstance()
		r, err := insts[i].Run(ctx, x) // warmup: first-use layout and scratch
		if err != nil {
			return walls, calls, err
		}
		calls[i] = r.LayerCalls
	}
	var times [2][]time.Duration
	for rep := 0; rep < reps; rep++ {
		for i, inst := range insts {
			start := time.Now()
			if _, err := inst.Run(ctx, x); err != nil {
				return walls, calls, err
			}
			times[i] = append(times[i], time.Since(start))
		}
	}
	for i, ts := range times {
		slices.Sort(ts)
		walls[i] = ts[len(ts)/2]
	}
	return walls, calls, nil
}

// String renders the result as a fixed-width table.
func (r TimeResult) String() string {
	s := "End-to-end inference time (paper Fig. 11)\n"
	s += fmt.Sprintf("%-12s %-16s %6s %12s %8s %12s\n", "model", "variant", "batch", "time", "calls", "vs decomp")
	for _, row := range r.Rows {
		s += fmt.Sprintf("%-12s %-16s %6d %12v %8d %11.2f×\n",
			row.Model, row.Variant, row.Batch, row.Wall.Round(time.Microsecond), row.LayerCalls, row.VsDecomposed)
	}
	for _, b := range sortedKeys(r.OverheadGeomean) {
		s += fmt.Sprintf("geomean TeMCO overhead at batch %d: %.2f×\n", b, r.OverheadGeomean[b])
	}
	return s
}

func sortedKeys(m map[int]float64) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
