package engine_test

// The engine is a performance artifact, so its contract is equivalence:
// every Fig. 11 model must produce bit-identical outputs through
// engine.Run, exec.RunCtx, and exec.RunArenaCtx — serial and parallel,
// SIMD on and off — and the steady-state hot path must not allocate.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"temco/internal/decompose"
	"temco/internal/engine"
	"temco/internal/exec"
	"temco/internal/experiments"
	"temco/internal/faultinject"
	"temco/internal/gemm"
	"temco/internal/guard"
	"temco/internal/ir"
	"temco/internal/memplan"
	"temco/internal/models"
	"temco/internal/obs"
	"temco/internal/ops"
	"temco/internal/tensor"
)

// fig11Names is the model subset the paper times in Fig. 11.
var fig11Names = []string{"alexnet", "vgg11", "resnet18", "densenet40", "unet-s"}

func testCfg() models.Config {
	c := models.DefaultConfig()
	c.H, c.W = 32, 32
	return c
}

// optVariant returns the paper's full optimization set for a model.
func optVariant(spec models.Spec) experiments.Variant {
	if spec.HasSkips {
		return experiments.SkipOptFusion
	}
	return experiments.Fusion
}

// graphCache shares built graphs across tests: Tucker decomposition is the
// slow part of BuildVariant, and nothing downstream mutates a graph. Tests
// in this package run sequentially, so a plain map is fine.
var graphCache = map[string]*ir.Graph{}

func buildOptimized(t testing.TB, name string) *ir.Graph {
	t.Helper()
	if g, ok := graphCache[name]; ok {
		return g
	}
	spec, err := models.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := experiments.BuildVariant(spec, optVariant(spec), testCfg(), decompose.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	graphCache[name] = g
	return g
}

func buildOriginal(t testing.TB, name string) *ir.Graph {
	t.Helper()
	spec, err := models.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := experiments.BuildVariant(spec, experiments.Original, testCfg(), decompose.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randInput(g *ir.Graph, batch int, seed uint64) *tensor.Tensor {
	in := g.Inputs[0]
	x := tensor.New(append([]int{batch}, in.Shape...)...)
	x.FillNormal(tensor.NewRNG(seed), 0, 1)
	return x
}

func requireBitIdentical(t *testing.T, label string, got, want *exec.Result) {
	t.Helper()
	if len(got.Outputs) != len(want.Outputs) {
		t.Fatalf("%s: %d outputs, want %d", label, len(got.Outputs), len(want.Outputs))
	}
	for oi, w := range want.Outputs {
		g := got.Outputs[oi]
		if len(g.Data) != len(w.Data) {
			t.Fatalf("%s: output %d has %d elems, want %d", label, oi, len(g.Data), len(w.Data))
		}
		for i := range w.Data {
			if math.Float32bits(g.Data[i]) != math.Float32bits(w.Data[i]) {
				t.Fatalf("%s: output %d differs at [%d]: %v (bits %#x) vs %v (bits %#x)",
					label, oi, i, g.Data[i], math.Float32bits(g.Data[i]),
					w.Data[i], math.Float32bits(w.Data[i]))
			}
		}
	}
}

// TestEngineBitIdentical sweeps the Fig. 11 models across worker counts
// and SIMD settings, demanding exact agreement between the compiled
// engine, the pooled interpreter, and the arena interpreter. The engine
// runs twice per configuration so the second, fully steady-state pass is
// covered too.
func TestEngineBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, simd := range []bool{true, false} {
		prevSIMD := gemm.SetSIMD(simd)
		if simd && !gemm.SIMD() {
			gemm.SetSIMD(prevSIMD)
			continue // platform has no SIMD path; the false pass covers it
		}
		for _, name := range fig11Names {
			g := buildOptimized(t, name)
			// Batch 1 keeps the 5-model × SIMD × workers sweep fast; batch
			// handling is covered by TestEngineBatchSwitch.
			batch := 1
			x := randInput(g, batch, 7)
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s/simd=%v/workers=%d", name, simd, workers)
				prevW := ops.SetWorkers(workers)
				// Packs capture the active tile shape: compile under the
				// same SIMD flavor the run will use.
				e, err := engine.Compile(g, engine.Options{Batch: batch})
				if err != nil {
					t.Fatalf("%s: Compile: %v", label, err)
				}
				want, err := exec.RunCtx(ctx, g, 0, x)
				if err != nil {
					t.Fatalf("%s: RunCtx: %v", label, err)
				}
				asg := memplan.AssignOffsets(g, batch)
				arena, err := exec.RunArenaCtx(ctx, g, asg, 0, x)
				if err != nil {
					t.Fatalf("%s: RunArenaCtx: %v", label, err)
				}
				requireBitIdentical(t, label+"/arena-vs-interp", arena, want)
				inst := e.NewInstance()
				for pass := 0; pass < 2; pass++ {
					got, err := inst.Run(ctx, x)
					if err != nil {
						t.Fatalf("%s: engine run %d: %v", label, pass, err)
					}
					requireBitIdentical(t, fmt.Sprintf("%s/engine-pass%d", label, pass), got, want)
					if got.LayerCalls != want.LayerCalls {
						t.Fatalf("%s: engine LayerCalls = %d, want %d", label, got.LayerCalls, want.LayerCalls)
					}
				}
				ops.SetWorkers(prevW)
			}
		}
		gemm.SetSIMD(prevSIMD)
	}
}

// TestEngineOriginalModels covers the unoptimized graphs (plain conv +
// pool + linear + softmax paths, no fused nodes).
func TestEngineOriginalModels(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"alexnet", "resnet18"} {
		g := buildOriginal(t, name)
		x := randInput(g, 2, 11)
		e, err := engine.Compile(g, engine.Options{Batch: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := exec.RunCtx(ctx, g, 0, x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Run(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, name, got, want)
	}
}

// TestEngineBatchSwitch runs one instance across changing batch sizes;
// each size gets its own baked layout and they must not interfere.
func TestEngineBatchSwitch(t *testing.T) {
	ctx := context.Background()
	g := buildOptimized(t, "alexnet")
	e, err := engine.Compile(g, engine.Options{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	inst := e.NewInstance()
	for _, batch := range []int{1, 3, 1, 2, 3} {
		x := randInput(g, batch, uint64(batch))
		want, err := exec.RunCtx(ctx, g, 0, x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := inst.Run(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, fmt.Sprintf("batch=%d", batch), got, want)
	}
	st := e.Stats()
	if len(st.PlannedBatches) != 3 {
		t.Fatalf("planned batches = %v, want 3 distinct sizes", st.PlannedBatches)
	}
	if st.Runs != 5 {
		t.Fatalf("runs = %d, want 5", st.Runs)
	}
}

// TestEngineRunPooledOutputsOwned checks that Engine.Run (the pooled
// convenience path) returns outputs that survive later runs, unlike the
// instance-owned buffers Instance.Run returns.
func TestEngineRunPooledOutputsOwned(t *testing.T) {
	ctx := context.Background()
	g := buildOptimized(t, "alexnet")
	e, err := engine.Compile(g, engine.Options{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := randInput(g, 1, 1)
	b := randInput(g, 1, 2)
	r1, err := e.Run(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	snap := r1.Outputs[0].Clone()
	if _, err := e.Run(ctx, b); err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "pooled outputs", r1, &exec.Result{Outputs: []*tensor.Tensor{snap}})
}

// TestEngineCompileErrors exercises the invalid-graph paths that serve's
// fallback-to-interpreter policy keys on.
func TestEngineCompileErrors(t *testing.T) {
	if _, err := engine.Compile(nil, engine.Options{}); !errors.Is(err, guard.ErrInvalidModel) {
		t.Fatalf("nil graph: err = %v, want ErrInvalidModel", err)
	}
	if _, err := engine.Compile(&ir.Graph{Name: "empty"}, engine.Options{}); !errors.Is(err, guard.ErrInvalidModel) {
		t.Fatalf("empty graph: err = %v, want ErrInvalidModel", err)
	}
}

// TestUnknownKindRejected: a node kind with no kernel is an invalid model
// to every executor, not an internal failure — all three share one step
// table, so they must all say so the same way.
func TestUnknownKindRejected(t *testing.T) {
	b := ir.NewBuilder("unknown-kind", 1)
	in := b.Input(2, 4, 4)
	r := b.ReLU(in)
	b.Output(r)
	r.Kind = ir.Kind(99)
	g := b.G
	x := randInput(g, 1, 1)
	ctx := context.Background()
	if _, err := engine.Compile(g, engine.Options{}); !errors.Is(err, guard.ErrInvalidModel) {
		t.Errorf("engine.Compile: err = %v, want ErrInvalidModel", err)
	}
	if _, err := exec.RunCtx(ctx, g, 0, x); !errors.Is(err, guard.ErrInvalidModel) {
		t.Errorf("exec.RunCtx: err = %v, want ErrInvalidModel", err)
	}
	if _, err := exec.RunArenaCtx(ctx, g, memplan.AssignOffsets(g, 1), 0, x); !errors.Is(err, guard.ErrInvalidModel) {
		t.Errorf("exec.RunArenaCtx: err = %v, want ErrInvalidModel", err)
	}
}

// TestEngineInputErrors checks arity/shape validation at Run time.
func TestEngineInputErrors(t *testing.T) {
	ctx := context.Background()
	g := buildOptimized(t, "alexnet")
	e, err := engine.Compile(g, engine.Options{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	inst := e.NewInstance()
	if _, err := inst.Run(ctx); !errors.Is(err, guard.ErrInvalidModel) {
		t.Fatalf("no inputs: err = %v, want ErrInvalidModel", err)
	}
	bad := tensor.New(1, 3, 8, 8)
	if _, err := inst.Run(ctx, bad); !errors.Is(err, guard.ErrInvalidModel) {
		t.Fatalf("bad shape: err = %v, want ErrInvalidModel", err)
	}
}

// TestEngineCancellation verifies the between-layer ctx check surfaces as
// guard.ErrCanceled, matching the interpreter.
func TestEngineCancellation(t *testing.T) {
	g := buildOptimized(t, "alexnet")
	e, err := engine.Compile(g, engine.Options{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.NewInstance().Run(ctx, randInput(g, 1, 3)); !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestEngineBudget verifies the arena-footprint budget check.
func TestEngineBudget(t *testing.T) {
	g := buildOptimized(t, "alexnet")
	if _, err := engine.Compile(g, engine.Options{Batch: 1, BudgetBytes: 64}); err != nil {
		// Budget is enforced at Run, not Compile: compilation must succeed.
		t.Fatalf("Compile under small budget: %v", err)
	}
	e, err := engine.Compile(g, engine.Options{Batch: 1, BudgetBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.NewInstance().Run(context.Background(), randInput(g, 1, 3)); !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	// A budget that covers arena + workspace must pass.
	st := e.Stats()
	e2, err := engine.Compile(g, engine.Options{Batch: 1, BudgetBytes: st.ArenaBytes + st.MaxWorkspaceBytes})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.NewInstance().Run(context.Background(), randInput(g, 1, 3)); err != nil {
		t.Fatalf("sufficient budget: %v", err)
	}
}

// TestEngineFaultInjection checks that the interpreter's fault hooks fire
// on the compiled path too: injected budget failures surface as
// guard.ErrBudgetExceeded and injected kernel panics are recovered into
// guard.ErrInternal without killing the process.
func TestEngineFaultInjection(t *testing.T) {
	g := buildOptimized(t, "alexnet")
	e, err := engine.Compile(g, engine.Options{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(g, 1, 5)
	ctx := context.Background()
	inst := e.NewInstance()

	faultinject.Enable(faultinject.Config{Seed: 1, BudgetRate: 1})
	if _, err := inst.Run(ctx, x); !errors.Is(err, guard.ErrBudgetExceeded) {
		faultinject.Disable()
		t.Fatalf("budget fault: err = %v, want ErrBudgetExceeded", err)
	}
	faultinject.Enable(faultinject.Config{Seed: 1, KernelPanicRate: 1})
	if _, err := inst.Run(ctx, x); !errors.Is(err, guard.ErrInternal) {
		faultinject.Disable()
		t.Fatalf("kernel panic: err = %v, want ErrInternal", err)
	}
	faultinject.Disable()

	// The instance must be reusable after an injected failure.
	want, err := exec.RunCtx(ctx, g, 0, x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := inst.Run(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "post-fault", got, want)
}

// TestEngineZeroAllocSteadyState is the zero-allocation gate: after
// warm-up, Instance.Run must not touch the heap at Workers == 1 (the
// parallel fan-out necessarily allocates goroutine plumbing).
func TestEngineZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	prev := ops.SetWorkers(1)
	defer ops.SetWorkers(prev)
	ctx := context.Background()
	for _, name := range fig11Names {
		g := buildOptimized(t, name)
		e, err := engine.Compile(g, engine.Options{Batch: 1})
		if err != nil {
			t.Fatal(err)
		}
		inst := e.NewInstance()
		x := randInput(g, 1, 9)
		for i := 0; i < 2; i++ {
			if _, err := inst.Run(ctx, x); err != nil {
				t.Fatal(err)
			}
		}
		var runErr error
		allocs := testing.AllocsPerRun(20, func() {
			_, runErr = inst.Run(ctx, x)
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocs per steady-state Run, want 0", name, allocs)
		}
	}
}

// TestEngineZeroAllocSteadyStateRecorderArmed: enabling the flight
// recorder must not cost the engine anything when the request itself is
// untraced — the disabled path through the instrumentation is one
// context lookup returning nil, so steady-state Run stays allocation-free
// with recording compiled in and globally armed.
func TestEngineZeroAllocSteadyStateRecorderArmed(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	obs.EnableFlightRecorder(obs.FlightConfig{})
	defer obs.DisableFlightRecorder()
	prev := ops.SetWorkers(1)
	defer ops.SetWorkers(prev)
	ctx := context.Background()
	g := buildOptimized(t, "alexnet")
	e, err := engine.Compile(g, engine.Options{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	inst := e.NewInstance()
	x := randInput(g, 1, 9)
	for i := 0; i < 2; i++ {
		if _, err := inst.Run(ctx, x); err != nil {
			t.Fatal(err)
		}
	}
	var runErr error
	allocs := testing.AllocsPerRun(20, func() {
		_, runErr = inst.Run(ctx, x)
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if allocs != 0 {
		t.Errorf("%v allocs per steady-state Run with recorder armed, want 0", allocs)
	}
}

// TestMeasureSteadyAllocs checks the operator-facing probe agrees with the
// testing gate.
func TestMeasureSteadyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	prev := ops.SetWorkers(1)
	defer ops.SetWorkers(prev)
	g := buildOptimized(t, "alexnet")
	e, err := engine.Compile(g, engine.Options{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	avg, err := engine.MeasureSteadyAllocs(e, 20)
	if err != nil {
		t.Fatal(err)
	}
	if avg > 0.5 {
		t.Errorf("MeasureSteadyAllocs = %v, want ~0", avg)
	}
}

// TestEngineStats sanity-checks the snapshot fields serve and /statsz
// surface.
func TestEngineStats(t *testing.T) {
	g := buildOptimized(t, "vgg11")
	e, err := engine.Compile(g, engine.Options{Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.ArenaBytes <= 0 {
		t.Errorf("ArenaBytes = %d, want > 0", st.ArenaBytes)
	}
	if st.PrePackedBytes <= 0 {
		t.Errorf("PrePackedBytes = %d, want > 0 (vgg11 has conv/linear weights)", st.PrePackedBytes)
	}
	asg := memplan.AssignOffsets(g, 2)
	if st.ArenaBytes != asg.ArenaBytes {
		t.Errorf("ArenaBytes = %d, want memplan's %d", st.ArenaBytes, asg.ArenaBytes)
	}
}

// TestCompileBatchLadder: Options.Batches plans the whole bucket ladder
// eagerly so no request pays the O(n²) layout check on the hot path, and
// Stats reports the planned sizes sorted.
func TestCompileBatchLadder(t *testing.T) {
	g := buildOptimized(t, "alexnet")
	e, err := engine.Compile(g, engine.Options{Batch: 1, Batches: []int{8, 4, 1, 32, 16}})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 4, 8, 16, 32}
	got := e.Stats().PlannedBatches
	if len(got) != len(want) {
		t.Fatalf("planned batches %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("planned batches %v, want %v", got, want)
		}
	}
	// Every ladder entry is immediately runnable and bit-identical to the
	// interpreter at that batch size.
	x := randInput(g, 4, 11)
	gotRes, err := e.Run(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := exec.RunCtx(context.Background(), g, 0, x)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "ladder-batch-4", gotRes, wantRes)

	if _, err := engine.Compile(g, engine.Options{Batches: []int{4, 0}}); !errors.Is(err, guard.ErrInvalidModel) {
		t.Fatalf("non-positive bucket must fail compilation, got %v", err)
	}
}

// TestEngineZeroAllocSteadyStateBatchedBucket extends the zero-alloc gate
// to a batched bucket: a fixed-bucket batched run (the serving coalescer's
// steady state) must not touch the heap either. The name shares the
// TestEngineZeroAllocSteadyState prefix so CI's alloc gate runs it.
func TestEngineZeroAllocSteadyStateBatchedBucket(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	prev := ops.SetWorkers(1)
	defer ops.SetWorkers(prev)
	ctx := context.Background()
	g := buildOptimized(t, "alexnet")
	e, err := engine.Compile(g, engine.Options{Batch: 1, Batches: []int{4, 8}})
	if err != nil {
		t.Fatal(err)
	}
	inst := e.NewInstance()
	x := randInput(g, 8, 21)
	for i := 0; i < 2; i++ {
		if _, err := inst.Run(ctx, x); err != nil {
			t.Fatal(err)
		}
	}
	var runErr error
	allocs := testing.AllocsPerRun(20, func() {
		_, runErr = inst.Run(ctx, x)
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if allocs != 0 {
		t.Errorf("%v allocs per steady-state batched Run, want 0", allocs)
	}
}
