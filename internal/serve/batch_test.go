package serve

// Tests for the dynamic-batching stage: bit-identity of coalesced runs
// against solo batch-1 serving (including pad-to-bucket ragged tails),
// cancellation and deadline semantics inside the accumulation window,
// priority-class separation, fault degradation and budget splitting on the
// batched path, drain behavior, the new instruments' exposition, and the
// batching soak. The batching-off passthrough is pinned as behaviorally
// unchanged.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"temco/internal/engine"
	"temco/internal/exec"
	"temco/internal/faultinject"
	"temco/internal/guard"
	"temco/internal/ir"
	"temco/internal/memplan"
	"temco/internal/obs"
	"temco/internal/tensor"
)

// raggedInput builds a [rows, sample...] input for g's first graph input.
func raggedInput(g *ir.Graph, rows int, seed uint64) *tensor.Tensor {
	x := tensor.New(append([]int{rows}, g.Inputs[0].Shape...)...)
	x.FillNormal(tensor.NewRNG(seed), 0, 1)
	return x
}

// rowOf extracts sample row k of a batched tensor as a batch-1 tensor.
func rowOf(x *tensor.Tensor, k int) *tensor.Tensor {
	per := x.Len() / x.Dim(0)
	r := tensor.New(append([]int{1}, x.Shape[1:]...)...)
	copy(r.Data, x.Data[k*per:(k+1)*per])
	return r
}

// requireBitEqual fails unless got and want agree in shape and in the exact
// bit pattern of every element. Batched serving must not perturb results
// even in the last ulp.
func requireBitEqual(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	if fmt.Sprint(got.Shape) != fmt.Sprint(want.Shape) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape, want.Shape)
	}
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d: %v != %v (bit mismatch)", label, i, got.Data[i], want.Data[i])
		}
	}
}

// waitForStat polls the session's stats until cond holds.
func waitForStat(t *testing.T, s *Session, desc string, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond(s.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", desc, s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatchedBitIdenticalFig11 is the acceptance bit-identity sweep: on the
// Fig. 11 models, concurrent ragged requests (1–3 rows each) coalesced into
// padded batched runs must return exactly the bits a batch-1 solo session
// returns for every individual sample row.
func TestBatchedBitIdenticalFig11(t *testing.T) {
	names := []string{"alexnet", "vgg11", "resnet18", "densenet40", "unet-s"}
	if raceEnabled {
		// The detector slows the larger models ~10x; two architectures
		// (one plain, one skip-heavy) keep the race signal without the wait.
		names = []string{"alexnet", "resnet18"}
	}
	rows := []int{1, 3, 1, 2, 1}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			opt, fb := benchGraphs(t, name)
			batched, err := New(opt, fb, Config{
				Workers: 2, MaxBatchSize: 8, MaxBatchLatency: 300 * time.Millisecond,
				DefaultTimeout: 60 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer batched.Close(context.Background())
			solo, err := New(opt, fb, Config{
				Workers: 1, DefaultTimeout: 60 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer solo.Close(context.Background())

			inputs := make([]*tensor.Tensor, len(rows))
			for i, r := range rows {
				inputs[i] = raggedInput(opt, r, uint64(1000*i+7))
			}
			resps := make([]*Response, len(rows))
			errs := make([]error, len(rows))
			var wg sync.WaitGroup
			for i := range rows {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					resps[i], errs[i] = batched.Infer(context.Background(),
						Request{Inputs: []*tensor.Tensor{inputs[i]}})
				}(i)
			}
			wg.Wait()

			for i, r := range rows {
				if errs[i] != nil {
					t.Fatalf("request %d: %v", i, errs[i])
				}
				if got := resps[i].Outputs[0].Dim(0); got != r {
					t.Fatalf("request %d: %d output rows, want %d", i, got, r)
				}
				for k := 0; k < r; k++ {
					ref, err := solo.Infer(context.Background(),
						Request{Inputs: []*tensor.Tensor{rowOf(inputs[i], k)}})
					if err != nil {
						t.Fatalf("solo reference %d/%d: %v", i, k, err)
					}
					for j := range resps[i].Outputs {
						requireBitEqual(t, fmt.Sprintf("request %d row %d output %d", i, k, j),
							rowOf(resps[i].Outputs[j], k), ref.Outputs[j])
					}
				}
			}
			st := batched.Stats()
			if st.BatchedRuns == 0 || st.BatchedRequests != uint64(len(rows)) {
				t.Fatalf("requests never coalesced: %+v", st)
			}
		})
	}
}

// A lone 3-row request pads up to the 4-bucket: the run is still
// bit-identical and the padding is visible in PaddedSlots.
func TestBatchPadsRaggedTail(t *testing.T) {
	s, opt, _ := newTestSession(t, Config{
		Workers: 1, MaxBatchSize: 8, MaxBatchLatency: 50 * time.Millisecond,
		DefaultTimeout: 30 * time.Second,
	})
	x := raggedInput(opt, 3, 11)
	resp, err := s.Infer(context.Background(), Request{Inputs: []*tensor.Tensor{x}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Run(opt, x)
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "padded ragged run", resp.Outputs[0], want.Outputs[0])
	st := s.Stats()
	if st.BatchedRuns != 1 || st.BatchedRequests != 1 {
		t.Fatalf("want one coalesced run: %+v", st)
	}
	if st.PaddedSlots != 1 {
		t.Fatalf("3 rows at bucket 4: PaddedSlots = %d, want 1", st.PaddedSlots)
	}
}

// Canceling one member mid-window must fail only that member: its
// batchmates still run and return exactly the bits an unperturbed run
// returns.
func TestCancelMidWindowSparesBatchmates(t *testing.T) {
	s, opt, _ := newTestSession(t, Config{
		Workers: 1, MaxBatchSize: 8, MaxBatchLatency: 1500 * time.Millisecond,
		DefaultTimeout: 30 * time.Second,
	})
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	var errA error
	var respB *Response
	var errB error
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errA = s.Infer(ctxA, Request{Inputs: []*tensor.Tensor{serveInput(opt, 1)}})
	}()
	waitForStat(t, s, "first member in window", func(st Stats) bool { return st.BatchPending == 1 })

	xB := serveInput(opt, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		respB, errB = s.Infer(context.Background(), Request{Inputs: []*tensor.Tensor{xB}})
	}()
	waitForStat(t, s, "second member in window", func(st Stats) bool { return st.BatchPending == 2 })

	cancelA()
	wg.Wait()

	if !errors.Is(errA, guard.ErrCanceled) {
		t.Fatalf("canceled member: want ErrCanceled, got %v", errA)
	}
	if errB != nil {
		t.Fatalf("batchmate of a canceled member failed: %v", errB)
	}
	if respB.Degraded {
		t.Fatal("batchmate degraded with no faults")
	}
	want, err := exec.Run(opt, xB)
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "surviving batchmate", respB.Outputs[0], want.Outputs[0])
	st := s.Stats()
	if st.BatchPending != 0 {
		t.Fatalf("window drained but BatchPending = %d", st.BatchPending)
	}
	if st.BatchedRuns != 1 {
		t.Fatalf("survivor must run batched: %+v", st)
	}
}

// A deadline that cannot survive the accumulation window bypasses batching:
// the request succeeds solo instead of dying in the window.
func TestTightDeadlineBypassesBatching(t *testing.T) {
	s, opt, _ := newTestSession(t, Config{
		Workers: 1, MaxBatchSize: 8, MaxBatchLatency: 300 * time.Millisecond,
		DefaultTimeout: 60 * time.Second,
	})
	resp, err := s.Infer(context.Background(), Request{
		Inputs:  []*tensor.Tensor{serveInput(opt, 5)},
		Timeout: 100 * time.Millisecond, // < the 300ms window: must not wait
	})
	if err != nil {
		t.Fatalf("tight-deadline request: %v", err)
	}
	if resp.Degraded {
		t.Fatal("unexpected degradation")
	}
	st := s.Stats()
	if st.BatchBypass != 1 {
		t.Fatalf("BatchBypass = %d, want 1", st.BatchBypass)
	}
	if st.BatchedRuns != 0 {
		t.Fatalf("tight-deadline request must not run batched: %+v", st)
	}
	// A deadline that fits the window still batches.
	if _, err := s.Infer(context.Background(), Request{Inputs: []*tensor.Tensor{serveInput(opt, 6)}}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.BatchedRuns != 1 {
		t.Fatalf("roomy-deadline request must batch: %+v", st)
	}
}

// With batching off (the default), the pipeline is behaviorally unchanged:
// no coalescer instruments move, and multi-row requests run on the
// engines at their own row counts, from the layouts planned at session
// start.
func TestBatchingDisabledUnchanged(t *testing.T) {
	s, opt, fb := newTestSession(t, Config{Workers: 1})
	optEng, fbEng := s.Engines()
	if optEng == nil || fbEng == nil {
		t.Fatal("engines must compile for the test graphs")
	}
	for _, c := range []struct {
		e *engine.Engine
		g *ir.Graph
	}{{optEng, opt}, {fbEng, fb}} {
		if got, want := c.e.Stats().ArenaBytes, memplan.AssignOffsets(c.g, 1).ArenaBytes; got != want {
			t.Fatalf("%s: engine arena %d, want the batch-1 plan's %d", c.g.Name, got, want)
		}
	}
	for i := 0; i < 3; i++ {
		x := raggedInput(opt, i+1, uint64(i)) // mixed row counts, all solo
		resp, err := s.Infer(context.Background(), Request{Inputs: []*tensor.Tensor{x}})
		if err != nil {
			t.Fatal(err)
		}
		want, err := exec.Run(opt, x)
		if err != nil {
			t.Fatal(err)
		}
		requireBitEqual(t, fmt.Sprintf("solo rows=%d", i+1), resp.Outputs[0], want.Outputs[0])
	}
	st := s.Stats()
	if st.Batching {
		t.Fatal("batching reported on for a default config")
	}
	if st.BatchedRuns != 0 || st.BatchedRequests != 0 || st.PaddedSlots != 0 ||
		st.BatchBypass != 0 || st.BatchSplits != 0 || st.BatchPending != 0 || st.BatchWaitCount != 0 {
		t.Fatalf("batching off, yet coalescer instruments moved: %+v", st)
	}
	if got := fmt.Sprint(s.BatchBuckets()); got != "[1]" {
		t.Fatalf("runtime buckets %s, want [1] with batching off", got)
	}
}

// A request whose inputs do not look like [N, sample...] cannot batch: it
// bypasses the coalescer and fails (or runs) with exactly the solo path's
// classification.
func TestUnbatchableShapeRunsSolo(t *testing.T) {
	s, opt, _ := newTestSession(t, Config{
		Workers: 1, MaxBatchSize: 4, MaxBatchLatency: 50 * time.Millisecond,
	})
	x := tensor.New(opt.Inputs[0].Shape...) // sample shape with no batch dim
	x.FillNormal(tensor.NewRNG(3), 0, 1)
	_, err := s.Infer(context.Background(), Request{Inputs: []*tensor.Tensor{x}})
	if !errors.Is(err, guard.ErrInvalidModel) {
		t.Fatalf("want the executor's ErrInvalidModel, got %v", err)
	}
	st := s.Stats()
	if st.BatchBypass != 1 || st.BatchedRuns != 0 {
		t.Fatalf("unbatchable request must bypass: %+v", st)
	}
}

// A single request already at or beyond the batch cap gains nothing from
// coalescing: it bypasses the window and runs solo, correctly.
func TestOversizedRequestBypassesBatching(t *testing.T) {
	s, opt, _ := newTestSession(t, Config{
		Workers: 1, MaxBatchSize: 4, MaxBatchLatency: 50 * time.Millisecond,
	})
	x := raggedInput(opt, 6, 9)
	resp, err := s.Infer(context.Background(), Request{Inputs: []*tensor.Tensor{x}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Run(opt, x)
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "oversized solo run", resp.Outputs[0], want.Outputs[0])
	st := s.Stats()
	if st.BatchBypass != 1 || st.BatchedRuns != 0 {
		t.Fatalf("oversized request must bypass: %+v", st)
	}
}

// Requests of different priority classes never share a batch.
func TestBatchPriorityClassesSeparate(t *testing.T) {
	s, opt, _ := newTestSession(t, Config{
		Workers: 1, MaxBatchSize: 8, MaxBatchLatency: 250 * time.Millisecond,
		DefaultTimeout: 30 * time.Second,
	})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, p := range []Priority{PriorityHigh, PriorityLow} {
		wg.Add(1)
		go func(i int, p Priority) {
			defer wg.Done()
			_, errs[i] = s.Infer(context.Background(), Request{
				Inputs: []*tensor.Tensor{serveInput(opt, uint64(i))}, Priority: p,
			})
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.BatchedRuns != 2 || st.BatchedRequests != 2 {
		t.Fatalf("distinct priorities must dispatch as distinct batches: %+v", st)
	}
}

// A faulting optimized graph degrades a batched run exactly like a solo
// run: the batch retries as a unit, trips the breaker once, and every
// member gets the fallback's (bit-identical) outputs flagged Degraded.
func TestBatchedFaultDegradesLikeSolo(t *testing.T) {
	faultinject.Enable(faultinject.Config{Seed: 5, Scope: "opt-graph", KernelPanicRate: 1})
	defer faultinject.Disable()
	s, opt, fb := newTestSession(t, Config{
		Workers: 1, MaxBatchSize: 8, MaxBatchLatency: 200 * time.Millisecond,
		MaxRetries: 2, RetryBackoff: time.Millisecond,
		BreakerThreshold: 1, ProbeInterval: 10 * time.Second,
		DefaultTimeout: 30 * time.Second,
	})
	_ = opt
	const n = 3
	inputs := make([]*tensor.Tensor, n)
	resps := make([]*Response, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		inputs[i] = serveInput(fb, uint64(40+i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = s.Infer(context.Background(), Request{Inputs: []*tensor.Tensor{inputs[i]}})
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d must degrade, not fail: %v", i, errs[i])
		}
		if !resps[i].Degraded {
			t.Fatalf("request %d served by the faulting optimized graph?", i)
		}
		// The fallback pair is built with identical weights, so the degraded
		// outputs are bit-identical to a direct fallback run.
		want, err := exec.Run(fb, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		requireBitEqual(t, fmt.Sprintf("degraded member %d", i), resps[i].Outputs[0], want.Outputs[0])
	}
	st := s.Stats()
	if st.BreakerTrips == 0 {
		t.Fatalf("breaker never tripped: %+v", st)
	}
	if st.DegradedServed != n {
		t.Fatalf("DegradedServed = %d, want %d", st.DegradedServed, n)
	}
	if st.BatchedRuns < 2 {
		t.Fatalf("want at least a failed and a fallback batched attempt: %+v", st)
	}
	if st.Failed != 0 {
		t.Fatalf("no request may fail: %+v", st)
	}
}

// arenaCost is the engine's budget charge for g at a batch size: the
// planned arena slab plus the largest kernel workspace.
func arenaCost(g *ir.Graph, batch int) int64 {
	cost := memplan.AssignOffsets(g, batch).ArenaBytes
	var ws int64
	for _, n := range g.Nodes {
		if w := memplan.Workspace(n, batch); w > ws {
			ws = w
		}
	}
	return cost + ws
}

// A batch whose padded bucket exceeds the memory budget the members would
// individually fit under splits back to solo runs — every member still
// succeeds.
func TestBatchBudgetSplitsToSolo(t *testing.T) {
	opt, fb := servePair()
	budget := arenaCost(opt, 4) - 1
	if solo := arenaCost(opt, 1); solo >= budget {
		t.Fatalf("test invariant: solo cost %d must fit under budget %d", solo, budget)
	}
	s, err := New(opt, fb, Config{
		Workers: 1, MaxBatchSize: 4, MaxBatchLatency: 400 * time.Millisecond,
		BudgetBytes: budget, BreakerThreshold: 100,
		DefaultTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	const n = 3
	inputs := make([]*tensor.Tensor, n)
	resps := make([]*Response, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	launch := func(i int) {
		inputs[i] = serveInput(opt, uint64(60+i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = s.Infer(context.Background(), Request{Inputs: []*tensor.Tensor{inputs[i]}})
		}()
	}
	launch(0)
	waitForStat(t, s, "window open", func(st Stats) bool { return st.BatchPending >= 1 })
	launch(1)
	launch(2)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d must succeed solo after the split: %v", i, errs[i])
		}
		want, err := exec.Run(opt, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		requireBitEqual(t, fmt.Sprintf("split member %d", i), resps[i].Outputs[0], want.Outputs[0])
	}
	st := s.Stats()
	if st.BatchSplits == 0 {
		t.Fatalf("padded bucket over budget must split: %+v", st)
	}
	if st.Failed != 0 {
		t.Fatalf("no request may fail: %+v", st)
	}
}

// Close during an open accumulation window dispatches the held batch
// immediately: the request completes and the drain does not wait out the
// window.
func TestCloseMidWindowCompletesHeldRequest(t *testing.T) {
	opt, fb := servePair()
	window := 2 * time.Second
	s, err := New(opt, fb, Config{
		Workers: 1, MaxBatchSize: 8, MaxBatchLatency: window,
		DefaultTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var resp *Response
	var inferErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, inferErr = s.Infer(context.Background(), Request{Inputs: []*tensor.Tensor{serveInput(opt, 21)}})
	}()
	waitForStat(t, s, "request held in window", func(st Stats) bool { return st.BatchPending == 1 })

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("drain close: %v", err)
	}
	<-done
	if inferErr != nil {
		t.Fatalf("held request must complete on drain: %v", inferErr)
	}
	if len(resp.Outputs) != 1 {
		t.Fatalf("malformed response: %+v", resp)
	}
	if elapsed := time.Since(start); elapsed >= window {
		t.Fatalf("drain waited out the %v window (%v): close must dispatch early", window, elapsed)
	}
}

// The coalescer's instruments render as valid Prometheus exposition on the
// session registry, alongside the solo-path families.
func TestBatchMetricsExposition(t *testing.T) {
	s, opt, _ := newTestSession(t, Config{
		Workers: 1, MaxBatchSize: 8, MaxBatchLatency: 50 * time.Millisecond,
		DefaultTimeout: 30 * time.Second,
	})
	if _, err := s.Infer(context.Background(), Request{Inputs: []*tensor.Tensor{raggedInput(opt, 3, 8)}}); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := s.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	expo := b.String()
	if err := obs.CheckExposition([]byte(expo)); err != nil {
		t.Fatalf("malformed exposition: %v\n%s", err, expo)
	}
	for _, want := range []string{
		"temco_serve_batched_runs_total 1",
		"temco_serve_batched_requests_total 1",
		"temco_serve_padded_slots_total 1",
		"temco_serve_batch_bypass_total 0",
		"temco_serve_batch_splits_total 0",
		"temco_serve_batch_pending 0",
		"temco_serve_batch_wait_seconds_count 1",
		"temco_serve_batch_occupancy_count 1",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestSoakBatching hammers a batching session with concurrent mixed-priority
// clients under seeded kernel and budget faults: zero malformed responses,
// every failure typed, real coalescing throughout, recovery after the
// faults stop, and no goroutine leaks. CI runs it under -race with
// TEMCO_SOAK extending the duration.
func TestSoakBatching(t *testing.T) {
	before := runtime.NumGoroutine()

	opt, fb := servePair()
	probeInterval := 50 * time.Millisecond
	s, err := New(opt, fb, Config{
		QueueSize: 32, Workers: 2,
		MaxBatchSize: 8, MaxBatchLatency: 500 * time.Microsecond,
		MaxRetries: 1, RetryBackoff: 500 * time.Microsecond,
		BreakerThreshold: 3, ProbeInterval: probeInterval,
		DefaultTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	inj := faultinject.Enable(faultinject.Config{
		Seed:            43,
		Scope:           "opt-graph",
		KernelPanicRate: 0.05,
		BudgetRate:      0.03,
	})
	defer faultinject.Disable()

	const clients = 8
	var (
		ok, shed, typedFail atomic.Uint64
		malformed           atomic.Uint64
		firstMalformed      sync.Once
		malformedDesc       string
	)
	outElems := 1
	for _, d := range opt.Outputs[0].Shape {
		outElems *= d
	}

	deadline := time.Now().Add(soakDuration())
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i := 0
			for time.Now().Before(deadline) {
				i++
				x := serveInput(opt, uint64(c*200003+i))
				resp, err := s.Infer(context.Background(), Request{
					Inputs:   []*tensor.Tensor{x},
					Priority: Priority(i%3 - 1),
				})
				if err == nil {
					bad := ""
					if len(resp.Outputs) != 1 {
						bad = "wrong output count"
					} else if resp.Outputs[0].Len() != outElems {
						bad = "wrong output size"
					} else {
						for _, v := range resp.Outputs[0].Data {
							if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
								bad = "non-finite output"
								break
							}
						}
					}
					if bad != "" {
						malformed.Add(1)
						firstMalformed.Do(func() { malformedDesc = bad })
						continue
					}
					ok.Add(1)
					continue
				}
				switch {
				case errors.Is(err, guard.ErrOverloaded):
					shed.Add(1)
				case errors.Is(err, guard.ErrDegraded),
					errors.Is(err, guard.ErrBudgetExceeded),
					errors.Is(err, guard.ErrInternal):
					typedFail.Add(1)
				case errors.Is(err, guard.ErrCanceled):
					malformed.Add(1)
					firstMalformed.Do(func() { malformedDesc = "canceled with no expiring deadline: " + err.Error() })
				default:
					malformed.Add(1)
					firstMalformed.Do(func() { malformedDesc = "untyped error: " + err.Error() })
				}
			}
		}(c)
	}
	wg.Wait()

	st := s.Stats()
	cnt := inj.Snapshot()
	t.Logf("soak: ok=%d shed=%d typedFail=%d stats=%+v injected=%+v",
		ok.Load(), shed.Load(), typedFail.Load(), st, cnt)

	if n := malformed.Load(); n != 0 {
		t.Fatalf("%d malformed responses (first: %s)", n, malformedDesc)
	}
	if ok.Load() == 0 {
		t.Fatal("soak served nothing")
	}
	if cnt.KernelPanics == 0 {
		t.Fatalf("injection never fired: %+v", cnt)
	}
	// 8 clients against a sub-millisecond window must actually coalesce.
	if st.BatchedRuns == 0 || st.BatchedRequests <= st.BatchedRuns {
		t.Fatalf("soak never coalesced more than one request per run: %+v", st)
	}
	if st.BatchPending != 0 {
		t.Fatalf("idle session holds %d pending batch members", st.BatchPending)
	}

	// Recovery: with injection off, the breaker must close via a probe and
	// serve non-degraded within a few intervals.
	faultinject.Disable()
	recoverBy := time.Now().Add(probeInterval + 2*time.Second)
	recovered := false
	for time.Now().Before(recoverBy) {
		resp, err := s.Infer(context.Background(), Request{Inputs: []*tensor.Tensor{serveInput(opt, 1)}})
		if err == nil && !resp.Degraded {
			recovered = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !recovered {
		t.Fatalf("no recovery after injection stopped: %+v", s.Stats())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("drain close: %v", err)
	}
	leakBy := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(leakBy) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
