package serve

// Tests for the worker run path every microbatch takes: run-time
// accounting once per worker run, caller cancellation reaching the kernels
// and the backoff of a one-member run however the request reached the
// worker, and the unpadded fallback of a run over the memory budget.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"temco/internal/exec"
	"temco/internal/faultinject"
	"temco/internal/guard"
	"temco/internal/ir"
	"temco/internal/tensor"
)

// A coalesced run is one unit of worker time: temco_serve_run_seconds
// observes it once, by the run's Exec, however many members it served —
// the autoscaler reads RunSecondsTotal as busy worker time.
func TestRunSecondsOncePerRun(t *testing.T) {
	// A 3-row cap with a long window: the third member fills the batch and
	// dispatches it, so all three share one run.
	s, opt, _ := newTestSession(t, Config{
		Workers: 1, MaxBatchSize: 3, MaxBatchLatency: 10 * time.Second,
		DefaultTimeout: 30 * time.Second,
	})
	const n = 3
	resps := make([]*Response, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = s.Infer(context.Background(),
				Request{Inputs: []*tensor.Tensor{serveInput(opt, uint64(80+i))}})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.BatchedRuns != 1 || st.BatchedRequests != n {
		t.Fatalf("want one %d-member coalesced run: %+v", n, st)
	}
	if c := s.met.runLatency.Count(); c != 1 {
		t.Fatalf("temco_serve_run_seconds_count = %d after one run, want 1", c)
	}
	for i, r := range resps {
		if got, want := st.RunSecondsTotal, r.Exec.Seconds(); got != want {
			t.Fatalf("RunSecondsTotal = %v, want member %d's run Exec %v", got, i, want)
		}
	}
}

// Canceling the caller of a lone member stops its run mid-kernel, whether
// the request came off the queue with batching off, bypassed the
// coalescer, or sat alone in an accumulation window: the worker is free
// long before the uncanceled run would have finished.
func TestLoneMemberCancelReachesKernel(t *testing.T) {
	const delay = 100 * time.Millisecond // per kernel step
	cases := []struct {
		name string
		cfg  Config
		rows int
		path func(Stats) bool
	}{
		{"batching off", Config{Workers: 1}, 1,
			func(st Stats) bool { return !st.Batching }},
		{"bypass", Config{Workers: 1, MaxBatchSize: 2, MaxBatchLatency: 10 * time.Millisecond}, 2,
			func(st Stats) bool { return st.BatchBypass == 1 && st.BatchedRuns == 0 }},
		{"coalesced window", Config{Workers: 1, MaxBatchSize: 8, MaxBatchLatency: 10 * time.Millisecond}, 1,
			func(st Stats) bool { return st.BatchBypass == 0 && st.BatchedRuns == 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			faultinject.Enable(faultinject.Config{Seed: 1, Scope: "opt-graph", SlowRate: 1, SlowDelay: delay})
			defer faultinject.Disable()
			tc.cfg.DefaultTimeout = 30 * time.Second
			s, opt, _ := newTestSession(t, tc.cfg)
			kernels := 0
			for _, n := range opt.Nodes {
				if n.Kind != ir.KindInput {
					kernels++
				}
			}
			full := time.Duration(kernels) * delay

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errc := make(chan error, 1)
			go func() {
				_, err := s.Infer(ctx, Request{Inputs: []*tensor.Tensor{raggedInput(opt, tc.rows, 5)}})
				errc <- err
			}()
			waitForStat(t, s, "run in flight", func(st Stats) bool { return st.InFlight == 1 })
			canceled := time.Now()
			cancel()
			if err := <-errc; !errors.Is(err, guard.ErrCanceled) {
				t.Fatalf("want ErrCanceled, got %v", err)
			}
			waitForStat(t, s, "canceled run to leave the worker", func(st Stats) bool { return st.InFlight == 0 })
			if took := time.Since(canceled); took > full/2 {
				t.Fatalf("worker held the canceled run %v; the whole run takes %v", took, full)
			}
			if st := s.Stats(); !tc.path(st) {
				t.Fatalf("request did not take the %s path: %+v", tc.name, st)
			}
		})
	}
}

// A lone member padded to a bucket over the memory budget falls back to a
// run at its own row count, where it fits: a 2-row member split out of a
// coalesced window, and a 2-row tight-deadline bypass, both succeed with
// the outputs of an unbatched run.
func TestBudgetSplitRunsLoneMemberUnpadded(t *testing.T) {
	opt, fb := servePair()
	budget := arenaCost(opt, 4) - 1
	if own := arenaCost(opt, 2); own >= budget {
		t.Fatalf("test invariant: 2-row cost %d must fit under budget %d", own, budget)
	}
	cases := []struct {
		name    string
		rows    []int // member row counts, in arrival order
		timeout time.Duration
		want    func(Stats) bool
	}{
		{"split window", []int{2, 1}, 30 * time.Second,
			func(st Stats) bool { return st.BatchedRuns == 1 && st.PaddedSlots == 1 }},
		{"tight-deadline bypass", []int{2}, 5 * time.Second,
			func(st Stats) bool { return st.BatchBypass == 1 && st.PaddedSlots == 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(opt, fb, Config{
				Workers: 1, MaxBatchSize: 4, MaxBatchLatency: 10 * time.Second,
				BudgetBytes: budget, BreakerThreshold: 100,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close(context.Background())
			n := len(tc.rows)
			inputs := make([]*tensor.Tensor, n)
			resps := make([]*Response, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i, rows := range tc.rows {
				inputs[i] = raggedInput(opt, rows, uint64(90+i))
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					ctx, cancel := context.WithTimeout(context.Background(), tc.timeout)
					defer cancel()
					resps[i], errs[i] = s.Infer(ctx, Request{Inputs: []*tensor.Tensor{inputs[i]}})
				}(i)
				if i == 0 && n > 1 {
					waitForStat(t, s, "window open", func(st Stats) bool { return st.BatchPending >= 1 })
				}
			}
			if n > 1 {
				// The members fill 3 of the 4-row cap: close the window.
				waitForStat(t, s, "window full", func(st Stats) bool { return st.BatchPending == int64(n) })
				s.Close(context.Background())
			}
			wg.Wait()
			for i := range tc.rows {
				if errs[i] != nil {
					t.Fatalf("member %d must succeed at its own rows: %v", i, errs[i])
				}
				want, err := exec.Run(opt, inputs[i])
				if err != nil {
					t.Fatal(err)
				}
				requireBitEqual(t, fmt.Sprintf("member %d", i), resps[i].Outputs[0], want.Outputs[0])
			}
			st := s.Stats()
			if st.BatchSplits != 1 || st.Failed != 0 || !tc.want(st) {
				t.Fatalf("want one split of a padded run and no failure: %+v", st)
			}
		})
	}
}

// A lone member's retry backoff ends on its caller's cancel: the worker is
// free long before the backoff timer would fire.
func TestLoneMemberCancelEndsBackoff(t *testing.T) {
	const backoff = 10 * time.Second
	opt, fb := servePair()
	// Under a 1-byte budget every attempt fails retryably.
	s, err := New(opt, fb, Config{
		Workers: 1, BudgetBytes: 1, BreakerThreshold: 100,
		RetryBackoff: backoff, MaxRetries: 3, DefaultTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := s.Infer(ctx, Request{Inputs: []*tensor.Tensor{serveInput(opt, 7)}})
		errc <- err
	}()
	waitForStat(t, s, "first retry backoff", func(st Stats) bool { return st.Retries == 1 })
	canceled := time.Now()
	cancel()
	if err := <-errc; !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	waitForStat(t, s, "canceled run to leave the worker", func(st Stats) bool { return st.InFlight == 0 })
	if took := time.Since(canceled); took > backoff/4 {
		t.Fatalf("worker held the canceled request %v into a %v backoff", took, backoff)
	}
}
