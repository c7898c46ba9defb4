package ops

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"temco/internal/gemm"
	"temco/internal/guard"
	"temco/internal/ir"
	"temco/internal/tensor"
)

// Table test for the TEMCO_WORKERS env override: positive integers apply,
// anything else is a typed error and leaves the worker count untouched.
func TestWorkersFromEnv(t *testing.T) {
	old := Workers
	defer SetWorkers(old)
	cases := []struct {
		env     string
		want    int // expected Workers afterwards (0 = unchanged)
		wantErr bool
	}{
		{"", 0, false},
		{"1", 1, false},
		{"3", 3, false},
		{"0", 0, true},
		{"-2", 0, true},
		{"abc", 0, true},
		{"2.5", 0, true},
		{" 4", 0, true},
		{"999999999999999999999999", 0, true},
	}
	for _, c := range cases {
		SetWorkers(old)
		t.Setenv("TEMCO_WORKERS", c.env)
		got, err := WorkersFromEnv()
		if c.wantErr {
			if err == nil {
				t.Errorf("TEMCO_WORKERS=%q: want error, got none (workers=%d)", c.env, got)
				continue
			}
			if !errors.Is(err, guard.ErrInvalidModel) {
				t.Errorf("TEMCO_WORKERS=%q: want ErrInvalidModel, got %v", c.env, err)
			}
			if guard.ExitCode(err) != guard.ExitInvalid {
				t.Errorf("TEMCO_WORKERS=%q: want exit code %d, got %d", c.env, guard.ExitInvalid, guard.ExitCode(err))
			}
			if Workers != old {
				t.Errorf("TEMCO_WORKERS=%q: bad value must not change Workers (%d -> %d)", c.env, old, Workers)
			}
			continue
		}
		if err != nil {
			t.Errorf("TEMCO_WORKERS=%q: unexpected error %v", c.env, err)
			continue
		}
		want := c.want
		if want == 0 {
			want = old
		}
		if got != want || Workers != want {
			t.Errorf("TEMCO_WORKERS=%q: got %d (Workers=%d), want %d", c.env, got, Workers, want)
		}
	}
}

// A pre-canceled context must stop parallelForCtx almost immediately: with
// cancellation checked every cancelStride tasks per worker, at most
// workers*cancelStride tasks may run.
func TestParallelForCtxCancellation(t *testing.T) {
	old := Workers
	defer SetWorkers(old)
	for _, w := range []int{1, 4} {
		SetWorkers(w)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ran atomic.Int64
		err := parallelForCtx(ctx, 1_000_000, func(lo, hi int) {
			ran.Add(int64(hi - lo))
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", w, err)
		}
		if n := ran.Load(); n > int64(w*cancelStride) {
			t.Fatalf("workers=%d: canceled run still executed %d tasks (max %d)", w, n, w*cancelStride)
		}
	}
}

// Without a cancelable context, parallelForCtx must cover every task
// exactly once (the sub-chunking must not lose or duplicate ranges), and
// the same must hold mid-range with a cancelable but never-canceled ctx.
func TestParallelForCtxCoversAllTasks(t *testing.T) {
	old := Workers
	defer SetWorkers(old)
	for _, w := range []int{1, 3, 8} {
		SetWorkers(w)
		for _, n := range []int{0, 1, 5, 97, 1024} {
			for _, cancelable := range []bool{false, true} {
				ctx := context.Background()
				if cancelable {
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(ctx)
					defer cancel()
				}
				hits := make([]atomic.Int32, n)
				if err := parallelForCtx(ctx, n, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						hits[i].Add(1)
					}
				}); err != nil {
					t.Fatalf("w=%d n=%d: %v", w, n, err)
				}
				for i := range hits {
					if hits[i].Load() != 1 {
						t.Fatalf("w=%d n=%d cancelable=%v: task %d ran %d times", w, n, cancelable, i, hits[i].Load())
					}
				}
			}
		}
	}
}

// A panic in a parallel worker must re-raise on the calling goroutine so
// guard.Safe can recover it — not kill the process.
func TestParallelForPropagatesWorkerPanic(t *testing.T) {
	old := Workers
	defer SetWorkers(old)
	SetWorkers(4)
	err := guard.Safe("test", func() error {
		parallelFor(64, func(lo, hi int) {
			if lo >= 32 {
				panic("worker exploded")
			}
		})
		return nil
	})
	if !errors.Is(err, guard.ErrInternal) {
		t.Fatalf("worker panic must surface as ErrInternal, got %v", err)
	}
	// Same through the ctx-aware path.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err = guard.Safe("test", func() error {
		return parallelForCtx(ctx, 64, func(lo, hi int) { panic("boom") })
	})
	if !errors.Is(err, guard.ErrInternal) {
		t.Fatalf("ctx worker panic must surface as ErrInternal, got %v", err)
	}
}

// Canceling mid-kernel: ConvPlannedCtx and FusedPlannedCtx on a cancelable
// context must return the context error and, when run to completion, match
// the uncancelable fast path bit-for-bit.
func TestCtxKernelsMatchAndCancel(t *testing.T) {
	r := tensor.NewRNG(11)
	a := &ir.ConvAttrs{InC: 4, OutC: 6, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, Groups: 1}
	in := randT(r, 2, 4, 16, 16)
	w := randT(r, 6, 4, 3, 3)
	b := randT(r, 6)

	p := PlanConv(a, w, 16, 16, 16, 16)
	want := tensor.New(2, 6, 16, 16)
	if err := ConvPlannedCtx(context.Background(), want, in, w, b, a, p); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	got := tensor.New(2, 6, 16, 16)
	if err := ConvPlannedCtx(ctx, got, in, w, b, a, p); err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Fatalf("ctx conv deviates by %v", d)
	}
	cancel()
	if err := ConvPlannedCtx(ctx, got, in, w, b, a, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled conv: want context.Canceled, got %v", err)
	}

	fa := &ir.FusedAttrs{InC: 4, MidC: 16, OutC: 4, Act: ir.KindReLU,
		LW: randT(r, 16, 4, 1, 1), FW: randT(r, 4, 16, 1, 1)}
	fp := PlanFused(fa)
	fwant := tensor.New(2, 4, 16, 16)
	if err := FusedPlannedCtx(context.Background(), fwant, in, fa, fp); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	fgot := tensor.New(2, 4, 16, 16)
	if err := FusedPlannedCtx(ctx2, fgot, in, fa, fp); err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(fwant, fgot); d != 0 {
		t.Fatalf("ctx fused deviates by %v", d)
	}
	cancel2()
	if err := FusedPlannedCtx(ctx2, fgot, in, fa, fp); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled fused: want context.Canceled, got %v", err)
	}
}

// A canceled context must stop Linear before it touches the output: the
// ctx-aware path used to write the bias rows first and only then consult
// the context (via the GEMM), leaving a half-written tensor behind. The
// pre-packed kernel must return the context error with the output
// untouched, and match the unpacked GEMM exactly when run.
func TestLinearCtxCancelWritesNothing(t *testing.T) {
	r := tensor.NewRNG(13)
	a := &ir.LinearAttrs{In: 24, Out: 10}
	in := randT(r, 3, 24)
	w := randT(r, 10, 24)
	b := randT(r, 10)
	pw := gemm.PackBT(a.In, a.Out, w.Data, a.In)

	want := tensor.New(3, 10)
	for bi := 0; bi < 3; bi++ {
		copy(want.Data[bi*10:(bi+1)*10], b.Data)
	}
	gemm.GemmBT(3, a.Out, a.In, 1, in.Data, a.In, w.Data, a.In, 1, want.Data, a.Out)

	ctx := context.Background()
	pgot := tensor.New(3, 10)
	if err := LinearPrePackedCtx(ctx, pgot, in, pw, b, a); err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(want, pgot); d != 0 {
		t.Fatalf("pre-packed linear deviates by %v", d)
	}

	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	const sentinel = -123.5
	out := tensor.New(3, 10)
	out.Fill(sentinel)
	if err := LinearPrePackedCtx(cctx, out, in, pw, b, a); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	for i, v := range out.Data {
		if v != sentinel {
			t.Fatalf("wrote out[%d]=%v after cancellation", i, v)
		}
	}
}
