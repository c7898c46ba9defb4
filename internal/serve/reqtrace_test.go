package serve

// Request-tracing coverage of the serving tier: coalesced batches must
// link sibling request ids and land the batch/engine spans on member
// timelines, and under fault injection the flight recorder must retain
// 100% of error-classed requests (the tail-sampling policy invariant).

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"temco/internal/faultinject"
	"temco/internal/guard"
	"temco/internal/obs"
	"temco/internal/tensor"
)

// TestBatchTraceSiblingsAndSpans: concurrent traced requests that coalesce
// into one batched run each carry the window/bucket/run/scatter spans,
// link the other riders as siblings, and exactly one member per run (the
// primary) carries the engine's per-step spans.
func TestBatchTraceSiblingsAndSpans(t *testing.T) {
	opt, fb := servePair()
	s, err := New(opt, fb, Config{
		Workers: 2, MaxBatchSize: 8, MaxBatchLatency: 300 * time.Millisecond,
		DefaultTimeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	const n = 3
	tls := make([]obs.ReqTimeline, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rt := obs.NewReqTrace(obs.NewTraceContext())
			ctx := obs.ContextWithRequest(context.Background(), rt)
			_, err := s.Infer(ctx, Request{Inputs: []*tensor.Tensor{serveInput(opt, uint64(i+1))}})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
			}
			tls[i] = rt.Finish(200)
		}(i)
	}
	wg.Wait()

	st := s.Stats()
	if st.BatchedRequests != n {
		t.Fatalf("requests never coalesced: %+v", st)
	}
	withEngine := 0
	for i, tl := range tls {
		stages := map[string]int{}
		for _, sp := range tl.Spans {
			stages[sp.Stage]++
		}
		for _, want := range []string{"serve.admit", "serve.queue", "batch.window", "batch.bucket", "serve.run", "batch.scatter"} {
			if stages[want] == 0 {
				t.Errorf("request %d timeline missing %s (have %v)", i, want, stages)
			}
		}
		if stages["engine.step"] > 0 {
			withEngine++
		}
		for _, sib := range tl.Siblings {
			if sib == tl.RequestID {
				t.Errorf("request %d lists itself as a sibling", i)
			}
		}
	}
	// The engine annotates the batch's primary trace: one member per run.
	if withEngine != int(st.BatchedRuns) {
		t.Fatalf("%d timelines carry engine.step spans, want one per batched run (%d)",
			withEngine, st.BatchedRuns)
	}
	if st.BatchedRuns == 1 {
		for i, tl := range tls {
			if len(tl.Siblings) != n-1 {
				t.Errorf("request %d has %d siblings, want %d: %v", i, len(tl.Siblings), n-1, tl.Siblings)
			}
		}
	}
}

// TestSoakTraceCapturesAllErrors: with fault injection on, every request
// that fails is sealed into the flight recorder — ErrorsKept equals
// ErrorsSeen and each failed request id is retrievable afterwards.
func TestSoakTraceCapturesAllErrors(t *testing.T) {
	opt, fb := servePair()
	s, err := New(opt, fb, Config{
		QueueSize: 2, Workers: 2,
		MaxRetries: 1, RetryBackoff: 500 * time.Microsecond,
		BreakerThreshold: 3, ProbeInterval: 50 * time.Millisecond,
		DefaultTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	faultinject.Enable(faultinject.Config{
		Seed:            42,
		Scope:           "opt-graph",
		KernelPanicRate: 0.08,
		BudgetRate:      0.05,
	})
	defer faultinject.Disable()

	fr := obs.EnableFlightRecorder(obs.FlightConfig{Capacity: 4096, SampleRate: 16})
	defer obs.DisableFlightRecorder()

	var (
		mu       sync.Mutex
		errIDs   []string
		shedIDs  []string
		degraded int
	)
	const clients = 6
	deadline := time.Now().Add(10 * time.Second)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				mu.Lock()
				enough := len(errIDs) >= 10 && len(shedIDs) >= 1
				mu.Unlock()
				if enough {
					return
				}
				rt := obs.NewReqTrace(obs.NewTraceContext())
				ctx := obs.ContextWithRequest(context.Background(), rt)
				resp, err := s.Infer(ctx, Request{Inputs: []*tensor.Tensor{serveInput(opt, uint64(c*100003+i))}})
				var tl obs.ReqTimeline
				switch {
				case err == nil:
					// A fallback-served response is classed "degraded" by the
					// serving tier itself and lands in the error ring.
					tl = rt.Finish(200)
					if resp.Degraded {
						mu.Lock()
						degraded++
						mu.Unlock()
					}
				case errors.Is(err, guard.ErrOverloaded):
					rt.SetStatus("shed")
					tl = rt.Finish(429)
					mu.Lock()
					shedIDs = append(shedIDs, tl.RequestID)
					mu.Unlock()
				default:
					rt.SetError(err.Error())
					tl = rt.Finish(500)
					mu.Lock()
					errIDs = append(errIDs, tl.RequestID)
					mu.Unlock()
				}
				fr.Record(tl)
			}
		}(c)
	}
	wg.Wait()

	st := fr.Stats()
	t.Logf("flight: %+v (%d error ids, %d shed ids)", st, len(errIDs), len(shedIDs))
	if len(errIDs) == 0 {
		t.Fatal("injection produced no error requests; nothing validated")
	}
	if st.ErrorsKept != st.ErrorsSeen {
		t.Fatalf("error retention broken: kept %d of %d", st.ErrorsKept, st.ErrorsSeen)
	}
	if st.ShedKept != st.ShedSeen {
		t.Fatalf("shed retention broken: kept %d of %d", st.ShedKept, st.ShedSeen)
	}
	// The error ring holds both hard failures and degraded-but-served
	// requests (the serving tier classes fallback responses non-ok).
	if st.ErrorsSeen != uint64(len(errIDs)+degraded) || st.ShedSeen != uint64(len(shedIDs)) {
		t.Fatalf("ledger disagrees with the client: %+v vs err=%d degraded=%d shed=%d",
			st, len(errIDs), degraded, len(shedIDs))
	}
	for _, id := range errIDs {
		if _, found := fr.Get(id); !found {
			t.Fatalf("error request %s not retrievable from the recorder", id)
		}
	}
}
