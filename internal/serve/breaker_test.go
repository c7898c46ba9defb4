package serve

import (
	"context"
	"errors"
	"runtime"

	"sync"
	"temco/internal/faultinject"
	"temco/internal/guard"
	"temco/internal/tensor"
	"testing"
	"time"
)

// fakeClock is an adjustable clock for deterministic breaker tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testBreaker(threshold int, probe time.Duration) (*breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := newBreaker(threshold, probe)
	b.now = clk.now
	return b, clk
}

func TestBreakerFullCycle(t *testing.T) {
	b, clk := testBreaker(3, time.Second)

	// Closed: everything runs optimized; sub-threshold failures stay closed.
	for i := 0; i < 2; i++ {
		useOpt, probe := b.allow()
		if !useOpt || probe {
			t.Fatalf("closed breaker must allow optimized, got useOpt=%v probe=%v", useOpt, probe)
		}
		b.record(false, false)
	}
	if st, _, _, _ := b.snapshot(); st != BreakerClosed {
		t.Fatalf("2/3 failures must stay closed, got %v", st)
	}

	// Third consecutive failure trips it open.
	b.allow()
	b.record(false, false)
	st, trips, _, _ := b.snapshot()
	if st != BreakerOpen || trips != 1 {
		t.Fatalf("want open after threshold, got %v trips=%d", st, trips)
	}

	// Open: requests are routed to the fallback until the interval elapses.
	if useOpt, _ := b.allow(); useOpt {
		t.Fatal("open breaker must route to fallback")
	}

	// After the probe interval, exactly one probe goes through.
	clk.advance(time.Second + time.Millisecond)
	useOpt, probe := b.allow()
	if !useOpt || !probe {
		t.Fatalf("want a probe after the interval, got useOpt=%v probe=%v", useOpt, probe)
	}
	if useOpt2, probe2 := b.allow(); useOpt2 || probe2 {
		t.Fatal("only one probe may be in flight; concurrent requests must use the fallback")
	}

	// Failed probe: back to open for another interval.
	b.record(true, false)
	st, _, probes, probeFails := b.snapshot()
	if st != BreakerOpen || probes != 1 || probeFails != 1 {
		t.Fatalf("failed probe must re-open: %v probes=%d fails=%d", st, probes, probeFails)
	}
	if useOpt, _ := b.allow(); useOpt {
		t.Fatal("must stay on fallback right after a failed probe")
	}

	// Next interval: successful probe closes the breaker.
	clk.advance(time.Second + time.Millisecond)
	if useOpt, probe := b.allow(); !useOpt || !probe {
		t.Fatalf("want second probe, got useOpt=%v probe=%v", useOpt, probe)
	}
	b.record(true, true)
	if st, _, _, _ := b.snapshot(); st != BreakerClosed {
		t.Fatalf("successful probe must close, got %v", st)
	}
	if useOpt, probe := b.allow(); !useOpt || probe {
		t.Fatal("closed again: optimized, no probe")
	}
	// A success resets the consecutive-failure count.
	b.record(false, true)
	b.allow()
	b.record(false, false)
	if st, _, _, _ := b.snapshot(); st != BreakerClosed {
		t.Fatal("one failure after reset must not trip")
	}
}

// Concurrent trippers: many goroutines reporting failures at once must trip
// the breaker exactly once and leave consistent state. Run under -race.
func TestBreakerConcurrentTrippers(t *testing.T) {
	b, _ := testBreaker(3, time.Hour)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				useOpt, probe := b.allow()
				if useOpt {
					b.record(probe, false)
				}
			}
		}()
	}
	wg.Wait()
	st, trips, _, _ := b.snapshot()
	if st != BreakerOpen {
		t.Fatalf("want open, got %v", st)
	}
	if trips != 1 {
		t.Fatalf("concurrent failures must trip exactly once, got %d", trips)
	}
}

// Stale results from optimized runs that raced with the trip must not
// disturb the open breaker.
func TestBreakerIgnoresStaleRecords(t *testing.T) {
	b, _ := testBreaker(1, time.Hour)
	b.allow()
	b.record(false, false) // trips
	b.record(false, true)  // stale success from a racing request
	if st, _, _, _ := b.snapshot(); st != BreakerOpen {
		t.Fatalf("stale non-probe success must not close the breaker, got %v", st)
	}
}

// TestCloseRacesHalfOpenProbe covers Session.Close racing an in-flight
// half-open breaker probe: the drain must complete without deadlock or
// goroutine leaks, and the breaker must land in a consistent state (the
// probing flag released, the state fully resolved by the probe's outcome —
// never stuck half-open with a phantom probe). Both drain flavors are
// exercised: graceful (the probe finishes and closes the breaker) and
// forced (the drain deadline expires, the probe is canceled mid-kernel and
// the canceled probe keeps the breaker open).
func TestCloseRacesHalfOpenProbe(t *testing.T) {
	for _, forced := range []bool{false, true} {
		name := "graceful"
		if forced {
			name = "forced"
		}
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			opt, fb := servePair()
			s, err := New(opt, fb, Config{
				QueueSize: 8, Workers: 2, MaxRetries: -1,
				BreakerThreshold: 1, ProbeInterval: time.Millisecond,
				DefaultTimeout: 30 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}

			// Trip the breaker: one deterministic optimized-graph failure.
			faultinject.Enable(faultinject.Config{Seed: 1, Scope: "opt-graph", KernelPanicRate: 1})
			if _, err := s.Infer(context.Background(), Request{Inputs: []*tensor.Tensor{serveInput(opt, 1)}}); err == nil {
				t.Fatal("injected failure must surface")
			}
			if st, _, _, _ := s.br.snapshot(); st != BreakerOpen {
				t.Fatalf("breaker must be open after threshold-1 failure, got %v", st)
			}

			// Re-arm: the optimized graph now runs slowly but succeeds, so
			// the recovery probe is reliably in flight when Close lands.
			faultinject.Enable(faultinject.Config{Seed: 2, Scope: "opt-graph", SlowRate: 1, SlowDelay: 50 * time.Millisecond})
			defer faultinject.Disable()
			time.Sleep(2 * time.Millisecond) // let the probe interval elapse

			var wg sync.WaitGroup
			wg.Add(1)
			probeErrc := make(chan error, 1)
			go func() {
				defer wg.Done()
				_, err := s.Infer(context.Background(), Request{Inputs: []*tensor.Tensor{serveInput(opt, 2)}})
				probeErrc <- err
			}()
			time.Sleep(10 * time.Millisecond) // probe admitted and running

			ctx := context.Background()
			if forced {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 5*time.Millisecond)
				defer cancel()
			} else {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 10*time.Second)
				defer cancel()
			}
			closeErr := s.Close(ctx)
			wg.Wait()
			probeErr := <-probeErrc

			if forced {
				if closeErr == nil || !errors.Is(closeErr, guard.ErrCanceled) {
					t.Fatalf("forced drain must report ErrCanceled, got %v", closeErr)
				}
			} else if closeErr != nil {
				t.Fatalf("graceful drain: %v", closeErr)
			}

			// State consistency: no phantom probe may survive Close, and the
			// state must reflect the probe's real outcome.
			s.br.mu.Lock()
			state, probing := s.br.state, s.br.probing
			s.br.mu.Unlock()
			if probing {
				t.Fatalf("%s: probing flag stuck after Close (state %v)", name, state)
			}
			switch {
			case probeErr == nil:
				if state != BreakerClosed {
					t.Fatalf("successful probe must close the breaker, got %v", state)
				}
			case errors.Is(probeErr, guard.ErrCanceled):
				if state != BreakerOpen {
					t.Fatalf("canceled probe proves nothing and must re-open, got %v", state)
				}
			default:
				t.Fatalf("probe failed with unexpected error: %v", probeErr)
			}

			// No goroutine may outlive the drain.
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
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestMalformedRequestsDoNotTripBreaker: a request whose inputs do not fit
// the graph fails with ErrInvalidModel on any graph, so it says nothing
// about the optimized graph's health. However many arrive in a row, the
// breaker stays closed and the next good request is served normally.
func TestMalformedRequestsDoNotTripBreaker(t *testing.T) {
	s, opt, _ := newTestSession(t, Config{Workers: 1, BreakerThreshold: 2})
	for i := 0; i < 3; i++ {
		x := tensor.New(opt.Inputs[0].Shape...) // no batch dimension
		if _, err := s.Infer(context.Background(), Request{Inputs: []*tensor.Tensor{x}}); !errors.Is(err, guard.ErrInvalidModel) {
			t.Fatalf("malformed request %d: err = %v, want ErrInvalidModel", i, err)
		}
	}
	if st := s.Stats(); st.BreakerTrips != 0 {
		t.Fatalf("malformed requests tripped the breaker %d times", st.BreakerTrips)
	}
	resp, err := s.Infer(context.Background(), Request{Inputs: []*tensor.Tensor{serveInput(opt, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded {
		t.Fatal("good request after malformed ones served degraded")
	}
}
