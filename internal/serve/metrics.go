package serve

import (
	"temco/internal/obs"
)

// sessionMetrics is the session's instrument set, registered on a
// per-session obs.Registry. The session's counters live here and nowhere
// else: Stats() reads these same instruments, so the /statsz JSON view and
// the /metrics Prometheus view can never drift. Sampled values (queue
// depth, breaker state, engine runs) are GaugeFunc/CounterFunc closures
// over the owning structures, again a single source of truth.
type sessionMetrics struct {
	reg *obs.Registry

	accepted, shed, completed, failed *obs.Counter
	retries, degradedServed           *obs.Counter
	breakerTransitions                *obs.Counter
	inFlight                          *obs.Gauge
	queueWait, runLatency             *obs.Histogram

	// Batching-stage instruments. Registered unconditionally (they just
	// stay zero with batching off) so the exposition surface is stable.
	batchedRuns, batchedRequests *obs.Counter
	paddedSlots, batchBypass     *obs.Counter
	batchSplits                  *obs.Counter
	batchPending                 *obs.Gauge
	batchWait, batchOccupancy    *obs.Histogram
}

// newSessionMetrics builds and registers the session's instruments. Called
// after the queue, breaker, and engines exist: the sampled closures read
// them at scrape time.
func newSessionMetrics(s *Session) *sessionMetrics {
	reg := obs.NewRegistry()
	m := &sessionMetrics{reg: reg}
	m.accepted = reg.Counter("temco_serve_accepted_total",
		"Requests admitted to the queue.")
	m.shed = reg.Counter("temco_serve_shed_total",
		"Requests shed at admission (queue full or draining).")
	m.completed = reg.Counter("temco_serve_completed_total",
		"Requests completed successfully.")
	m.failed = reg.Counter("temco_serve_failed_total",
		"Requests that exhausted retries or failed terminally.")
	m.retries = reg.Counter("temco_serve_retries_total",
		"Retry attempts across all requests.")
	m.degradedServed = reg.Counter("temco_serve_degraded_total",
		"Requests served by the fallback graph while the breaker was not closed.")
	m.breakerTransitions = reg.Counter("temco_serve_breaker_transitions_total",
		"Circuit breaker state transitions (any direction).")
	m.inFlight = reg.Gauge("temco_serve_in_flight",
		"Requests currently executing on a worker.")
	m.queueWait = reg.Histogram("temco_serve_queue_wait_seconds",
		"Time from admission to a worker picking the request up.", nil)
	m.runLatency = reg.Histogram("temco_serve_run_seconds",
		"Worker execution time per worker run (one observation per run, however many requests it served), including retries and backoff.", nil)
	m.batchedRuns = reg.Counter("temco_serve_batched_runs_total",
		"Coalesced engine runs executed at a batch bucket.")
	m.batchedRequests = reg.Counter("temco_serve_batched_requests_total",
		"Requests served through a coalesced batch run.")
	m.paddedSlots = reg.Counter("temco_serve_padded_slots_total",
		"Padding rows added to reach the nearest batch bucket, across all runs.")
	m.batchBypass = reg.Counter("temco_serve_batch_bypass_total",
		"Requests that bypassed coalescing (tight deadline, unbatchable shape, or at/over the batch cap) and ran solo.")
	m.batchSplits = reg.Counter("temco_serve_batch_splits_total",
		"Packed runs split back into unpadded solo runs after a budget failure at their bucket.")
	m.batchPending = reg.Gauge("temco_serve_batch_pending",
		"Requests currently waiting in an open accumulation window.")
	m.batchWait = reg.Histogram("temco_serve_batch_wait_seconds",
		"Time a coalesced batch spent accumulating before dispatch.",
		[]float64{0.00025, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.025, 0.1})
	m.batchOccupancy = reg.Histogram("temco_serve_batch_occupancy",
		"Sample rows per batched run, before padding to the bucket.",
		[]float64{1, 2, 4, 8, 16, 32, 64})

	reg.GaugeFunc("temco_serve_queue_depth",
		"Requests waiting in the admission queue.",
		func() float64 { return float64(s.q.depth()) })
	reg.GaugeFunc("temco_serve_queue_capacity",
		"Admission queue capacity.",
		func() float64 { return float64(s.cfg.QueueSize) })
	reg.GaugeFunc("temco_serve_workers",
		"Executor goroutines.",
		func() float64 { return float64(s.cfg.Workers) })
	reg.GaugeFunc("temco_serve_breaker_state",
		"Circuit breaker state: 0 closed, 1 open, 2 half-open.",
		func() float64 {
			state, _, _, _ := s.br.snapshot()
			return float64(state)
		})
	reg.CounterFunc("temco_serve_breaker_trips_total",
		"Closed-to-open breaker trips.",
		func() float64 {
			_, trips, _, _ := s.br.snapshot()
			return float64(trips)
		})
	reg.CounterFunc("temco_serve_probes_total",
		"Half-open recovery probes attempted.",
		func() float64 {
			_, _, probes, _ := s.br.snapshot()
			return float64(probes)
		})
	reg.CounterFunc("temco_serve_probe_failures_total",
		"Recovery probes that failed (breaker re-opened).",
		func() float64 {
			_, _, _, fails := s.br.snapshot()
			return float64(fails)
		})
	reg.CounterFunc("temco_serve_engine_runs_total",
		"Completed compiled-engine runs across both graphs.",
		func() float64 { return float64(s.engineRuns()) })
	return m
}

// Metrics returns the session's metrics registry, ready to be served next
// to obs.Default() on a /metrics endpoint. The registry is per-session, so
// several sessions in one process never collide on instrument names.
func (s *Session) Metrics() *obs.Registry { return s.met.reg }
