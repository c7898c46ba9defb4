// Package serve is the fault-tolerant inference serving tier. A Session
// wraps a compiled graph pair — the TeMCO-optimized graph and its
// unoptimized fallback — behind a bounded priority admission queue and a
// worker pool with per-request deadlines. Each worker owns a compiled
// engine.Instance per graph (plan-once/run-many: pre-packed weights and a
// private arena slab, so the steady-state hot path allocates nothing and
// workers never contend on buffers); when a graph fails to compile, the
// worker falls back to the exec.RunCtx interpreter, which runs the same
// kernel steps and is bit-identical.
//
// Every unit a worker runs is a microbatch of one or more requests, and one
// function runs it: with batching off each admitted request is a one-member
// microbatch; with batching on the coalescer hands over accumulation windows
// and one-member bypasses. Failures are absorbed in layers:
//
//   - admission control: a full queue sheds load immediately with
//     guard.ErrOverloaded instead of growing latency without bound;
//   - retries: retryable failures (memory budget pressure, transient
//     kernel panics) are retried with exponential backoff inside the
//     request's deadline;
//   - degradation: when the optimized graph keeps faulting, a circuit
//     breaker trips and traffic falls back to the unoptimized graph, with
//     periodic probes deciding when to switch back;
//   - cancellation: deadlines propagate into the kernels themselves, so a
//     canceled request stops mid-conv rather than finishing the node. A
//     one-member run stops on its caller's cancel too; a shared run stops
//     only when its last member's deadline passes, sparing batchmates.
package serve

import (
	"context"
	"errors"
	"math/rand/v2"
	"time"

	"sync"
	"sync/atomic"

	"temco/internal/engine"
	"temco/internal/guard"
	"temco/internal/ir"
	"temco/internal/obs"
	"temco/internal/tensor"
)

// Config tunes a Session. Zero values take the documented defaults.
type Config struct {
	// QueueSize bounds the admission queue; a full queue sheds load with
	// guard.ErrOverloaded. Default 64.
	QueueSize int
	// Workers is the number of concurrent executor goroutines. Default 2.
	Workers int
	// DefaultTimeout applies to requests that carry no deadline of their
	// own. Default 30s.
	DefaultTimeout time.Duration
	// MaxRetries is how many times a retryable failure (budget exceeded,
	// transient kernel panic) is retried before the request fails.
	// Default 2; a negative value disables retries.
	MaxRetries int
	// RetryBackoff is the first retry's backoff base; the base doubles per
	// attempt and each delay is equal-jittered to [base/2, base] so
	// simultaneous failures across workers do not retry in lockstep.
	// Default 2ms.
	RetryBackoff time.Duration
	// BudgetBytes is the per-request peak-memory budget (0 = unlimited).
	// The compiled engine accounts it the arena way (slab + largest kernel
	// workspace); a graph served by the exec.RunCtx interpreter fallback
	// accounts it by live-tensor tracking.
	BudgetBytes int64
	// BreakerThreshold is how many consecutive optimized-graph failures
	// trip the circuit breaker. Default 3.
	BreakerThreshold int
	// ProbeInterval is how long the breaker stays open before letting one
	// probe request test the optimized graph again. Default 1s.
	ProbeInterval time.Duration
	// MaxBatchSize enables dynamic request batching when > 1: a coalescer
	// between the admission queue and the worker pool packs up to this
	// many compatible sample rows (same graph inputs, same priority class)
	// into one engine run, padded to the smallest bucket of the 1, 4, 8,
	// 16, 32 ladder (clipped to this cap, with the cap as the top bucket),
	// and scatters per-request output slices back. 0 or 1 turns the
	// coalescer off: each request is then a one-member microbatch that runs
	// on its own inputs.
	MaxBatchSize int
	// MaxBatchLatency is the accumulation window: how long the coalescer
	// holds an open batch waiting for more rows before dispatching it
	// partially full. A request whose deadline cannot survive the window
	// bypasses batching and runs as a one-member microbatch. Default 2ms
	// when batching is on.
	MaxBatchLatency time.Duration
}

func (c *Config) applyDefaults() {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 2 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.MaxBatchSize > 1 && c.MaxBatchLatency <= 0 {
		c.MaxBatchLatency = 2 * time.Millisecond
	}
}

// batching reports whether the coalescer stage is enabled.
func (c *Config) batching() bool { return c.MaxBatchSize > 1 }

// Request is one inference call.
type Request struct {
	// Inputs are the graph inputs (one batched tensor per graph input).
	Inputs []*tensor.Tensor
	// Priority orders the request in the admission queue.
	Priority Priority
	// Timeout is the per-request deadline measured from admission;
	// zero takes Config.DefaultTimeout. The caller context's own deadline
	// applies on top.
	Timeout time.Duration
}

// Response is a completed inference.
type Response struct {
	// Outputs are the graph outputs, in graph order.
	Outputs []*tensor.Tensor
	// Degraded reports that the fallback (unoptimized) graph served this
	// request because the optimized graph's breaker was open.
	Degraded bool
	// Retries is how many failed attempts preceded the successful one.
	Retries int
	// Queued and Exec split the request's latency into time waiting for a
	// worker and time executing (including retries and backoff).
	Queued, Exec time.Duration
}

// Stats is a point-in-time snapshot of a Session's counters. Every field
// is read from the session's obs.Registry instruments — the same ones a
// /metrics scrape renders — so the JSON and Prometheus views of a session
// can never disagree.
type Stats struct {
	Accepted       uint64 `json:"accepted"`
	Shed           uint64 `json:"shed"`
	Completed      uint64 `json:"completed"`
	Failed         uint64 `json:"failed"`
	Retries        uint64 `json:"retries"`
	DegradedServed uint64 `json:"degraded_served"`
	QueueDepth     int    `json:"queue_depth"`
	QueueCap       int    `json:"queue_cap"`
	InFlight       int64  `json:"in_flight"`
	Workers        int    `json:"workers"`
	Breaker        string `json:"breaker"`
	BreakerTrips   uint64 `json:"breaker_trips"`
	Probes         uint64 `json:"probes"`
	ProbeFailures  uint64 `json:"probe_failures"`
	Draining       bool   `json:"draining"`
	// BreakerTransitions counts breaker state changes in any direction
	// (trips, probe grants, closes, re-opens).
	BreakerTransitions uint64 `json:"breaker_transitions"`
	// QueueWaitSecondsTotal is the cumulative time requests spent waiting
	// for a worker; QueueWaitCount the number of waits observed. Their
	// ratio is the mean queue wait; the full distribution is the
	// temco_serve_queue_wait_seconds histogram on /metrics.
	QueueWaitSecondsTotal float64 `json:"queue_wait_seconds_total"`
	QueueWaitCount        uint64  `json:"queue_wait_count"`
	// RunSecondsTotal is the cumulative worker execution time (including
	// retries and backoff), the _sum of temco_serve_run_seconds. It grows
	// once per worker run, so a coalesced run counts its time once, not
	// once per member: the autoscaler reads it as busy worker time.
	RunSecondsTotal float64 `json:"run_seconds_total"`
	// EngineOptimized / EngineFallback report whether the respective graph
	// serves through a compiled engine (false = interpreter path).
	EngineOptimized bool `json:"engine_optimized"`
	EngineFallback  bool `json:"engine_fallback"`
	// EngineRuns counts completed compiled-engine runs across both graphs.
	EngineRuns uint64 `json:"engine_runs"`
	// Batching reports whether the coalescer stage is enabled; the fields
	// below mirror the temco_serve_batch* instruments either way (all zero
	// with batching off).
	Batching bool `json:"batching"`
	// BatchedRuns counts coalesced engine runs; BatchedRequests the
	// requests they served (their ratio is the realized mean batch size).
	BatchedRuns     uint64 `json:"batched_runs"`
	BatchedRequests uint64 `json:"batched_requests"`
	// PaddedSlots counts padding rows added to reach a bucket, by any
	// run; BatchBypass requests that skipped coalescing and ran solo;
	// BatchSplits packed runs split to unpadded solo runs after a budget
	// failure.
	PaddedSlots uint64 `json:"padded_slots"`
	BatchBypass uint64 `json:"batch_bypass"`
	BatchSplits uint64 `json:"batch_splits"`
	// BatchPending is the number of requests sitting in an open
	// accumulation window right now — queue depth the admission queue no
	// longer sees, reported to the cluster tier for placement.
	BatchPending int64 `json:"batch_pending"`
	// BatchWaitSecondsTotal / BatchWaitCount summarize the accumulation
	// window histogram (temco_serve_batch_wait_seconds).
	BatchWaitSecondsTotal float64 `json:"batch_wait_seconds_total"`
	BatchWaitCount        uint64  `json:"batch_wait_count"`
}

// Session is a concurrent inference session over an optimized graph and
// its unoptimized fallback. Safe for concurrent use by any number of
// callers.
type Session struct {
	opt, fb *ir.Graph
	cfg     Config
	q       *queue
	br      *breaker

	// optEng/fbEng are the compiled engines, nil when the graph did not
	// compile (that graph then serves through the interpreter). Engines
	// are immutable and shared; each worker holds its own Instances.
	optEng, fbEng *engine.Engine

	// buckets is the runtime batch-bucket ladder (ascending), clipped to
	// MaxBatchSize; batchCh carries coalesced microbatches from the
	// coalescer goroutine to the workers (nil when batching is off).
	buckets []int
	batchCh chan *microbatch

	// baseCtx is canceled on forced shutdown; every request context hangs
	// off it so in-flight kernels stop mid-node when draining times out.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	workers  sync.WaitGroup
	draining atomic.Bool

	// met holds every session counter, gauge, and histogram, registered on
	// a per-session obs.Registry; Stats() and /metrics both read it.
	met *sessionMetrics
}

// New builds a Session serving the optimized graph with the given fallback.
// The two graphs must be interchangeable: same input and output arity (the
// fallback is typically the decomposed-but-unoptimized graph the optimizer
// started from). Workers start immediately; the caller owns Close.
func New(optimized, fallback *ir.Graph, cfg Config) (*Session, error) {
	if optimized == nil || fallback == nil {
		return nil, guard.Errorf(guard.ErrInvalidModel, "serve.New", "nil graph")
	}
	if len(optimized.Inputs) != len(fallback.Inputs) || len(optimized.Outputs) != len(fallback.Outputs) {
		return nil, guard.Errorf(guard.ErrInvalidModel, "serve.New",
			"fallback not interchangeable: %d/%d inputs, %d/%d outputs",
			len(fallback.Inputs), len(optimized.Inputs), len(fallback.Outputs), len(optimized.Outputs))
	}
	cfg.applyDefaults()
	s := &Session{
		opt: optimized,
		fb:  fallback,
		cfg: cfg,
		q:   newQueue(cfg.QueueSize),
		br:  newBreaker(cfg.BreakerThreshold, cfg.ProbeInterval),
	}
	// The runtime ladder is batchLadder clipped to the batch cap, with the
	// cap itself as the top bucket so a full batch never pads. With
	// batching off everything runs at batch-per-request sizes, but the full
	// ladder is still compiled below.
	if cfg.batching() {
		for _, b := range batchLadder {
			if b <= cfg.MaxBatchSize {
				s.buckets = append(s.buckets, b)
			}
		}
		if n := len(s.buckets); n == 0 || s.buckets[n-1] != cfg.MaxBatchSize {
			s.buckets = append(s.buckets, cfg.MaxBatchSize)
		}
	} else {
		s.buckets = []int{1}
	}
	// Compile-or-fall-back: an engine that will not compile (e.g. a layout
	// that fails its check) is not an error — the interpreter serves that
	// graph with identical outputs, just without the plan reuse. The whole
	// bucket ladder is planned here, at session start, so no request ever
	// pays the O(n²) layout check on the hot path.
	ladder := append(append([]int(nil), batchLadder[:]...), s.buckets...)
	opts := engine.Options{Batch: 1, Batches: ladder, BudgetBytes: cfg.BudgetBytes}
	s.optEng, _ = engine.Compile(optimized, opts)
	s.fbEng, _ = engine.Compile(fallback, opts)
	// Instruments go live after the structures their sampled closures read
	// (queue, breaker, engines) exist, and before any worker starts.
	s.met = newSessionMetrics(s)
	s.br.onTransition = func(from, to BreakerState) { s.met.breakerTransitions.Inc() }
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if cfg.batching() {
		s.batchCh = make(chan *microbatch)
		s.workers.Add(1)
		go s.coalesce()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// Infer admits req, waits for a worker to execute it, and returns the
// outputs. Failure classification (all via errors.Is):
//
//   - guard.ErrOverloaded: queue full or session draining — shed before
//     any execution; retry later.
//   - guard.ErrCanceled: the deadline or caller context expired, whether
//     queued or mid-kernel.
//   - guard.ErrDegraded: the breaker was open and the fallback failed too
//     (wraps the fallback's underlying error).
//   - guard.ErrBudgetExceeded / guard.ErrInternal: the request exhausted
//     its retries on the serving graph.
func (s *Session) Infer(ctx context.Context, req Request) (*Response, error) {
	if len(req.Inputs) == 0 {
		return nil, guard.Errorf(guard.ErrInvalidModel, "serve.Infer", "request has no inputs")
	}
	// The request trace rides the caller context (temcod's HTTP middleware
	// attaches it); nil when no one is tracing, which costs nothing below.
	rt := obs.RequestFrom(ctx)
	if s.draining.Load() {
		s.met.shed.Inc()
		if rt != nil {
			rt.Event("serve.shed", "draining")
			rt.SetStatus("shed")
		}
		return nil, guard.Errorf(guard.ErrOverloaded, "serve.Infer", "session draining")
	}
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	// Forced shutdown cancels every in-flight request via baseCtx.
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	it := &item{ctx: rctx, req: &req, enq: time.Now(), done: make(chan result, 1), rt: rt, rows: s.rowsFor(req.Inputs)}
	if !s.q.push(it) {
		s.met.shed.Inc()
		if rt != nil {
			rt.Event("serve.shed", "queue_full")
			rt.SetStatus("shed")
		}
		return nil, guard.Errorf(guard.ErrOverloaded, "serve.Infer",
			"admission queue full (%d queued)", s.cfg.QueueSize)
	}
	s.met.accepted.Inc()
	if rt != nil {
		rt.Event("serve.admit", "")
	}
	select {
	case r := <-it.done:
		return r.resp, r.err
	case <-rctx.Done():
		// Still queued (or mid-run): the worker observes the canceled
		// context and abandons the work; the buffered done channel keeps
		// its delivery from blocking.
		return nil, guard.New(guard.ErrCanceled, "serve.Infer", rctx.Err())
	}
}

// worker executes microbatches until the session closes. Each worker owns
// its engine instances and pack buffers, so the hot path never takes a lock
// or touches shared state. Two feeders, one run path: with batching off the
// worker pops the admission queue itself and wraps each request as a
// one-member microbatch; with batching on it drains the coalescer's
// microbatches.
func (s *Session) worker() {
	defer s.workers.Done()
	var w workerState
	if s.optEng != nil {
		w.opt = s.optEng.NewInstance()
	}
	if s.fbEng != nil {
		w.fb = s.fbEng.NewInstance()
	}
	if s.batchCh != nil {
		for b := range s.batchCh {
			s.run(b, &w)
		}
		return
	}
	for {
		it, ok := s.q.pop()
		if !ok {
			return
		}
		s.run(&microbatch{members: []*item{it}, solo: true}, &w)
	}
}

// workerState is what one worker runs with: its compiled instances (nil
// for a graph serving through the interpreter) and its pack buffers.
type workerState struct {
	opt, fb *engine.Instance
	pk      packBuf
}

// run picks a microbatch up on this worker: it closes each member's
// queue-wait accounting, delivers guard.ErrCanceled to members canceled
// while queued, links the members of a coalesced window, and executes the
// rest.
func (s *Session) run(b *microbatch, w *workerState) {
	now := time.Now()
	live := b.members[:0]
	for _, it := range b.members {
		it.queued = now.Sub(it.enq)
		if it.rt != nil {
			it.rt.Span("serve.queue", "", it.enq, it.queued)
			s.met.queueWait.ObserveWithExemplar(it.queued.Seconds(), it.rt.Context().TraceID)
		} else {
			s.met.queueWait.Observe(it.queued.Seconds())
		}
		if err := it.ctx.Err(); err != nil {
			s.deliver(it, nil, guard.New(guard.ErrCanceled, "serve.run", err))
			continue
		}
		live = append(live, it)
	}
	if len(live) == 0 {
		return
	}
	if !b.solo {
		// Traced members record the accumulation window they sat in and
		// link every batchmate's request id, so /debugz/requests/{id} shows
		// who shared the engine run. Done once per microbatch: survivor
		// re-runs after a retry do not duplicate the links.
		for _, it := range live {
			if it.rt == nil {
				continue
			}
			it.rt.Span("batch.window", "", b.opened, now.Sub(b.opened))
			for _, other := range live {
				if other != it && other.rt != nil {
					it.rt.AddSibling(other.rt.Context().RequestID)
				}
			}
		}
		s.met.batchedRequests.Add(uint64(len(live)))
	}
	s.execute(live, b.solo, false, w)
}

// execute runs live as one unit until it is served or fails: the session's
// only breaker-routed graph choice, retry loop with jittered backoff, and
// degradation classification. One attempt is one breaker event whatever
// the member count. A member canceled during a backoff is delivered
// guard.ErrCanceled and dropped; the survivors run again, possibly at a
// smaller bucket. A packed run (shared, or a lone member padded to its
// bucket) that exceeds the memory budget splits into unpadded one-member
// runs, which may individually fit and carry their own retry budget. solo
// selects accounting only (see microbatch); unpadded marks a split's
// re-run.
func (s *Session) execute(live []*item, solo, unpadded bool, w *workerState) {
	s.met.inFlight.Add(int64(len(live)))
	start := time.Now()
	// deliverAll ends the run and hands every member the shared outcome.
	deliverAll := func(outs [][]*tensor.Tensor, degraded bool, retries int, err error) {
		exec := s.endRun(live, start)
		for i, it := range live {
			if err != nil {
				s.deliver(it, nil, err)
				continue
			}
			s.deliver(it, &Response{
				Outputs:  outs[i],
				Degraded: degraded,
				Retries:  retries,
				Queued:   it.queued,
				Exec:     exec,
			}, nil)
		}
	}
	retries := 0
	for attempt := 0; ; attempt++ {
		useOpt, probe := s.br.allow()
		g, inst := s.opt, w.opt
		if !useOpt {
			g, inst = s.fb, w.fb
		}
		outs, packed, err := s.attempt(live, solo, unpadded, g, inst, &w.pk)
		canceled := err != nil && errors.Is(err, guard.ErrCanceled)
		if useOpt {
			if probe {
				// A canceled probe proves nothing about recovery: count it
				// as a failed probe and keep the breaker open.
				s.br.record(true, err == nil)
			} else if !canceled {
				s.br.record(false, err == nil)
			}
		}
		if err == nil {
			if !useOpt {
				s.met.degradedServed.Add(uint64(len(live)))
				for _, it := range live {
					if it.rt != nil {
						it.rt.Event("serve.degraded", "fallback")
						it.rt.SetStatus("degraded")
					}
				}
			}
			deliverAll(outs, !useOpt, retries, nil)
			return
		}
		if canceled {
			deliverAll(nil, false, retries, err)
			return
		}
		if errors.Is(err, guard.ErrBudgetExceeded) && packed {
			// The bucket's arena exceeds the budget the members would
			// individually fit under (or a transient budget fault hit the
			// packed run): run each member alone at its own row count.
			s.met.batchSplits.Inc()
			s.endRun(live, start)
			for _, it := range live {
				s.execute([]*item{it}, true, true, w)
			}
			return
		}
		if !retryable(err) || attempt >= s.cfg.MaxRetries {
			if !useOpt {
				// Degraded mode and the fallback failed too: the service
				// has nothing left to serve these requests with.
				err = guard.New(guard.ErrDegraded, "serve.fallback", err)
			}
			deliverAll(nil, false, retries, err)
			return
		}
		retries++
		s.met.retries.Add(uint64(len(live)))
		for _, it := range live {
			if it.rt != nil {
				it.rt.Event("serve.retry", "")
			}
		}
		// The backoff waits under the run's context, so it ends on a lone
		// member's cancel as its kernels would.
		ctx, cancel := s.runContext(live)
		t := time.NewTimer(jitterBackoff(s.cfg.RetryBackoff, attempt, rand.Float64()))
		select {
		case <-ctx.Done():
			t.Stop()
			cancel()
			deliverAll(nil, false, retries, guard.New(guard.ErrCanceled, "serve.run", ctx.Err()))
			return
		case <-t.C:
			cancel()
		}
		kept := live[:0]
		for _, it := range live {
			if cerr := it.ctx.Err(); cerr != nil {
				s.met.inFlight.Add(-1)
				s.deliver(it, nil, guard.New(guard.ErrCanceled, "serve.run", cerr))
				continue
			}
			kept = append(kept, it)
		}
		live = kept
		if len(live) == 0 {
			s.endRun(nil, start)
			return
		}
	}
}

// endRun closes a worker run's accounting: its members leave the in-flight
// gauge, and temco_serve_run_seconds observes the run once, however many
// members it served, with the primary member's exemplar.
func (s *Session) endRun(live []*item, start time.Time) time.Duration {
	d := time.Since(start)
	s.met.inFlight.Add(-int64(len(live)))
	if rt := primaryTrace(live); rt != nil {
		s.met.runLatency.ObserveWithExemplar(d.Seconds(), rt.Context().TraceID)
	} else {
		s.met.runLatency.Observe(d.Seconds())
	}
	return d
}

// primaryTrace is the first traced member: the timeline a shared run's
// engine step spans and the run's exemplar land on. Nil when no member is
// traced.
func primaryTrace(live []*item) *obs.ReqTrace {
	for _, it := range live {
		if it.rt != nil {
			return it.rt
		}
	}
	return nil
}

// deliver counts the outcome and hands the result back to Infer over the
// item's buffered fan-back channel.
func (s *Session) deliver(it *item, resp *Response, err error) {
	if err != nil {
		s.met.failed.Inc()
	} else {
		s.met.completed.Inc()
	}
	it.done <- result{resp: resp, err: err}
}

// retryable reports whether a failure class is worth retrying: memory
// budget pressure is transient (concurrent requests release their tensors)
// and recovered kernel panics may be transient faults.
func retryable(err error) bool {
	return errors.Is(err, guard.ErrBudgetExceeded) || errors.Is(err, guard.ErrInternal)
}

// maxBackoffShift caps the exponential term so a long retry ladder cannot
// overflow time.Duration (and 2ms << 16 ≈ 2m is already beyond any sane
// request deadline).
const maxBackoffShift = 16

// jitterBackoff computes the attempt'th retry delay: exponential growth
// with equal jitter, uniformly drawn from [exp/2, exp] where
// exp = base << attempt. u is the uniform sample in [0, 1). A bare
// exponential synchronizes the retries of every worker that failed on the
// same event (breaker trip, budget spike), thundering-herding the fallback
// path at exactly base, 2·base, 4·base…; keeping half the delay
// deterministic preserves the backpressure shape while the random half
// decorrelates the herd.
func jitterBackoff(base time.Duration, attempt int, u float64) time.Duration {
	if attempt > maxBackoffShift {
		attempt = maxBackoffShift
	}
	exp := base << uint(attempt)
	half := exp / 2
	return half + time.Duration(u*float64(exp-half))
}

// BatchBuckets returns the runtime batch-bucket ladder (ascending) batched
// runs pad to. With batching disabled it is [1].
func (s *Session) BatchBuckets() []int { return append([]int(nil), s.buckets...) }

// BatchConfig reports the batching knobs the session runs with: whether
// the coalescer stage is enabled, the sample-row cap per batch, and the
// accumulation window.
func (s *Session) BatchConfig() (enabled bool, maxBatch int, window time.Duration) {
	return s.cfg.batching(), s.cfg.MaxBatchSize, s.cfg.MaxBatchLatency
}

// Engines returns the compiled engines for the optimized and fallback
// graphs (nil for a graph serving through the interpreter). Engines are
// immutable; callers may take their own Instances, e.g. to probe
// steady-state allocation behavior on a live daemon.
func (s *Session) Engines() (opt, fb *engine.Engine) { return s.optEng, s.fbEng }

// EngineStats reports the compiled-engine snapshots for the optimized and
// fallback graphs. ok is false for a graph serving through the interpreter
// (engine disabled or compilation fell back); its Stats is then zero.
func (s *Session) EngineStats() (opt, fb engine.Stats, optOK, fbOK bool) {
	if s.optEng != nil {
		opt, optOK = s.optEng.Stats(), true
	}
	if s.fbEng != nil {
		fb, fbOK = s.fbEng.Stats(), true
	}
	return opt, fb, optOK, fbOK
}

// Stats snapshots the session's counters.
func (s *Session) Stats() Stats {
	state, trips, probes, probeFails := s.br.snapshot()
	return Stats{
		Accepted:              s.met.accepted.Value(),
		Shed:                  s.met.shed.Value(),
		Completed:             s.met.completed.Value(),
		Failed:                s.met.failed.Value(),
		Retries:               s.met.retries.Value(),
		DegradedServed:        s.met.degradedServed.Value(),
		QueueDepth:            s.q.depth(),
		QueueCap:              s.cfg.QueueSize,
		InFlight:              s.met.inFlight.Value(),
		Workers:               s.cfg.Workers,
		Breaker:               state.String(),
		BreakerTrips:          trips,
		Probes:                probes,
		ProbeFailures:         probeFails,
		Draining:              s.draining.Load(),
		BreakerTransitions:    s.met.breakerTransitions.Value(),
		QueueWaitSecondsTotal: s.met.queueWait.Sum(),
		QueueWaitCount:        s.met.queueWait.Count(),
		RunSecondsTotal:       s.met.runLatency.Sum(),
		Batching:              s.cfg.batching(),
		BatchedRuns:           s.met.batchedRuns.Value(),
		BatchedRequests:       s.met.batchedRequests.Value(),
		PaddedSlots:           s.met.paddedSlots.Value(),
		BatchBypass:           s.met.batchBypass.Value(),
		BatchSplits:           s.met.batchSplits.Value(),
		BatchPending:          s.met.batchPending.Value(),
		BatchWaitSecondsTotal: s.met.batchWait.Sum(),
		BatchWaitCount:        s.met.batchWait.Count(),
		EngineOptimized:       s.optEng != nil,
		EngineFallback:        s.fbEng != nil,
		EngineRuns:            s.engineRuns(),
	}
}

// engineRuns counts completed compiled-engine runs across both graphs.
func (s *Session) engineRuns() uint64 {
	var runs uint64
	if s.optEng != nil {
		runs += s.optEng.Stats().Runs
	}
	if s.fbEng != nil {
		runs += s.fbEng.Stats().Runs
	}
	return runs
}

// Ready reports whether the session accepts new requests.
func (s *Session) Ready() bool { return !s.draining.Load() }

// Drain flips the session into draining without stopping it: new Infer
// calls shed immediately with guard.ErrOverloaded while queued and
// in-flight requests run to completion on the live worker pool. Unlike
// Close, the session keeps answering Stats and Ready afterwards, so
// /readyz can report drain progress (queue depth, in-flight) until the
// process is told to exit; a later Close performs the usual shutdown.
// Idempotent.
func (s *Session) Drain() { s.draining.Store(true) }

// QueueWaitQuantile estimates the q-quantile of the admission queue-wait
// distribution from the session's fixed-bucket histogram. Upper-bound
// biased like any bucketed quantile; zero until something was observed.
func (s *Session) QueueWaitQuantile(q float64) time.Duration {
	return time.Duration(s.met.queueWait.Quantile(q) * float64(time.Second))
}

// Degraded reports whether the optimized graph's breaker is currently not
// closed (requests are or may be served by the fallback).
func (s *Session) Degraded() bool {
	state, _, _, _ := s.br.snapshot()
	return state != BreakerClosed
}

// Close drains the session: admission stops immediately (new Infer calls
// shed with guard.ErrOverloaded), queued and in-flight requests run to
// completion, then the workers exit. If ctx expires first, the remaining
// work is force-canceled (in-flight kernels stop mid-node) and Close
// returns an error wrapping guard.ErrCanceled after the workers exit.
// Close is idempotent; concurrent calls all wait for the drain.
func (s *Session) Close(ctx context.Context) error {
	s.draining.Store(true)
	s.q.close()
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.baseCancel()
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return guard.New(guard.ErrCanceled, "serve.Close", ctx.Err())
	}
}
