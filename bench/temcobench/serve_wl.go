package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"temco/internal/core"
	"temco/internal/gemm"
	"temco/internal/obs"
	"temco/internal/serve"
	"temco/internal/tensor"
)

const (
	// serveRate is the offered load of serve-open-batched in requests per
	// second. The issue proposed 800; measured on the 2-core reference box
	// that keeps the one worker 92 % busy (the load generator and the output
	// check share the two cores with it), outside the 35-75 % the workload is
	// meant to run at, so it was lowered once, to 500: 70 % busy, 99.8 % of
	// requests inside the limit. That is still what one worker can just
	// about do running every request alone (530-590/s unloaded), so without
	// the coalescer the queue would grow; with it, rows per run, the window
	// and padding decide the latency. The rate is frozen: changing it
	// changes the workload.
	serveRate = 500.0
	// servingInputs is how many distinct seeded inputs the serving workloads
	// draw requests from.
	servingInputs = 32
	// servingBatch is the largest run-time bucket of the serving workloads'
	// sessions (-batch-max 8); their plan and kernel metrics are taken there.
	servingBatch = 8
	// probeSeconds is how long the serving workloads run the served model's
	// two engines against each other in-process for time_vs_decomposed.
	probeSeconds = 3 * time.Second
)

// servingConfig is the session of serve-open-batched. The admission queue is
// deeper than the default 64 on purpose: when the whole (shared) box stalls
// for 150 ms, the open-loop generator wakes up owing 75 requests and sends
// them at once, and a 64-deep queue sheds the excess — seen once in fifty
// runs. With room for a second of arrivals such a stall shows up as late
// responses, which lower goodput, and not as refused operations.
func servingConfig() serve.Config {
	return serve.Config{Workers: 1, MaxBatchSize: servingBatch, MaxBatchLatency: 2 * time.Millisecond, QueueSize: 512}
}

// modelProbe is the served model run in-process, outside the serving path:
// the source of the serving workloads' peak_arena_bytes, time_vs_decomposed
// and engine-level layer metrics.
type modelProbe struct {
	g *graphs
	e *engines
	p *pair
}

func newModelProbe(g *graphs, seed uint64) (*modelProbe, error) {
	e, err := compileEngines(nil, -1, g, servingBatch)
	if err != nil {
		return nil, err
	}
	inputs := makeInputs(seed+1, 4, servingBatch)
	ref, err := buildReference(g, inputs)
	if err != nil {
		return nil, err
	}
	return &modelProbe{g: g, e: e, p: &pair{opt: e.opt.NewInstance(), dec: e.dec.NewInstance(), inputs: inputs, ref: ref}}, nil
}

// e2e runs the untraced in-process comparison and fills the two end-to-end
// metrics it owns. Its runs count as attempted operations.
func (mp *modelProbe) e2e(ctx context.Context, res *result) error {
	if _, err := runInterleaved(ctx, nil, -1, mp.p, probeSeconds/4); err != nil {
		return err
	}
	r, err := runInterleaved(ctx, nil, -1, mp.p, probeSeconds)
	if err != nil {
		return err
	}
	res.count(r.attempted(), r.failed, r.mismatched)
	res.E2E.set("peak_arena_bytes", peakArenaBytes(mp.e.opt), 0)
	res.E2E.set("time_vs_decomposed", r.timeVsDecomposed(), len(r.opt))
	return nil
}

// layers runs the traced in-process comparison and the static probes. With
// shares set, the per-kind step shares are taken from these runs too (the
// fleet cannot see inside its daemons' engines).
func (mp *modelProbe) layers(ctx context.Context, rec *recorder, parent int, res *result, shares bool) error {
	id := rec.begin(parent, "engine-probe", 0)
	tracer := obs.EnableTrace(obs.TraceConfig{Scope: mp.g.opt.Name, Capacity: traceCapacity})
	r, err := runInterleaved(ctx, rec, id, mp.p, probeSeconds)
	obs.DisableTrace()
	rec.end(id)
	if err != nil {
		return err
	}
	res.count(r.attempted(), r.failed, r.mismatched)
	steps := tracer.Spans()
	res.Layer.merge(engineLayerMetrics(mp.g, r, steps, stepsPerRun(mp.g), servingBatch))
	if shares {
		res.Layer.merge(stepShares(steps))
	}
	res.Layer.set("engine.compile_ms", ms(mp.e.compileTime), 1)
	static, err := staticLayerMetrics(ctx, rec, parent, mp.g, mp.e.opt, servingBatch, mp.p.inputs[0], &res.Notes)
	if err != nil {
		return err
	}
	res.Layer.merge(static)
	return nil
}

// serveRecord is one open-loop request against the session.
type serveRecord struct {
	openRecord
	queued, exec time.Duration
	mismatch     bool
	err          error
}

// servePhase offers sched to sess from one scheduler goroutine and waits for
// every response. With a recorder each Session.Infer is a span under parent.
func servePhase(ctx context.Context, sess *serve.Session, inputs []*tensor.Tensor, ref *reference, sched []arrival, rec *recorder, parent int) []serveRecord {
	recs := make([]serveRecord, len(sched))
	var wg sync.WaitGroup
	clk := wallClock{t0: time.Now()}
	n := runOpenLoop(ctx, clk, sched, func(i int, a arrival, sent time.Duration) {
		r := &recs[i]
		r.due, r.sent = a.due, sent
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := rec.begin(parent, "Session.Infer", int64(i))
			resp, err := sess.Infer(ctx, serve.Request{Inputs: []*tensor.Tensor{inputs[a.input]}})
			r.done = clk.Now()
			rec.end(id)
			if err != nil {
				r.err = err
				return
			}
			r.queued, r.exec = resp.Queued, resp.Exec
			if resp.Degraded {
				r.ok = ref.checkDecomposed(a.input, resp.Outputs[0])
			} else {
				r.ok = ref.checkOptimized(a.input, resp.Outputs[0])
			}
			r.mismatch = !r.ok
		}()
	})
	wg.Wait()
	return recs[:n]
}

// serveOutcome folds one phase's records.
type serveOutcome struct {
	counts     phaseCounts
	mismatched int
	latency    []sample // ok = a correct response arrived
	goodput    []sample // ok = correct and within the latency limit
	lagsMS     []float64
	timings    responseTimings
	firstErr   error
}

func foldServe(recs []serveRecord) serveOutcome {
	o := serveOutcome{}
	open := make([]openRecord, len(recs))
	for i, r := range recs {
		open[i] = r.openRecord
		if r.mismatch {
			o.mismatched++
		}
		if r.err != nil && o.firstErr == nil {
			o.firstErr = r.err
		}
		o.latency = append(o.latency, sample{lat: r.latency(), ok: r.ok})
		o.goodput = append(o.goodput, sample{lat: r.latency(), ok: r.ok && r.latency() <= latencyLimit})
		o.lagsMS = append(o.lagsMS, ms(r.lag()))
		if r.ok {
			o.timings.add(r.done-r.sent, r.queued, r.exec)
		}
	}
	o.counts = countPhase(open, latencyLimit)
	sort.Float64s(o.lagsMS)
	return o
}

func serveE2E(m metricSet, o serveOutcome, window time.Duration) {
	lat := latenciesMS(o.latency)
	m.set("throughput_rps", rate(o.goodput, 1, window.Seconds()), len(lat))
	m.set("latency_p50_ms", percentile(lat, 50), len(lat))
}

func runServeOpen(ctx context.Context, rc runConfig) (*result, error) {
	const name = "serve-open-batched"
	defer useWorkers(1)()
	res := &result{Workload: name, E2E: metricSet{}, Layer: metricSet{}}
	var rec *recorder
	if rc.traceSeconds > 0 {
		rec = newRecorder()
	}
	root := rec.begin(-1, name, 0)

	var g *graphs
	var sess *serve.Session
	closeSession := func() {
		if sess != nil {
			cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			sess.Close(cctx) // drained already; an expired ctx force-cancels
			cancel()
			sess = nil
		}
	}
	defer closeSession()
	var setups []time.Duration
	for range rc.setupReps {
		closeSession()
		t0 := time.Now()
		id := rec.begin(root, "setup", 0)
		var err error
		if g, err = buildGraphs(rec, id, "alexnet", core.FusionOnly()); err != nil {
			return nil, err
		}
		nid := rec.begin(id, "serve.New", 0)
		sess, err = serve.New(g.opt, g.dec, servingConfig())
		rec.end(nid)
		if err != nil {
			return nil, fmt.Errorf("serve.New: %w", err)
		}
		rec.end(id)
		setups = append(setups, time.Since(t0))
	}
	res.E2E.set("setup_s", medianSetup(setups), len(setups))

	inputs := makeInputs(rc.seed, servingInputs, 1)
	ref, err := buildReference(g, inputs)
	if err != nil {
		return nil, err
	}
	probe, err := newModelProbe(g, rc.seed)
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(rc.seed ^ 0x5e47e)
	phase := func(label string, d time.Duration, rec *recorder, parent int) serveOutcome {
		o := foldServe(servePhase(ctx, sess, inputs, ref, poissonSchedule(rng, serveRate, d, len(inputs)), rec, parent))
		res.Phases = append(res.Phases, phaseReport{Name: label, phaseCounts: o.counts})
		if o.counts.Failed > 0 {
			rc.logf("%s: phase %s: %d of %d requests failed (%d output mismatches); first error: %v", name, label, o.counts.Failed, o.counts.Sent, o.mismatched, o.firstErr)
		}
		return o
	}

	rc.logf("%s: set up in %.2fs, warming up %v", name, medianSetup(setups), rc.warmup)
	phase("warm-up", rc.warmup, nil, -1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	untraced := phase("untraced", rc.seconds, nil, -1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.count(untraced.counts.Sent, untraced.counts.Failed, untraced.mismatched)
	res.Timed = untraced.counts.Sent
	serveE2E(res.E2E, untraced, rc.seconds)
	clientTail(res.Layer, latenciesMS(untraced.latency))
	res.Notes = append(res.Notes, tailNote("request latency from the due time", latenciesMS(untraced.latency)))
	if err := probe.e2e(ctx, res); err != nil {
		return nil, err
	}
	if rc.traceSeconds == 0 {
		return res, nil
	}

	// The traced run: harness spans around every Session.Infer, the shipped
	// per-step tracer armed for the optimized graph, and the session's and
	// the process's counters read before and after.
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	s0, pool0 := sess.Stats(), gemm.PoolStatsSnapshot()
	id := rec.begin(root, "measure/traced", 0)
	stepOffset := rec.now()
	tracer := obs.EnableTrace(obs.TraceConfig{Scope: g.opt.Name, Capacity: traceCapacity})
	traced := phase("traced", rc.traceSeconds, rec, id)
	obs.DisableTrace()
	rec.end(id)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s1, pool1 := sess.Stats(), gemm.PoolStatsSnapshot()
	runtime.ReadMemStats(&mem1)
	steps := tracer.Spans()
	res.count(traced.counts.Sent, traced.counts.Failed, traced.mismatched)

	m := res.Layer
	var delta serve.Stats
	addDelta(&delta, s0, s1)
	m.merge(sessionDeltaMetrics(delta))
	m.merge(traced.timings.metrics("serve.overhead_ms_p50", rc.traceSeconds, s1.Workers))
	m.merge(stepShares(steps))
	if hits, misses := pool1.Hits-pool0.Hits, pool1.Misses-pool0.Misses; hits+misses > 0 {
		m.set("gemm.pool_hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses))
	}
	m.set("serve.alloc_bytes_per_req", float64(mem1.TotalAlloc-mem0.TotalAlloc)/float64(max(traced.counts.Sent, 1)), traced.counts.Sent)
	m.set("loadgen.sched_lag_ms_p95", percentile(traced.lagsMS, 95), len(traced.lagsMS))
	m.set("loadgen.achieved_rate", float64(traced.counts.Sent)/rc.traceSeconds.Seconds(), traced.counts.Sent)
	tracedE2E := metricSet{}
	serveE2E(tracedE2E, traced, rc.traceSeconds)
	m.set("obs.trace_overhead_pct", overheadPct(res.E2E["throughput_rps"].V, tracedE2E["throughput_rps"].V), 0)
	sent := max(untraced.counts.Sent+traced.counts.Sent, 1)
	late := untraced.counts.Late + traced.counts.Late
	m.set("client.deadline_miss_share", float64(late)/float64(sent), sent)
	m.set("client.failed_share", float64(untraced.counts.Failed+traced.counts.Failed+late)/float64(sent), sent)

	if err := probe.layers(ctx, rec, root, res, false); err != nil {
		return nil, err
	}
	rec.end(root)
	res.SelfTime = selfByName(rec.snapshot())
	return res, rec.writeChrome(rc.traceFile(name), steps, stepOffset)
}

// responseTimings are the server-reported parts of the latencies of one
// phase's correct responses, in milliseconds.
type responseTimings struct {
	queued, exec []float64
	// overhead is client latency from the send minus queued minus exec: what
	// the caller paid outside the session's own accounting.
	overhead []float64
}

func (t *responseTimings) add(clientLatency, queued, exec time.Duration) {
	t.queued = append(t.queued, ms(queued))
	t.exec = append(t.exec, ms(exec))
	t.overhead = append(t.overhead, ms(clientLatency-queued-exec))
}

// busySeconds is the time the responses' workers spent executing. The
// session stamps every member of a coalesced batch with the same Exec, so the
// distinct values are the runs; summing them counts each run once, where the
// session's own run-seconds counter adds a batch's time once per member.
func (t *responseTimings) busySeconds() (float64, int) {
	distinct := map[float64]bool{}
	sum := 0.0
	for _, e := range t.exec {
		if !distinct[e] {
			distinct[e] = true
			sum += e / 1e3
		}
	}
	return sum, len(distinct)
}

// metrics reports the timings under the serve.* names over a window served by
// the given number of workers; overheadName is the metric the overhead goes
// to.
func (t *responseTimings) metrics(overheadName string, window time.Duration, workers int) metricSet {
	m := metricSet{}
	busy, runs := t.busySeconds()
	m.set("serve.worker_busy_share", busy/(window.Seconds()*float64(workers)), runs)
	q, e, o := sortedCopy(t.queued), sortedCopy(t.exec), sortedCopy(t.overhead)
	m.set("serve.queue_wait_ms_p50", percentile(q, 50), len(q))
	m.set("serve.queue_wait_ms_p95", percentile(q, 95), len(q))
	m.set("serve.exec_ms_p50", percentile(e, 50), len(e))
	m.set("serve.exec_ms_p95", percentile(e, 95), len(e))
	m.set(overheadName, percentile(o, 50), len(o))
	return m
}

// addDelta adds to sum what a session's counters gained between snapshots a
// and b: the counters the serve.* metrics read, and nothing else of Stats.
func addDelta(sum *serve.Stats, a, b serve.Stats) {
	sum.Shed += b.Shed - a.Shed
	sum.Completed += b.Completed - a.Completed
	sum.Retries += b.Retries - a.Retries
	sum.DegradedServed += b.DegradedServed - a.DegradedServed
	sum.BatchedRuns += b.BatchedRuns - a.BatchedRuns
	sum.BatchedRequests += b.BatchedRequests - a.BatchedRequests
	sum.PaddedSlots += b.PaddedSlots - a.PaddedSlots
	sum.BatchBypass += b.BatchBypass - a.BatchBypass
	sum.BatchWaitSecondsTotal += b.BatchWaitSecondsTotal - a.BatchWaitSecondsTotal
	sum.BatchWaitCount += b.BatchWaitCount - a.BatchWaitCount
}

// sessionDeltaMetrics turns a counter difference over a window into the
// counter-derived serve.* metrics.
func sessionDeltaMetrics(d serve.Stats) metricSet {
	m := metricSet{}
	if d.BatchWaitCount > 0 {
		m.set("serve.batch_wait_ms_mean", 1e3*d.BatchWaitSecondsTotal/float64(d.BatchWaitCount), int(d.BatchWaitCount))
	}
	if d.BatchedRuns > 0 {
		m.set("serve.rows_per_run", float64(d.BatchedRequests)/float64(d.BatchedRuns), int(d.BatchedRuns))
	}
	if rows := d.PaddedSlots + d.BatchedRequests; rows > 0 {
		m.set("serve.padding_share", float64(d.PaddedSlots)/float64(rows), int(rows))
	}
	m.set("serve.batch_bypass", float64(d.BatchBypass), 0)
	m.set("serve.shed", float64(d.Shed), 0)
	m.set("serve.retries", float64(d.Retries), 0)
	m.set("serve.degraded_served", float64(d.DegradedServed), 0)
	return m
}
