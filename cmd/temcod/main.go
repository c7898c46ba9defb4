// Command temcod serves TeMCO-optimized inference over HTTP with the
// fault-tolerance stack from internal/serve: bounded admission, per-request
// deadlines and priorities, retry with backoff, and a circuit breaker that
// degrades to the unoptimized (decomposed) graph when the optimized graph
// keeps failing. A deterministic fault-injection harness can be armed from
// the command line for soak testing.
//
// Usage:
//
//	temcod -model vgg16 -res 64 -ratio 0.1 -addr :8080
//	temcod -model resnet18 -faults "seed=42,scope=optimized,panic=0.05,budget=0.02"
//	temcod -model alexnet -batch-max 8 -batch-window 2ms
//
// -batch-max N (with N > 1) turns on dynamic request batching: concurrent
// /infer requests coalesce for up to -batch-window into one engine run
// padded to a bucket of the 1/4/8/16/32 ladder (clipped to N), multiplying
// throughput under concurrent load at the cost of up to one window of added
// latency. Without it every request runs alone, through the same worker run
// path. Outputs are bit-identical to solo runs.
//
// Endpoints:
//
//	POST /infer   {"batch":1,"seed":7} or {"data":[...]} — run inference
//	GET  /healthz liveness (200 while the process runs)
//	GET  /readyz  readiness (503 while draining); the ready body carries
//	              queue depth, breaker state, and the degraded flag for the
//	              temcor routing tier
//	POST /drainz  flip the session into draining: admission sheds, queued
//	              and in-flight work completes, /readyz turns into a drain
//	              progress report (queue depth, in-flight); the process
//	              keeps running until SIGTERM
//	POST /quitz   exit the process immediately (only with -quitz armed)
//	GET  /statsz  serving counters + injected-fault counters (JSON)
//	GET  /metrics the same counters in Prometheus text format
//	GET  /debug/pprof/ net/http/pprof profiles
//
// /statsz and /metrics render the same obs.Registry instruments, so the two
// views cannot drift. -trace FILE records per-step execution spans for the
// process lifetime and writes Chrome trace_event JSON (chrome://tracing,
// Perfetto) at shutdown.
//
// SIGINT/SIGTERM triggers graceful shutdown: the listener closes, in-flight
// requests drain (bounded by -draintimeout), then the process exits.
//
// Exit codes follow the guard table: 0 success, 1 internal, 2 invalid
// flags/model, 3 resource limit, 4 overloaded, 5 degraded.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"temco/internal/cluster"
	"temco/internal/core"
	"temco/internal/decompose"
	"temco/internal/engine"
	"temco/internal/faultinject"
	"temco/internal/gemm"
	"temco/internal/guard"
	"temco/internal/ir"
	"temco/internal/models"
	"temco/internal/obs"
	"temco/internal/ops"
	"temco/internal/serve"
	"temco/internal/tensor"
)

func main() {
	var (
		model     = flag.String("model", "vgg16", "model name (see temco -list)")
		res       = flag.Int("res", 64, "input resolution")
		classes   = flag.Int("classes", 100, "classifier output width")
		ratio     = flag.Float64("ratio", 0.1, "decomposition ratio")
		method    = flag.String("method", "tucker", "decomposition method: tucker|cp|tt")
		seed      = flag.Uint64("seed", 42, "weight initialization seed")
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		queueSize = flag.Int("queue", 64, "admission queue capacity")
		workers   = flag.Int("serveworkers", 2, "concurrent executor goroutines")
		deadline  = flag.Duration("deadline", 30*time.Second, "default per-request deadline")
		retries   = flag.Int("retries", 2, "max retries for retryable failures (-1 disables)")
		membudget = flag.Int64("membudget", 0, "per-request peak-memory budget in MB (0 = unlimited)")
		breaker   = flag.Int("breaker", 3, "consecutive failures that trip the circuit breaker")
		probe     = flag.Duration("probe", 1*time.Second, "breaker recovery probe interval")
		drain     = flag.Duration("draintimeout", 30*time.Second, "graceful shutdown drain budget")
		batchMax  = flag.Int("batch-max", 0, "coalesce concurrent /infer requests into batches of up to this many sample rows (0 or 1 = off)")
		batchWin  = flag.Duration("batch-window", 2*time.Millisecond, "how long an open batch accumulates before dispatching partially full")
		faults    = flag.String("faults", "", `fault injection spec, e.g. "seed=42,scope=optimized,panic=0.05,budget=0.02,slow=0.01:5ms,alloc=0.01,blackhole=0.05,httpdelay=0.1:20ms"`)
		traceOut  = flag.String("trace", "", "record per-step spans and write Chrome trace_event JSON to this file at shutdown")
		quitz     = flag.Bool("quitz", false, "expose POST /quitz, which exits the process immediately (soak-test kill hook)")
		flight    = flag.Bool("flight", true, "arm the tail-sampled request flight recorder behind GET /debugz/requests")
		flightN   = flag.Int("flightsample", 16, "flight recorder keeps 1-in-N plain OK requests (errors, sheds, and the slow tail are always kept)")
	)
	flag.Parse()
	if err := run(options{
		model: *model, res: *res, classes: *classes, ratio: *ratio,
		method: *method, seed: *seed, addr: *addr, queueSize: *queueSize,
		workers: *workers, deadline: *deadline, retries: *retries,
		membudgetMB: *membudget, breaker: *breaker, probe: *probe,
		drain: *drain, batchMax: *batchMax,
		batchWindow: *batchWin, faults: *faults,
		traceOut: *traceOut, quitz: *quitz,
		flight: *flight, flightSample: *flightN,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "temcod:", err)
		os.Exit(guard.ExitCode(err))
	}
}

type options struct {
	model        string
	res          int
	classes      int
	ratio        float64
	method       string
	seed         uint64
	addr         string
	queueSize    int
	workers      int
	deadline     time.Duration
	retries      int
	membudgetMB  int64
	breaker      int
	probe        time.Duration
	drain        time.Duration
	batchMax     int
	batchWindow  time.Duration
	faults       string
	traceOut     string
	quitz        bool
	flight       bool
	flightSample int
}

// logx is the daemon's structured logger: JSON lines on stderr, rate
// limited, carrying trace_id/request_id when the context has a trace.
var logx = obs.NewLogger(nil, "temcod")

func run(o options) error {
	kernelWorkers, err := ops.WorkersFromEnv()
	if err != nil {
		return err
	}
	// Process-wide collectors on the default registry: runtime gauges plus
	// the gemm pool and fault-injection counters the serving layer perturbs.
	// The session's own instruments live on its per-session registry; the
	// /metrics handler renders both.
	obs.RegisterProcessMetrics(obs.Default())
	gemm.RegisterMetrics(obs.Default())
	faultinject.RegisterMetrics(obs.Default())
	obs.RegisterCopyMetrics(obs.Default())
	obs.RegisterBuildInfo(obs.Default(), buildInfo(kernelWorkers))
	obs.RegisterFlightMetrics(obs.Default())
	if o.flight {
		obs.EnableFlightRecorder(obs.FlightConfig{SampleRate: o.flightSample})
		defer obs.DisableFlightRecorder()
	}
	if o.traceOut != "" {
		tracer := obs.EnableTrace(obs.TraceConfig{Capacity: 1 << 18})
		defer func() {
			obs.DisableTrace()
			if err := writeTraceFile(tracer, o.traceOut); err != nil {
				fmt.Fprintln(os.Stderr, "temcod: writing trace:", err)
				return
			}
			fmt.Printf("temcod: wrote %d spans (%d dropped) to %s\n",
				len(tracer.Spans()), tracer.Dropped(), o.traceOut)
		}()
	}
	sess, inputShape, err := buildSession(o)
	if err != nil {
		return err
	}
	// Probe the engine's steady-state allocation count once at startup,
	// before any fault injection is armed, so /statsz can report it.
	steadyAllocs := measureSteadyAllocs(sess)
	if o.faults != "" {
		fcfg, err := parseFaults(o.faults)
		if err != nil {
			return err
		}
		faultinject.Enable(fcfg)
		fmt.Printf("temcod: fault injection armed: %s\n", o.faults)
		defer faultinject.Disable()
	}

	srv := &http.Server{Addr: o.addr, Handler: newHandler(sess, inputShape, steadyAllocs, o.quitz)}
	if o.quitz {
		fmt.Println("temcod: /quitz kill hook armed")
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("temcod: serving %s (%dx%d, %s ratio %.2f) on %s\n",
			o.model, o.res, o.res, o.method, o.ratio, o.addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		// The listener died before any shutdown signal: stop the session's
		// background goroutines (workers, batch coalescer) before exiting so
		// the failure path leaks nothing.
		logx.Error("listener failed", "err", err.Error())
		cctx, cancel := context.WithTimeout(context.Background(), o.drain)
		sess.Close(cctx)
		cancel()
		return guard.New(guard.ErrInternal, "temcod.listen", err)
	case <-ctx.Done():
	}
	fmt.Println("temcod: shutting down, draining in-flight requests")
	sdctx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	if err := srv.Shutdown(sdctx); err != nil {
		sess.Close(sdctx)
		return guard.New(guard.ErrCanceled, "temcod.shutdown", err)
	}
	if err := sess.Close(sdctx); err != nil {
		return err
	}
	fmt.Println("temcod: drained cleanly")
	return nil
}

// buildSession compiles the model twice — the decomposed fallback and its
// TeMCO-optimized form — and wraps both in a serve.Session. The graph names
// "optimized" and "fallback" double as fault-injection scopes.
func buildSession(o options) (*serve.Session, []int, error) {
	var m decompose.Method
	switch o.method {
	case "tucker":
		m = decompose.Tucker
	case "cp":
		m = decompose.CPD
	case "tt":
		m = decompose.TensorTrain
	default:
		return nil, nil, guard.Errorf(guard.ErrInvalidModel, "flags", "unknown method %q (want tucker|cp|tt)", o.method)
	}
	if o.res < 1 || o.classes < 1 {
		return nil, nil, guard.Errorf(guard.ErrInvalidModel, "flags", "res and classes must be positive (got %d, %d)", o.res, o.classes)
	}
	if o.ratio <= 0 || o.ratio > 1 {
		return nil, nil, guard.Errorf(guard.ErrInvalidModel, "flags", "ratio %v out of range (0, 1]", o.ratio)
	}
	if o.membudgetMB < 0 {
		return nil, nil, guard.Errorf(guard.ErrInvalidModel, "flags", "membudget must be non-negative")
	}
	if o.batchMax < 0 {
		return nil, nil, guard.Errorf(guard.ErrInvalidModel, "flags", "batch-max must be non-negative")
	}
	opt, fb, err := buildGraphs(o, m)
	if err != nil {
		return nil, nil, err
	}
	sess, err := serve.New(opt, fb, serve.Config{
		QueueSize:        o.queueSize,
		Workers:          o.workers,
		DefaultTimeout:   o.deadline,
		MaxRetries:       o.retries,
		BudgetBytes:      o.membudgetMB * (1 << 20),
		BreakerThreshold: o.breaker,
		ProbeInterval:    o.probe,
		MaxBatchSize:     o.batchMax,
		MaxBatchLatency:  o.batchWindow,
	})
	if err != nil {
		return nil, nil, err
	}
	return sess, opt.Inputs[0].Shape, nil
}

// buildGraphs compiles the decomposed fallback graph and its TeMCO-optimized
// form. Graphs are read-only at execution time, so callers may share them
// across sessions.
func buildGraphs(o options, m decompose.Method) (opt, fb *ir.Graph, err error) {
	g, err := models.Build(o.model, models.Config{H: o.res, W: o.res, Classes: o.classes, Seed: o.seed})
	if err != nil {
		return nil, nil, guard.New(guard.ErrInvalidModel, "build", err)
	}
	core.FoldBatchNorm(g)
	dopts := decompose.DefaultOptions()
	dopts.Ratio = o.ratio
	dopts.Method = m
	fb, _ = decompose.Decompose(g, dopts)
	opt, _ = core.Optimize(fb, core.DefaultConfig())
	opt.Name, fb.Name = "optimized", "fallback"
	return opt, fb, nil
}

// parseFaults parses the -faults spec: comma-separated key=value pairs.
// Keys: seed=<uint>, scope=<name>, panic=<rate>, budget=<rate>,
// alloc=<rate>, slow=<rate>[:<delay>] (delay defaults to 5ms),
// blackhole=<rate>, httpdelay=<rate>[:<delay>] (delay defaults to 5ms).
// The kernel-level faults (panic/budget/alloc/slow) match graph-name
// scopes; the HTTP-level faults (blackhole/httpdelay) fire when the scope
// is empty or "http".
func parseFaults(spec string) (faultinject.Config, error) {
	var cfg faultinject.Config
	bad := func(format string, args ...any) (faultinject.Config, error) {
		return cfg, guard.Errorf(guard.ErrInvalidModel, "flags", "-faults: "+format, args...)
	}
	rate := func(k, v string) (float64, error) {
		r, err := strconv.ParseFloat(v, 64)
		if err != nil || r < 0 || r > 1 {
			return 0, fmt.Errorf("%s=%q: want a rate in [0, 1]", k, v)
		}
		return r, nil
	}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || v == "" {
			return bad("malformed entry %q (want key=value)", part)
		}
		switch k {
		case "seed":
			s, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return bad("seed=%q: want an unsigned integer", v)
			}
			cfg.Seed = s
		case "scope":
			cfg.Scope = v
		case "panic":
			r, err := rate(k, v)
			if err != nil {
				return bad("%v", err)
			}
			cfg.KernelPanicRate = r
		case "budget":
			r, err := rate(k, v)
			if err != nil {
				return bad("%v", err)
			}
			cfg.BudgetRate = r
		case "alloc":
			r, err := rate(k, v)
			if err != nil {
				return bad("%v", err)
			}
			cfg.AllocRate = r
		case "slow":
			rv, delay, hasDelay := strings.Cut(v, ":")
			r, err := rate(k, rv)
			if err != nil {
				return bad("%v", err)
			}
			cfg.SlowRate = r
			cfg.SlowDelay = 5 * time.Millisecond
			if hasDelay {
				d, err := time.ParseDuration(delay)
				if err != nil || d <= 0 {
					return bad("slow=%q: want rate[:positive duration]", v)
				}
				cfg.SlowDelay = d
			}
		case "blackhole":
			r, err := rate(k, v)
			if err != nil {
				return bad("%v", err)
			}
			cfg.HTTPBlackholeRate = r
		case "httpdelay":
			rv, delay, hasDelay := strings.Cut(v, ":")
			r, err := rate(k, rv)
			if err != nil {
				return bad("%v", err)
			}
			cfg.HTTPDelayRate = r
			cfg.HTTPDelay = 5 * time.Millisecond
			if hasDelay {
				d, err := time.ParseDuration(delay)
				if err != nil || d <= 0 {
					return bad("httpdelay=%q: want rate[:positive duration]", v)
				}
				cfg.HTTPDelay = d
			}
		default:
			return bad("unknown key %q", k)
		}
	}
	return cfg, nil
}

// inferRequest is the POST /infer body. Either Data carries a flattened
// input tensor (batch inferred from its length) or Batch/Seed ask the
// server to fill a random input — handy for soak drivers.
type inferRequest struct {
	Data       []float32 `json:"data,omitempty"`
	Batch      int       `json:"batch,omitempty"`
	Seed       uint64    `json:"seed,omitempty"`
	Priority   string    `json:"priority,omitempty"` // low|normal|high
	DeadlineMS int64     `json:"deadline_ms,omitempty"`
}

type inferResponse struct {
	Shape    []int   `json:"shape"`
	Argmax   []int   `json:"argmax"`
	Degraded bool    `json:"degraded"`
	Retries  int     `json:"retries"`
	QueuedMS float64 `json:"queued_ms"`
	ExecMS   float64 `json:"exec_ms"`
}

// engineStatsz is the /statsz engine section: per-graph compiled-engine
// snapshots plus the steady-state allocation probe taken at startup.
type engineStatsz struct {
	Enabled   bool          `json:"enabled"`
	Optimized *engine.Stats `json:"optimized,omitempty"`
	Fallback  *engine.Stats `json:"fallback,omitempty"`
	// SteadyAllocsPerRun is heap allocations per steady-state engine run,
	// measured once at startup (-1 when the optimized graph did not compile
	// and serves through the interpreter). Zero only
	// at TEMCO_WORKERS=1; the parallel kernel fan-out allocates.
	SteadyAllocsPerRun float64 `json:"steady_allocs_per_run"`
}

// batchingStatsz is the /statsz batching section: the coalescer's knobs
// and the bucket ladder, next to the live counters already in the serve
// section (batched_runs, padded_slots, batch_pending, ...).
type batchingStatsz struct {
	Enabled  bool    `json:"enabled"`
	MaxBatch int     `json:"max_batch,omitempty"`
	WindowMS float64 `json:"window_ms,omitempty"`
	// Buckets is the runtime ladder batched runs pad to.
	Buckets []int `json:"buckets"`
}

type statsResponse struct {
	Serve    serve.Stats    `json:"serve"`
	GemmPool gemm.PoolStats `json:"gemm_pool"`
	// Copies is the process-wide data-movement ledger: bytes the executors
	// moved with plain copies vs copies the alias plans eliminated
	// (DESIGN.md §14).
	Copies     obs.CopyStats        `json:"copies"`
	Engine     engineStatsz         `json:"engine"`
	Batching   batchingStatsz       `json:"batching"`
	Faults     faultinject.Counters `json:"faults"`
	Goroutines int                  `json:"goroutines"`
	Build      obs.BuildInfo        `json:"build"`
	// Flight is the flight recorder's admission ledger; nil while recording
	// is disabled (then GET /debugz/requests answers 503 too).
	Flight        *obs.FlightStats `json:"flight,omitempty"`
	UptimeSeconds float64          `json:"uptime_seconds"`
}

// buildInfo assembles the identity published on temco_build_info and
// /statsz: the linked version, toolchain, SIMD state, kernel worker count.
func buildInfo(workers int) obs.BuildInfo {
	return obs.BuildInfo{
		Version:   obs.Version,
		GoVersion: runtime.Version(),
		SIMD:      gemm.SIMD(),
		Workers:   workers,
	}
}

// measureSteadyAllocs probes the optimized engine's per-run allocation
// count; -1 when the session serves through the interpreter.
func measureSteadyAllocs(sess *serve.Session) float64 {
	opt, _ := sess.Engines()
	if opt == nil {
		return -1
	}
	v, err := engine.MeasureSteadyAllocs(opt, 5)
	if err != nil {
		return -1
	}
	return v
}

// exitProcess is swapped out in tests of the /quitz kill hook.
var exitProcess = os.Exit

// newHandler builds the temcod HTTP API over sess. inputShape is the
// per-sample input shape (no batch dimension); steadyAllocs is the
// startup allocation probe surfaced verbatim in /statsz; quitz arms the
// POST /quitz kill hook. All routes pass through the HTTP fault layer
// (faultinject scope "http"): injected latency and connection blackholes
// exercise the cluster tier's probe and retry paths.
func newHandler(sess *serve.Session, inputShape []int, steadyAllocs float64, quitz bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	// /readyz serializes cluster.Health, the exact struct the temcor prober
	// decodes, so the replica's encoder and the router's decoder cannot
	// drift. Queue depth, breaker state, and in-flight feed the router's
	// least-loaded placement; a non-closed breaker marks the replica
	// degraded and the fleet routes around it.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		st := sess.Stats()
		h := cluster.Health{
			Ready:        sess.Ready(),
			Degraded:     sess.Degraded(),
			QueueDepth:   st.QueueDepth,
			QueueCap:     st.QueueCap,
			InFlight:     st.InFlight,
			BatchPending: st.BatchPending,
			BreakerState: st.Breaker,
			// Autoscale signal inputs: the temcor autoscaler differences
			// RunSecondsTotal and BreakerTransitions between probes and
			// compares the p95 queue wait against its target.
			Workers:            st.Workers,
			RunSecondsTotal:    st.RunSecondsTotal,
			QueueWaitP95MS:     float64(sess.QueueWaitQuantile(0.95)) / float64(time.Millisecond),
			BreakerTransitions: st.BreakerTransitions,
		}
		if !h.Ready {
			// Draining: the 503 body doubles as the drain progress report —
			// queue depth and in-flight count down to zero as the session
			// empties.
			h.Reason = "draining"
			writeJSON(w, http.StatusServiceUnavailable, h)
			return
		}
		writeJSON(w, http.StatusOK, h)
	})
	// /drainz flips the session's draining state: admission sheds from this
	// instant (the temcor router retries those requests elsewhere), queued
	// and in-flight work runs to completion on the live workers, and
	// /readyz reports progress until the process is told to exit. Part of
	// the cluster drain protocol — cluster.Table.Drain posts here — but
	// also usable directly for a manual rolling restart.
	mux.HandleFunc("/drainz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		sess.Drain()
		st := sess.Stats()
		writeJSON(w, http.StatusOK, map[string]any{
			"draining":      true,
			"queue_depth":   st.QueueDepth,
			"in_flight":     st.InFlight,
			"batch_pending": st.BatchPending,
		})
	})
	if quitz {
		mux.HandleFunc("/quitz", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				writeError(w, http.StatusMethodNotAllowed, "POST only")
				return
			}
			writeJSON(w, http.StatusOK, map[string]bool{"quitting": true})
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			// Exit off the handler goroutine after the response flushes: the
			// point is an abrupt process death (no drain), not a shutdown.
			go func() {
				time.Sleep(10 * time.Millisecond)
				exitProcess(1)
			}()
		})
	}
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		es := engineStatsz{SteadyAllocsPerRun: steadyAllocs}
		if opt, fb, optOK, fbOK := sess.EngineStats(); optOK || fbOK {
			es.Enabled = true
			if optOK {
				es.Optimized = &opt
			}
			if fbOK {
				es.Fallback = &fb
			}
		}
		bs := batchingStatsz{Buckets: sess.BatchBuckets()}
		var window time.Duration
		if bs.Enabled, bs.MaxBatch, window = sess.BatchConfig(); bs.Enabled {
			bs.WindowMS = float64(window) / float64(time.Millisecond)
		} else {
			bs.MaxBatch = 0
		}
		resp := statsResponse{
			Serve:         sess.Stats(),
			GemmPool:      gemm.PoolStatsSnapshot(),
			Copies:        obs.CopyStatsSnapshot(),
			Engine:        es,
			Batching:      bs,
			Faults:        faultinject.CountersSnapshot(),
			Goroutines:    runtime.NumGoroutine(),
			Build:         buildInfo(ops.Workers),
			UptimeSeconds: obs.Uptime().Seconds(),
		}
		if fr := obs.Flight(); fr != nil {
			fs := fr.Stats()
			resp.Flight = &fs
		}
		writeJSON(w, http.StatusOK, resp)
	})
	// The flight-recorder API: retained request timelines with per-request
	// Chrome trace export (see obs.FlightPath docs).
	mux.Handle(obs.FlightPath, obs.FlightHandler())
	mux.Handle(obs.FlightPath+"/", obs.FlightHandler())
	// /metrics renders the session's registry next to the process-wide
	// default registry (runtime, gemm pool, fault counters) in Prometheus
	// text format — the same instruments /statsz serializes as JSON.
	mux.Handle("/metrics", obs.Handler(sess.Metrics(), obs.Default()))
	// net/http/pprof registers on DefaultServeMux; mirror its routes onto
	// this private mux so profiles ship with the daemon.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/infer", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var req inferRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad JSON body: "+err.Error())
			return
		}
		x, err := buildInput(req, inputShape)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		sreq := serve.Request{Inputs: []*tensor.Tensor{x}}
		switch req.Priority {
		case "", "normal":
			sreq.Priority = serve.PriorityNormal
		case "low":
			sreq.Priority = serve.PriorityLow
		case "high":
			sreq.Priority = serve.PriorityHigh
		default:
			writeError(w, http.StatusBadRequest, fmt.Sprintf("priority %q: want low|normal|high", req.Priority))
			return
		}
		if req.DeadlineMS < 0 {
			writeError(w, http.StatusBadRequest, "deadline_ms must be non-negative")
			return
		}
		sreq.Timeout = time.Duration(req.DeadlineMS) * time.Millisecond
		resp, err := sess.Infer(r.Context(), sreq)
		if err != nil {
			status := statusFor(err)
			if rt := obs.RequestFrom(r.Context()); rt != nil {
				rt.SetError(err.Error())
			}
			logx.ErrorCtx(r.Context(), "infer failed", "status", status, "err", err.Error())
			// Backpressure statuses tell well-behaved clients (and the temcor
			// router) when trying again is worthwhile.
			if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
				w.Header().Set("Retry-After", "1")
			}
			writeError(w, status, err.Error())
			return
		}
		out := resp.Outputs[0]
		writeJSON(w, http.StatusOK, inferResponse{
			Shape:    out.Shape,
			Argmax:   argmaxPerSample(out),
			Degraded: resp.Degraded,
			Retries:  resp.Retries,
			QueuedMS: float64(resp.Queued) / float64(time.Millisecond),
			ExecMS:   float64(resp.Exec) / float64(time.Millisecond),
		})
	})
	// Tracing wraps the fault layer so every response — including injected
	// blackholes' would-be responses and real sheds — carries the request id,
	// and /infer timelines reach the flight recorder even on fault paths.
	return obs.TraceHTTP(withHTTPFaults(mux), "/infer")
}

// withHTTPFaults is the replica-level fault layer: when an injector with
// the "http" scope (or no scope) is armed, requests may be delayed or
// blackholed — the connection closes without any response bytes, exactly
// what a process crash mid-accept looks like to the temcor router.
func withHTTPFaults(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		delay, blackhole := faultinject.HTTPFault(faultinject.HTTPScope)
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
		}
		if blackhole {
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			// No hijack support (HTTP/2): abort the response stream instead.
			panic(http.ErrAbortHandler)
		}
		h.ServeHTTP(w, r)
	})
}

// statusFor maps the guard failure taxonomy onto HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, guard.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, guard.ErrCanceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, guard.ErrDegraded):
		return http.StatusServiceUnavailable
	case errors.Is(err, guard.ErrInvalidModel):
		return http.StatusBadRequest
	case errors.Is(err, guard.ErrBudgetExceeded):
		return http.StatusInsufficientStorage
	default:
		return http.StatusInternalServerError
	}
}

// buildInput materializes the request's input tensor: explicit data (its
// length fixing the batch) or a seeded random fill of `batch` samples.
func buildInput(req inferRequest, shape []int) (*tensor.Tensor, error) {
	elems := 1
	for _, d := range shape {
		elems *= d
	}
	if len(req.Data) > 0 {
		if req.Batch != 0 && req.Batch*elems != len(req.Data) {
			return nil, fmt.Errorf("data length %d does not match batch %d x %v", len(req.Data), req.Batch, shape)
		}
		if len(req.Data)%elems != 0 {
			return nil, fmt.Errorf("data length %d is not a multiple of the sample size %d (%v)", len(req.Data), elems, shape)
		}
		x := tensor.New(append([]int{len(req.Data) / elems}, shape...)...)
		copy(x.Data, req.Data)
		return x, nil
	}
	batch := req.Batch
	if batch == 0 {
		batch = 1
	}
	if batch < 1 || batch > 64 {
		return nil, fmt.Errorf("batch %d out of range [1, 64]", batch)
	}
	x := tensor.New(append([]int{batch}, shape...)...)
	x.FillNormal(tensor.NewRNG(req.Seed+1), 0, 1)
	return x, nil
}

// argmaxPerSample computes the argmax over each leading-dimension sample
// of a [batch, ...] output — the predicted class for classifier heads.
func argmaxPerSample(t *tensor.Tensor) []int {
	batch := t.Dim(0)
	if batch <= 0 || t.Len() == 0 {
		return nil
	}
	per := t.Len() / batch
	out := make([]int, batch)
	for b := 0; b < batch; b++ {
		best, bestV := 0, math.Inf(-1)
		for i := 0; i < per; i++ {
			if v := float64(t.Data[b*per+i]); v > bestV {
				best, bestV = i, v
			}
		}
		out[b] = best
	}
	return out
}

// writeTraceFile dumps the tracer's spans as Chrome trace_event JSON.
func writeTraceFile(tr *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg, "status": status})
}
