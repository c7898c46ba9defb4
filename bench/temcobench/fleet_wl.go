package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"temco/internal/cluster"
	"temco/internal/core"
	"temco/internal/serve"
	"temco/internal/tensor"
)

const (
	fleetReplicas = 2
	// readyTimeout bounds daemon start-up: each temcod decomposes its model
	// (~1 s) before it listens.
	readyTimeout = 60 * time.Second
	stopTimeout  = 10 * time.Second
	// attemptTimeout is temcor's per-attempt proxy timeout. Its default is
	// 30 s; a router in front of a 2 ms inference would not wait that long.
	// It matters here because of a defect the workload found on the seed: a
	// lost wake-up in serve's popUntil can leave a replica's open batch
	// undispatched until the next admission, and with two closed-loop
	// callers steered away from the busy-looking replica none comes. About
	// once per five minutes of load a request would hang for the full 30 s;
	// with this timeout the router retries it on the other replica after a
	// second and cluster.retries records that it happened.
	attemptTimeout = time.Second
)

// daemon is one child process of the fleet workload.
type daemon struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has been waited for
	err  error         // its exit status, valid after done
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon runs bin with args, its output going to logPath. TEMCO_WORKERS
// is pinned to 1: kernel fan-out inside three processes sharing two
// processors would measure the scheduler.
func startDaemon(name, bin, addr, logPath string, args ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(), "TEMCO_WORKERS=1")
	cmd.Stdout, cmd.Stderr = logf, logf
	dieWithParent(cmd)
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, url: "http://" + addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// stop ends the process: SIGTERM and a bounded wait for the drain, then
// SIGKILL. It returns only once the process has been waited for.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM) // an error means it is gone already
	select {
	case <-d.done:
	case <-time.After(stopTimeout):
		d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
}

// waitReady polls url until ready accepts a 200 body, the daemon exits, ctx
// ends or readyTimeout passes. The poll is the only way to watch another
// process's listener come up; the wait ends on the event, not on a delay.
func (d *daemon) waitReady(ctx context.Context, client *http.Client, path string, ready func(body []byte) bool) error {
	ctx, cancel := context.WithTimeout(ctx, readyTimeout)
	defer cancel()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if body, err := httpGet(ctx, client, d.url+path); err == nil && ready(body) {
			return nil
		}
		select {
		case <-d.done:
			return fmt.Errorf("%s exited before it was ready (%v); see %s", d.name, d.err, d.log.Name())
		case <-ctx.Done():
			return fmt.Errorf("%s not ready on %s%s after %v: %w; see %s", d.name, d.url, path, readyTimeout, ctx.Err(), d.log.Name())
		case <-tick.C:
		}
	}
}

func httpGet(ctx context.Context, client *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// fleet is one temcor in front of fleetReplicas temcod processes.
type fleet struct {
	router   *daemon
	replicas []*daemon
}

func (f *fleet) stop() {
	if f.router != nil {
		f.router.stop()
	}
	for _, r := range f.replicas {
		r.stop()
	}
}

// buildDaemons compiles cmd/temcod and cmd/temcor into outDir/bin. It runs
// before any clock starts.
func buildDaemons(ctx context.Context, rc runConfig) (temcod, temcor string, err error) {
	bin := filepath.Join(rc.outDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator), "./cmd/temcod", "./cmd/temcor")
	cmd.Dir = rc.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", "", fmt.Errorf("go build ./cmd/temcod ./cmd/temcor in %s: %w\n%s", rc.root, err, out)
	}
	return filepath.Join(bin, "temcod"), filepath.Join(bin, "temcor"), nil
}

// startFleet spawns the replicas, waits until each answers /readyz, spawns
// the router over them and waits until it routes to all of them. On error
// everything started so far is stopped.
func startFleet(ctx context.Context, rc runConfig, client *http.Client, temcod, temcor string) (_ *fleet, err error) {
	f := &fleet{}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	var urls []string
	for i := 0; i < fleetReplicas; i++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("temcod-%d", i)
		// Every model flag is spelled out so the in-process reference
		// (modelConfig, decompose.DefaultOptions) holds the same weights
		// whatever the daemon's defaults become.
		d, err := startDaemon(name, temcod, addr, filepath.Join(rc.outDir, "fleet-"+name+".log"),
			"-model", "alexnet", "-res", strconv.Itoa(modelConfig.H), "-classes", strconv.Itoa(modelConfig.Classes),
			"-seed", strconv.FormatUint(modelConfig.Seed, 10), "-ratio", "0.1", "-method", "tucker",
			"-serveworkers", "1", "-batch-max", strconv.Itoa(servingBatch), "-batch-window", "2ms")
		if err != nil {
			return nil, err
		}
		f.replicas = append(f.replicas, d)
		urls = append(urls, d.url)
	}
	for _, d := range f.replicas {
		err := d.waitReady(ctx, client, "/readyz", func(body []byte) bool {
			var h cluster.Health
			return json.Unmarshal(body, &h) == nil && h.Ready
		})
		if err != nil {
			return nil, err
		}
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	f.router, err = startDaemon("temcor", temcor, addr, filepath.Join(rc.outDir, "fleet-temcor.log"),
		"-replicas", strings.Join(urls, ","), "-probeinterval", "50ms", "-attempttimeout", attemptTimeout.String())
	if err != nil {
		return nil, err
	}
	err = f.router.waitReady(ctx, client, "/readyz", func(body []byte) bool {
		var st struct {
			Routable int `json:"routable"`
		}
		return json.Unmarshal(body, &st) == nil && st.Routable == fleetReplicas
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// inferBody is the pre-serialised POST /infer body for one input. Floats are
// written with the shortest text that parses back to the same float32, so the
// daemon computes on exactly the bits the reference ran on.
func inferBody(x *tensor.Tensor) []byte {
	buf := []byte(`{"data":[`)
	for i, v := range x.Data {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendFloat(buf, float64(v), 'g', -1, 32)
	}
	return append(buf, "]}"...)
}

// inferReply is the part of temcod's /infer response the harness reads.
type inferReply struct {
	Argmax   []int   `json:"argmax"`
	Degraded bool    `json:"degraded"`
	QueuedMS float64 `json:"queued_ms"`
	ExecMS   float64 `json:"exec_ms"`
}

// argmaxOK is the fleet's output check: the daemons return only the predicted
// class, which must be the class the interpreter predicts on the optimized
// graph (the engine is bit-identical to it), and that class must be a maximum
// of the decomposed reference up to the verify tolerance. A degraded response
// came from the decomposed graph itself and must match it exactly.
func (r *reference) argmaxOK(i int, reply inferReply) bool {
	if len(reply.Argmax) != 1 {
		return false
	}
	got := reply.Argmax[0]
	dec := r.ofDec[i].Data
	if got < 0 || got >= len(dec) {
		return false
	}
	if reply.Degraded {
		return got == argmax(dec)
	}
	return got == argmax(r.ofOpt[i].Data) && float64(dec[got]) >= float64(dec[argmax(dec)])-verifyTolerance
}

// fleetRecord is one closed-loop request.
type fleetRecord struct {
	sample
	mismatch bool
	reply    inferReply
	err      error
}

// fleetPhase keeps callers() keep-alive connections busy for d: each caller
// POSTs its next seeded body to target(caller) as soon as the previous
// response is read, and the phase lasts until the last response is. With a
// recorder each POST is a span under parent.
func fleetPhase(ctx context.Context, client *http.Client, target func(caller int) string, bodies [][]byte, ref *reference, seed uint64, d time.Duration, rec *recorder, parent int, spanName string) ([]fleetRecord, time.Duration) {
	perCaller := make([][]fleetRecord, callers())
	start := time.Now()
	var wg sync.WaitGroup
	for c := range perCaller {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := tensor.NewRNG(seed + uint64(c)*7919 + 1)
			url := target(c) + "/infer"
			for n := 0; time.Since(start) < d && ctx.Err() == nil; n++ {
				k := rng.Intn(len(bodies))
				id := rec.begin(parent, spanName, int64(c)<<32|int64(n))
				t0 := time.Now()
				reply, err := postInfer(ctx, client, url, bodies[k])
				lat := time.Since(t0)
				rec.end(id)
				if ctx.Err() != nil {
					return
				}
				r := fleetRecord{sample: sample{lat: lat}, reply: reply, err: err}
				if err == nil {
					r.ok = ref.argmaxOK(k, reply)
					r.mismatch = !r.ok
				}
				perCaller[c] = append(perCaller[c], r)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []fleetRecord
	for _, recs := range perCaller {
		all = append(all, recs...)
	}
	return all, elapsed
}

func postInfer(ctx context.Context, client *http.Client, url string, body []byte) (inferReply, error) {
	var reply inferReply
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return reply, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply, fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(raw))
	}
	return reply, json.Unmarshal(raw, &reply)
}

// fleetOutcome folds one phase's records.
type fleetOutcome struct {
	samples    []sample
	failed     int
	mismatched int
	timings    responseTimings
	window     time.Duration
	firstErr   error
}

func foldFleet(recs []fleetRecord, window time.Duration) fleetOutcome {
	o := fleetOutcome{window: window}
	for _, r := range recs {
		o.samples = append(o.samples, r.sample)
		if !r.ok {
			o.failed++
		}
		if r.mismatch {
			o.mismatched++
		}
		if r.err != nil && o.firstErr == nil {
			o.firstErr = r.err
		}
		if r.ok {
			o.timings.add(r.lat, time.Duration(r.reply.QueuedMS*float64(time.Millisecond)), time.Duration(r.reply.ExecMS*float64(time.Millisecond)))
		}
	}
	return o
}

func fleetE2E(m metricSet, o fleetOutcome) {
	lat := latenciesMS(o.samples)
	m.set("throughput_rps", rate(o.samples, 1, o.window.Seconds()), len(lat))
	m.set("latency_p50_ms", percentile(lat, 50), len(lat))
}

func runFleetClosed(ctx context.Context, rc runConfig) (*result, error) {
	const name = "fleet-closed-b1"
	// The in-process reference runs its kernels the way the daemons do.
	defer useWorkers(1)()
	res := &result{Workload: name, E2E: metricSet{}, Layer: metricSet{}}
	var rec *recorder
	if rc.traceSeconds > 0 {
		rec = newRecorder()
	}
	root := rec.begin(-1, name, 0)

	temcod, temcor, err := buildDaemons(ctx, rc)
	if err != nil {
		return nil, err
	}
	client := &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 4 * callers(), MaxIdleConnsPerHost: callers(), DisableCompression: true},
	}
	defer client.CloseIdleConnections()

	var f *fleet
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	var setups []time.Duration
	for range rc.setupReps {
		if f != nil {
			f.stop()
			f = nil
		}
		t0 := time.Now()
		id := rec.begin(root, "setup", 0)
		if f, err = startFleet(ctx, rc, client, temcod, temcor); err != nil {
			return nil, err
		}
		rec.end(id)
		setups = append(setups, time.Since(t0))
	}
	res.E2E.set("setup_s", medianSetup(setups), len(setups))

	// The same pipeline temcod runs (core.DefaultConfig), in-process, for the
	// reference outputs and the model-level metrics.
	g, err := buildGraphs(nil, -1, "alexnet", core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	inputs := makeInputs(rc.seed, servingInputs, 1)
	ref, err := buildReference(g, inputs)
	if err != nil {
		return nil, err
	}
	probe, err := newModelProbe(g, rc.seed)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(inputs))
	for i, x := range inputs {
		bodies[i] = inferBody(x)
	}
	viaRouter := func(int) string { return f.router.url }
	direct := func(caller int) string { return f.replicas[caller%len(f.replicas)].url }
	phase := func(label string, target func(int) string, seed uint64, d time.Duration, rec *recorder, parent int) fleetOutcome {
		o := foldFleet(fleetPhase(ctx, client, target, bodies, ref, seed, d, rec, parent, "POST /infer "+label))
		res.Phases = append(res.Phases, phaseReport{Name: label, phaseCounts: phaseCounts{Sent: len(o.samples), Succeeded: len(o.samples) - o.failed, Failed: o.failed}})
		if o.failed > 0 {
			rc.logf("%s: phase %s: %d of %d requests failed (%d output mismatches); first error: %v", name, label, o.failed, len(o.samples), o.mismatched, o.firstErr)
		}
		return o
	}

	rc.logf("%s: fleet up in %.2fs, warming up %v", name, medianSetup(setups), rc.warmup)
	phase("warm-up", viaRouter, rc.seed, rc.warmup, nil, -1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	untraced := phase("untraced", viaRouter, rc.seed+1, rc.seconds, nil, -1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.count(len(untraced.samples), untraced.failed, untraced.mismatched)
	res.Timed = len(untraced.samples)
	fleetE2E(res.E2E, untraced)
	clientTail(res.Layer, latenciesMS(untraced.samples))
	res.Notes = append(res.Notes, tailNote("request latency", latenciesMS(untraced.samples)))
	if err := probe.e2e(ctx, res); err != nil {
		return nil, err
	}
	if rc.traceSeconds == 0 {
		return res, nil
	}

	// The traced run. Two thirds of it repeat the closed loop through the
	// router with every POST a harness span and the daemons' own counters
	// read before and after; the last third sends the same bodies straight
	// to the replicas, which is what the router's cost is measured against.
	before, err := scrapeFleet(ctx, client, f)
	if err != nil {
		return nil, err
	}
	id := rec.begin(root, "measure/traced", 0)
	traced := phase("traced", viaRouter, rc.seed+2, rc.traceSeconds*2/3, rec, id)
	rec.end(id)
	after, err := scrapeFleet(ctx, client, f)
	if err != nil {
		return nil, err
	}
	id = rec.begin(root, "measure/direct", 0)
	straight := phase("direct", direct, rc.seed+3, rc.traceSeconds/3, rec, id)
	rec.end(id)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, o := range []fleetOutcome{traced, straight} {
		res.count(len(o.samples), o.failed, o.mismatched)
	}

	m := res.Layer
	m.merge(sessionDeltaMetrics(after.serveDelta(before)))
	m.merge(traced.timings.metrics("serve.overhead_ms_p50", traced.window, fleetReplicas))
	m.merge(after.clusterMetrics(before))
	routed, straightLat := latenciesMS(traced.samples), latenciesMS(straight.samples)
	m.set("cluster.router_overhead_ms_p50", percentile(routed, 50)-percentile(straightLat, 50), len(straightLat))
	m.set("cluster.router_overhead_ms_p95", percentile(routed, 95)-percentile(straightLat, 95), len(straightLat))
	m.set("temcod.http_overhead_ms_p50", percentile(sortedCopy(straight.timings.overhead), 50), len(straight.timings.overhead))
	tracedE2E := metricSet{}
	fleetE2E(tracedE2E, traced)
	m.set("obs.trace_overhead_pct", overheadPct(res.E2E["throughput_rps"].V, tracedE2E["throughput_rps"].V), 0)
	m.set("client.failed_share", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Attempted)

	if err := probe.layers(ctx, rec, root, res, true); err != nil {
		return nil, err
	}
	rec.end(root)
	res.SelfTime = selfByName(rec.snapshot())
	return res, rec.writeChrome(rc.traceFile(name), nil, 0)
}

// fleetScrape is what the daemons' own endpoints said at one instant.
type fleetScrape struct {
	replicas []serve.Stats       // each temcod's /statsz serve section
	router   cluster.RouterStats // temcor's /statsz router section
	// proxyBuckets is temcor's temco_cluster_proxy_seconds histogram from
	// /metrics: cumulative counts by upper bound in seconds, +Inf last.
	proxyBounds []float64
	proxyCounts []float64
}

func scrapeFleet(ctx context.Context, client *http.Client, f *fleet) (*fleetScrape, error) {
	s := &fleetScrape{}
	for _, d := range f.replicas {
		body, err := httpGet(ctx, client, d.url+"/statsz")
		if err != nil {
			return nil, err
		}
		var st struct {
			Serve serve.Stats `json:"serve"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return nil, fmt.Errorf("%s /statsz: %w", d.name, err)
		}
		s.replicas = append(s.replicas, st.Serve)
	}
	body, err := httpGet(ctx, client, f.router.url+"/statsz")
	if err != nil {
		return nil, err
	}
	var st struct {
		Router cluster.RouterStats `json:"router"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("temcor /statsz: %w", err)
	}
	s.router = st.Router
	body, err = httpGet(ctx, client, f.router.url+"/metrics")
	if err != nil {
		return nil, err
	}
	s.proxyBounds, s.proxyCounts = parseHistogram(body, "temco_cluster_proxy_seconds")
	return s, nil
}

// parseHistogram reads name's _bucket lines from Prometheus text: upper
// bounds (the +Inf bucket as math.Inf) and cumulative counts, in file order.
func parseHistogram(text []byte, name string) (bounds, counts []float64) {
	prefix := name + `_bucket{le="`
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), prefix)
		if !ok {
			continue
		}
		le, rest, ok := strings.Cut(rest, `"}`)
		if !ok {
			continue
		}
		bound := math.Inf(1)
		if le != "+Inf" {
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			bound = b
		}
		// An exemplar may follow the count after " # ".
		field, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
		c, err := strconv.ParseFloat(field, 64)
		if err != nil {
			continue
		}
		bounds, counts = append(bounds, bound), append(counts, c)
	}
	return bounds, counts
}

// histogramQuantile estimates the q-quantile of a cumulative histogram by
// linear interpolation inside the bucket the rank falls in — as coarse as the
// buckets are (temcor's run 2.5 ms to 5 ms around this workload's latency).
func histogramQuantile(bounds, counts []float64, q float64) float64 {
	if len(counts) == 0 || counts[len(counts)-1] == 0 {
		return 0
	}
	rank := q * counts[len(counts)-1]
	prevCount, prevBound := 0.0, 0.0
	for i, c := range counts {
		if c >= rank && c > prevCount {
			if math.IsInf(bounds[i], 1) {
				return prevBound
			}
			return prevBound + (bounds[i]-prevBound)*(rank-prevCount)/(c-prevCount)
		}
		prevCount, prevBound = c, bounds[i]
	}
	return prevBound
}

// serveDelta sums every replica's counter difference since before.
func (s *fleetScrape) serveDelta(before *fleetScrape) serve.Stats {
	var sum serve.Stats
	for i := range s.replicas {
		addDelta(&sum, before.replicas[i], s.replicas[i])
	}
	return sum
}

// clusterMetrics reports the router's counters since before.
func (s *fleetScrape) clusterMetrics(before *fleetScrape) metricSet {
	m := metricSet{}
	m.set("cluster.placements", float64(s.router.Placements-before.router.Placements), 0)
	m.set("cluster.retries", float64(s.router.Retries-before.router.Retries), 0)
	m.set("cluster.hedges", float64(s.router.Hedges-before.router.Hedges), 0)
	m.set("cluster.no_replica", float64(s.router.NoReplica-before.router.NoReplica), 0)
	completed := make([]float64, len(s.replicas))
	for i := range s.replicas {
		completed[i] = float64(s.replicas[i].Completed - before.replicas[i].Completed)
	}
	sort.Float64s(completed)
	if completed[0] > 0 {
		m.set("cluster.placement_imbalance", completed[len(completed)-1]/completed[0], 0)
	}
	if len(s.proxyCounts) == len(before.proxyCounts) {
		delta := make([]float64, len(s.proxyCounts))
		for i := range delta {
			delta[i] = s.proxyCounts[i] - before.proxyCounts[i]
		}
		m.set("cluster.proxy_ms_p50", 1e3*histogramQuantile(s.proxyBounds, delta, 0.5), int(delta[len(delta)-1]))
	}
	return m
}
