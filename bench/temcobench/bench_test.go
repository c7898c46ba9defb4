package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The acceptance rule is written in Python's statistics.quantiles(v, n=4);
// the expected values below were computed with it.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{7, 7}, 7, 7},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestRateCountsOnlyCorrectRowsOverTheWholeWindow(t *testing.T) {
	const msec = time.Millisecond
	s := []sample{{lat: 10 * msec, ok: true}, {lat: 30 * msec, ok: true}, {lat: 60 * msec}}
	// A failed run still took its time: it lowers the rate, it is not left out.
	if got, want := timeSpent(s), 0.1; math.Abs(got-want) > 1e-12 {
		t.Errorf("timeSpent = %v, want %v", got, want)
	}
	if got := rate(s, 8, timeSpent(s)); math.Abs(got-160) > 1e-9 {
		t.Errorf("rate = %v rows/s, want 2 runs x 8 rows / 0.1 s = 160", got)
	}
	if got := rate(s, 1, 0); got != 0 {
		t.Errorf("rate over an empty window = %v", got)
	}
	if got := latenciesMS(s); len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Errorf("latenciesMS = %v, want the two correct runs ascending", got)
	}
}

func TestSuggestedBoundFollowsOneRule(t *testing.T) {
	for _, c := range []struct{ spread, floor, want float64 }{
		{0, 0.001, 0.001},     // an exact metric gets its floor
		{0.01, 0.05, 0.05},    // the floor, when three spreads are below it
		{0.0312, 0.05, 0.094}, // three spreads, rounded up
		{0.07, 0.05, 0.21},
		{0.2, 0.05, maxBound}, // capped; demoteSpread is what rejects this one
	} {
		if got := suggestedBound(c.spread, c.floor); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("suggestedBound(%v, %v) = %v, want %v", c.spread, c.floor, got, c.want)
		}
	}
}

func TestCheckTimedHoldsTheGroundRule(t *testing.T) {
	res := &result{Workload: "w", Timed: minTimedOps - 1}
	if checkTimed(res, runConfig{minTimed: minTimedOps}) == nil {
		t.Error("a window one operation short of the ground rule passed")
	}
	res.Timed = minTimedOps
	if err := checkTimed(res, runConfig{minTimed: minTimedOps}); err != nil {
		t.Errorf("a window of exactly the minimum failed: %v", err)
	}
	if err := checkTimed(&result{Timed: 3}, runConfig{}); err != nil {
		t.Errorf("-quick (no minimum) failed: %v", err)
	}
}

// fakeClock is an open-loop clock a test moves by hand. SleepUntil lands on
// the requested time unless a stall is planted, in which case the generator
// "oversleeps" to the stall's end — what a descheduled process sees.
type fakeClock struct {
	now        time.Duration
	stallAfter time.Duration // a SleepUntil crossing this time ...
	stallUntil time.Duration // ... wakes up here instead
}

func (c *fakeClock) Now() time.Duration { return c.now }

func (c *fakeClock) SleepUntil(_ context.Context, t time.Duration) {
	if t <= c.now {
		return
	}
	if c.stallUntil > 0 && t > c.stallAfter && c.now <= c.stallAfter {
		t = max(t, c.stallUntil)
	}
	c.now = t
}

func TestOpenLoopTimesFromDueTimeAndAccountsLag(t *testing.T) {
	const msec = time.Millisecond
	sched := []arrival{{due: 1 * msec}, {due: 2 * msec}, {due: 3 * msec}, {due: 9 * msec}}
	// The generator stalls while waiting for the second arrival and wakes at
	// 5 ms: arrivals two and three go out late, back to back; the fourth is
	// on time again.
	clk := &fakeClock{stallAfter: 1 * msec, stallUntil: 5 * msec}
	const service = 1 * msec
	recs := make([]openRecord, len(sched))
	n := runOpenLoop(context.Background(), clk, sched, func(i int, a arrival, sent time.Duration) {
		recs[i] = openRecord{due: a.due, sent: sent, done: sent + service, ok: true}
	})
	if n != len(sched) {
		t.Fatalf("issued %d of %d", n, len(sched))
	}
	wantLag := []time.Duration{0, 3 * msec, 2 * msec, 0}
	for i, r := range recs {
		if r.lag() != wantLag[i] {
			t.Errorf("request %d: lag %v, want %v", i, r.lag(), wantLag[i])
		}
		// Latency counts the wait the stall imposed, not just the service.
		if want := wantLag[i] + service; r.latency() != want {
			t.Errorf("request %d: latency %v, want %v (lag + service)", i, r.latency(), want)
		}
	}
	recs[3].ok = false
	got := countPhase(recs, 3*msec)
	if want := (phaseCounts{Sent: 4, Succeeded: 3, Failed: 1, Late: 1}); got != want {
		t.Errorf("countPhase = %+v, want %+v", got, want)
	}
}

func TestOpenLoopStopsWithContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	clk := &fakeClock{}
	sched := []arrival{{due: 1}, {due: 2}, {due: 3}}
	n := runOpenLoop(ctx, clk, sched, func(i int, _ arrival, _ time.Duration) {
		if i == 0 {
			cancel()
		}
	})
	if n != 1 {
		t.Errorf("issued %d requests after cancel, want 1", n)
	}
}

func TestPoissonScheduleIsSeededAndAtRate(t *testing.T) {
	a := poissonSchedule(tensorRNG(7), 800, 10*time.Second, 32)
	b := poissonSchedule(tensorRNG(7), 800, 10*time.Second, 32)
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedules: %d vs %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("arrival %d is due before its predecessor", i)
		}
	}
	if n := len(a); n < 7600 || n > 8400 {
		t.Errorf("%d arrivals in 10 s at 800/s", n)
	}
	if c := poissonSchedule(tensorRNG(8), 800, 10*time.Second, 32); len(c) == len(a) && c[0] == a[0] {
		t.Error("different seeds gave the same schedule")
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "phase", Start: 0, End: 100},
		// Two callers inside the phase overlap from 30 to 50.
		{ID: 1, Parent: 0, Name: "call", Start: 10, End: 50},
		{ID: 2, Parent: 0, Name: "call", Start: 30, End: 70},
		// A child that sticks out of its parent counts only up to the edge.
		{ID: 3, Parent: 0, Name: "call", Start: 90, End: 120},
		// A grandchild takes time from its own parent only.
		{ID: 4, Parent: 1, Name: "kernel", Start: 20, End: 30},
		// A span still open at the end has no self time.
		{ID: 5, Parent: 0, Name: "open", Start: 95, End: -1},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{0: 100 - (60 + 10), 1: 40 - 10, 2: 40, 3: 30, 4: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	if _, ok := self[5]; ok {
		t.Error("an open span got a self time")
	}
	byName := selfByName(spans)
	if byName["call"] != 30+40+30 {
		t.Errorf("self time of all calls = %v, want 100", byName["call"])
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin(-1, "x", 0)) // the untraced run records on nil
	if nilRec.snapshot() != nil {
		t.Error("nil recorder kept spans")
	}
}

func TestStepOverheadMatchesLanesToRuns(t *testing.T) {
	steps := stepSpans(
		stepSpan{lane: 4, kind: "conv2d", dur: 40 * time.Microsecond}, stepSpan{lane: 4, kind: "relu", dur: 10 * time.Microsecond},
		stepSpan{lane: 5, kind: "conv2d", dur: 60 * time.Microsecond}, stepSpan{lane: 5, kind: "relu", dur: 20 * time.Microsecond},
		stepSpan{lane: 6, kind: "conv2d", dur: 50 * time.Microsecond}, // cut short by a full buffer
	)
	runs := []time.Duration{54 * time.Microsecond, 86 * time.Microsecond, 70 * time.Microsecond}
	got, n := stepOverheadUS(steps, runs, 2)
	if n != 2 || math.Abs(got-2.5) > 1e-9 {
		t.Errorf("stepOverheadUS = %v over %d runs, want 2.5 (median of 2 and 3) over 2", got, n)
	}
	shares := stepShares(steps)
	if got := shares["ops.share.conv"].V; math.Abs(got-150.0/180) > 1e-9 {
		t.Errorf("conv share = %v, want 150/180", got)
	}
	if got := shares["ops.share.elementwise"].V; math.Abs(got-30.0/180) > 1e-9 {
		t.Errorf("elementwise share = %v, want 30/180", got)
	}
}

func TestParseHistogramAndQuantile(t *testing.T) {
	text := []byte(`# HELP temco_cluster_proxy_seconds x
# TYPE temco_cluster_proxy_seconds histogram
temco_cluster_proxy_seconds_bucket{le="0.0025"} 0
temco_cluster_proxy_seconds_bucket{le="0.005"} 40 # {trace_id="abc"} 0.004
temco_cluster_proxy_seconds_bucket{le="0.01"} 100
temco_cluster_proxy_seconds_bucket{le="+Inf"} 100
temco_cluster_proxy_seconds_sum 0.6
other_bucket{le="1"} 5
`)
	bounds, counts := parseHistogram(text, "temco_cluster_proxy_seconds")
	if len(bounds) != 4 || !math.IsInf(bounds[3], 1) || counts[1] != 40 || counts[3] != 100 {
		t.Fatalf("parsed bounds %v counts %v", bounds, counts)
	}
	// Rank 50 lies 10/60 into the (5 ms, 10 ms] bucket.
	if got, want := histogramQuantile(bounds, counts, 0.5), 0.005+0.005*10/60; math.Abs(got-want) > 1e-12 {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	if got := histogramQuantile(bounds, []float64{0, 0, 0, 0}, 0.5); got != 0 {
		t.Errorf("p50 of an empty histogram = %v", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestDeclaredNamesAndUnitsAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			check("metric", d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("metric %s: unit %q does not match %v", d.Name, d.Unit, unitRE)
			}
			if d.Better != higher && d.Better != lower {
				t.Errorf("metric %s: better = %q", d.Name, d.Better)
			}
		}
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONAgreesWithProgram(t *testing.T) {
	_, root, err := locate()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	if len(bf.Command) == 0 || len(bf.Command) > 32 {
		t.Errorf("command has %d parts", len(bf.Command))
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bf.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, d := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s", i, got.Name, got.Unit, got.Better, d.Name, d.Unit, d.Better)
		}
		if got.Bound == nil || *got.Bound < d.Floor || *got.Bound > maxBound {
			t.Errorf("end-to-end %s: bound %v outside [its floor %v, %v]", got.Name, got.Bound, d.Floor, maxBound)
		}
		if got.Name == "setup_s" {
			sawSetup = got.Unit == "s" && got.Better == lower
			for _, other := range bf.EndToEnd {
				if other.Bound != nil && got.Bound != nil && *other.Bound > *got.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", other.Name, *other.Bound)
				}
			}
		}
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := bf.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s", i, got.Name, got.Unit, got.Better, d.Name, d.Unit, d.Better)
		}
	}
}

func TestValidateRejectsMissingZeroAndUndeclared(t *testing.T) {
	full := func() *result {
		r := &result{Workload: "w", E2E: metricSet{}, Layer: metricSet{}}
		for _, d := range endToEnd {
			r.E2E.set(d.Name, 1, 0)
		}
		return r
	}
	if err := validate(full(), true); err != nil {
		t.Fatalf("complete result rejected: %v", err)
	}
	r := full()
	if err := validate(r, true); err != nil || len(r.Layer) != len(perLayer) {
		t.Errorf("a bypassed layer's metrics should be filled with 0: %v, %d of %d", err, len(r.Layer), len(perLayer))
	}
	r = full()
	delete(r.E2E, "latency_p50_ms")
	if validate(r, false) == nil {
		t.Error("missing end-to-end metric accepted")
	}
	r = full()
	r.E2E.set("throughput_rps", 0, 0)
	if validate(r, false) == nil {
		t.Error("zero end-to-end metric accepted")
	}
	r = full()
	r.Layer.set("serve.made_up", 1, 0)
	if validate(r, true) == nil {
		t.Error("undeclared per-layer metric accepted")
	}
	if unitOf("serve.made_up") != "?" {
		t.Error("an undeclared metric has a unit")
	}
}

func TestArgmaxCheckToleratesNearTiesOnly(t *testing.T) {
	ref := &reference{
		ofDec: tensors([]float32{0.10, 0.90, 0.88}, []float32{0.5, 0.1, 0.2}),
		ofOpt: tensors([]float32{0.10, 0.89, 0.91}, []float32{0.5, 0.1, 0.2}),
	}
	if !ref.argmaxOK(0, inferReply{Argmax: []int{2}}) {
		t.Error("optimized argmax within tolerance of the decomposed maximum rejected")
	}
	if ref.argmaxOK(0, inferReply{Argmax: []int{1}}) {
		t.Error("a class the optimized graph does not predict accepted")
	}
	if !ref.argmaxOK(0, inferReply{Argmax: []int{1}, Degraded: true}) {
		t.Error("degraded response with the decomposed argmax rejected")
	}
	if ref.argmaxOK(1, inferReply{Argmax: []int{2}}) || ref.argmaxOK(1, inferReply{Argmax: []int{7}}) || ref.argmaxOK(1, inferReply{}) {
		t.Error("wrong, out-of-range or missing argmax accepted")
	}
}

// TestQuickSmoke runs all four workloads for a second each through the same
// entry point the command line uses. It builds the model of every workload
// (vgg11 alone takes ~6 s to decompose) and the two daemons, ~45 s in all, so
// like the repository's soak tests it runs only when asked to:
// TEMCO_BENCH_SMOKE=1 go test ./...
func TestQuickSmoke(t *testing.T) {
	if os.Getenv("TEMCO_BENCH_SMOKE") == "" {
		t.Skip("set TEMCO_BENCH_SMOKE=1: builds four models and two daemons (~45 s)")
	}
	var stdout bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-seed", "5"}, &stdout, io.Discard); err != nil {
		t.Fatalf("temcobench -quick: %v\n%s", err, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	last := lines[len(lines)-1]
	if !strings.HasSuffix(last, `"claim":null}`) {
		t.Errorf("summary does not end with \"claim\": null: ...%s", last[max(0, len(last)-60):])
	}
	var sum suiteSummary
	if err := json.Unmarshal([]byte(last), &sum); err != nil {
		t.Fatalf("summary is not JSON: %v", err)
	}
	if len(sum.Workloads) != len(workloads) {
		t.Fatalf("summary has %d workloads, want %d", len(sum.Workloads), len(workloads))
	}
	for i, w := range sum.Workloads {
		if w.Name != workloads[i].Name || !w.Correct || w.Attempted < 1 || w.Failed != 0 {
			t.Errorf("workload %d: %s correct=%v attempted=%d failed=%d", i, w.Name, w.Correct, w.Attempted, w.Failed)
		}
		for _, d := range endToEnd {
			if m, ok := w.EndToEnd[d.Name]; !ok || m.Unit != d.Unit || m.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %+v (present %v)", w.Name, d.Name, m, ok)
			}
		}
		if len(w.EndToEnd) != len(endToEnd) || len(w.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, want %d and %d", w.Name, len(w.EndToEnd), len(w.PerLayer), len(endToEnd), len(perLayer))
		}
		for _, d := range perLayer {
			if m, ok := w.PerLayer[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: per-layer %s = %+v (present %v)", w.Name, d.Name, m, ok)
			}
		}
		if w.PerLayer["memplan.plan_drift_bytes"].Value != 0 {
			t.Errorf("%s: planned and measured peak differ by %v bytes", w.Name, w.PerLayer["memplan.plan_drift_bytes"].Value)
		}
		_, root, _ := locate()
		if st, err := os.Stat(filepath.Join(root, w.Trace)); err != nil || st.Size() == 0 {
			t.Errorf("%s: no Chrome trace at %s: %v", w.Name, w.Trace, err)
		}
	}
	// The layers a workload bypasses report that they did nothing.
	if v := sum.Workloads[0].PerLayer["cluster.placements"].Value; v != 0 {
		t.Errorf("engine workload saw %v router placements", v)
	}
	if v := sum.Workloads[3].PerLayer["cluster.placements"].Value; v == 0 {
		t.Error("fleet workload saw no router placements")
	}
}
