// Command temcobench is the repository's benchmark: four workloads that
// stress different layers (engine on a chain, engine on a skip-heavy graph,
// the serving session under open-loop load, the real router-and-replicas
// fleet under closed-loop load), five end-to-end metrics per workload, and the
// per-layer numbers that say where a change in them came from. It measures;
// it changes nothing outside its own directory. See ../README.md.
//
//	go run -C bench ./temcobench -seed 1            # every workload, every metric
//	go run -C bench ./temcobench -workload engine-skip-b1 -seed 7 -seconds 15 -trace 0
//	go run -C bench ./temcobench -aa 10 -seconds 15 # run-to-run spread -> SPREAD.json
//	go run -C bench ./temcobench -check-exact       # exact counts repeat bit for bit
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"temco/internal/gemm"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "temcobench:", err)
		os.Exit(1)
	}
}

// warmup is how long every workload runs before its measured window. It is a
// ground rule, not a setting: numbers taken after different warm-ups are not
// comparable. Only -quick, which measures nothing worth keeping, shortens it.
const warmup = 3 * time.Second

// minTimedOps is the ground rule's sample size for the untraced window. The
// slowest workload (engine-skip-b1, 43 ms per optimized and decomposed pair)
// makes ~1400 operations in the default 30 s. The full run refuses to report
// end-to-end timings read off fewer; the driver's and the A/A mode's windows
// are set from outside (BENCHMARK.json's run_seconds has the driver's time
// budget to fit in), so there a short count is a warning on stderr.
const minTimedOps = 1000

// checkTimed holds a result to the run's minimum of timed operations.
func checkTimed(res *result, rc runConfig) error {
	if res.Timed < rc.minTimed {
		return fmt.Errorf("%s: %d timed operations in the untraced window, the ground rule is at least %d: lengthen -seconds", res.Workload, res.Timed, rc.minTimed)
	}
	return nil
}

type options struct {
	workload     string
	seed         uint64
	seconds      int
	traceSeconds int
	trace        string // "", "0" or "1": the driver's switch
	quick        bool
	aa           int
	checkExact   bool
	list         bool
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	var o options
	fs := flag.NewFlagSet("temcobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the workload inputs and arrival schedules")
	fs.IntVar(&o.seconds, "seconds", 30, "length of the untraced measured window, in seconds")
	fs.IntVar(&o.traceSeconds, "trace-seconds", 10, "length of the traced window, in seconds")
	fs.StringVar(&o.trace, "trace", "", "driver mode: 0 = untraced run, print the end-to-end metrics as one JSON line; 1 = traced run, print the per-layer metrics")
	fs.BoolVar(&o.quick, "quick", false, "smoke run: one set-up, 1 s windows")
	fs.IntVar(&o.aa, "aa", 0, "run the untraced suite N (>= 5) times on this commit and write the spread of every end-to-end metric to SPREAD.json")
	fs.BoolVar(&o.checkExact, "check-exact", false, "build and plan every workload twice; fail unless every exact metric repeats bit for bit")
	fs.BoolVar(&o.list, "list", false, "print the declared workloads and metrics and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds < 1 || o.traceSeconds < 1 {
		return errors.New("-seconds and -trace-seconds must be at least 1")
	}
	if o.list {
		printCatalog(stdout)
		return nil
	}
	selected := workloads
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q (see -list)", o.workload)
		}
		selected = []workload{w}
	}

	benchDir, root, err := locate()
	if err != nil {
		return err
	}
	rc := runConfig{
		seed: o.seed, warmup: warmup, setupReps: 3, minTimed: minTimedOps,
		seconds: time.Duration(o.seconds) * time.Second, traceSeconds: time.Duration(o.traceSeconds) * time.Second,
		root: root, outDir: filepath.Join(benchDir, "out"), log: stderr,
	}
	if o.quick {
		rc.warmup, rc.seconds, rc.traceSeconds, rc.setupReps, rc.minTimed = 300*time.Millisecond, time.Second, time.Second, 1, 0
	}
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return err
	}
	// The load generator never uses more processors than the box has; the
	// runtime's default already is that number, so it is only recorded.
	env := readEnv(root)

	switch {
	case o.checkExact:
		return checkExact(ctx, selected, stdout)
	case o.aa > 0:
		if o.aa < 5 {
			return errors.New("-aa needs at least 5 runs for quartiles to mean anything")
		}
		return runAA(ctx, selected, rc, o.aa, env, filepath.Join(benchDir, "SPREAD.json"), stdout)
	case o.trace != "":
		if o.workload == "" {
			return errors.New("-trace needs -workload")
		}
		return runForDriver(ctx, selected[0], rc, o.trace, stdout)
	default:
		return runSuite(ctx, selected, rc, env, stdout)
	}
}

// locate finds the repository root, the directory that holds BENCHMARK.json,
// by walking up from the working directory, so the program works from
// `go run -C bench`, from `go test` and from a built binary alike. The
// benchmark's own directory is bench/ below it.
func locate() (benchDir, root string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Join(dir, "bench"), dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", errors.New("no BENCHMARK.json above the working directory: run from inside the repository (go run -C bench ./temcobench)")
		}
		dir = parent
	}
}

// environment is the header every report carries: numbers from two machines,
// or two settings, are not comparable, and this is what tells them apart.
type environment struct {
	Machine      string `json:"machine"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Callers      int    `json:"callers"` // what the workloads use for "nproc"
	TemcoWorkers string `json:"temco_workers_env"`
	SIMD         bool   `json:"simd"`
	GoVersion    string `json:"go_version"`
	GitSHA       string `json:"git_sha"`
}

func readEnv(root string) environment {
	env := environment{
		Machine: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Callers: callers(),
		TemcoWorkers: os.Getenv("TEMCO_WORKERS"), SIMD: gemm.SIMD(), GoVersion: runtime.Version(), GitSHA: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.Machine = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		env.GitSHA = strings.TrimSpace(string(out))
	}
	return env
}

func (e environment) print(w io.Writer) {
	fmt.Fprintf(w, "machine: %s | nproc %d | GOMAXPROCS %d | callers %d | TEMCO_WORKERS=%q (each workload sets its own) | SIMD %v | %s | git %s\n",
		e.Machine, e.NProc, e.GOMAXPROCS, e.Callers, e.TemcoWorkers, e.SIMD, e.GoVersion, e.GitSHA)
}

func printCatalog(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-20s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics:")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-20s %-10s better=%-6s %s\n", d.Name, d.Unit, d.Better, d.Doc)
	}
	fmt.Fprintln(w, "per-layer metrics (* = exact: repeats bit for bit on one commit):")
	for _, d := range perLayer {
		mark := " "
		if d.Exact {
			mark = "*"
		}
		fmt.Fprintf(w, "  %s %-40s %-8s better=%s\n", mark, d.Name, d.Unit, d.Better)
	}
}

// validate holds a result to the declared metric lists: every end-to-end
// metric present and non-zero, every per-layer metric present (a bypassed
// layer reports 0), nothing undeclared.
func validate(res *result, traced bool) error {
	if extra := res.E2E.undeclared(endToEnd); len(extra) > 0 {
		return fmt.Errorf("%s: undeclared end-to-end metrics %v", res.Workload, extra)
	}
	for _, d := range endToEnd {
		v, ok := res.E2E[d.Name]
		if !ok || v.V == 0 || math.IsNaN(v.V) || math.IsInf(v.V, 0) {
			return fmt.Errorf("%s: end-to-end metric %s missing or not a positive number (%v)", res.Workload, d.Name, v.V)
		}
	}
	if !traced {
		return nil
	}
	if extra := res.Layer.undeclared(perLayer); len(extra) > 0 {
		return fmt.Errorf("%s: undeclared per-layer metrics %v", res.Workload, extra)
	}
	res.Layer.fill(perLayer)
	for name, v := range res.Layer {
		if math.IsNaN(v.V) || math.IsInf(v.V, 0) {
			return fmt.Errorf("%s: per-layer metric %s is %v", res.Workload, name, v.V)
		}
	}
	return nil
}

// driverLine is the one JSON object the driver reads off the last line.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runForDriver is the contract mode: one workload, one run, one JSON line.
// With -trace 0 the whole of -seconds is the untraced window and the set-up
// is repeated for a steady setup_s; with -trace 1 the window is split between
// an untraced baseline (the tracing overhead needs one) and the traced run.
func runForDriver(ctx context.Context, w workload, rc runConfig, trace string, stdout io.Writer) error {
	traced := false
	switch trace {
	case "0":
		rc.traceSeconds = 0
	case "1":
		traced = true
		rc.seconds, rc.traceSeconds, rc.setupReps = rc.seconds/2, rc.seconds-rc.seconds/2, 1
	default:
		return fmt.Errorf("-trace %q: want 0 or 1", trace)
	}
	res, err := w.run(ctx, rc)
	if err != nil {
		return err
	}
	if err := validate(res, traced); err != nil {
		return err
	}
	if err := checkTimed(res, rc); err != nil && !traced {
		rc.logf("warning: %v", err)
	}
	set := res.E2E
	if traced {
		set = res.Layer
	}
	line := driverLine{Correct: res.Mismatched == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: toDriverMetrics(set)}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(out))
	if res.Mismatched > 0 {
		return fmt.Errorf("%s: %d output mismatches", w.Name, res.Mismatched)
	}
	return nil
}

// suiteSummary is the machine-readable end of the full report. Claim is
// always null: this program measures one commit and compares nothing.
type suiteSummary struct {
	Env       environment       `json:"env"`
	Seed      uint64            `json:"seed"`
	Workloads []workloadSummary `json:"workloads"`
	Claim     *string           `json:"claim"`
}

type workloadSummary struct {
	Name      string                  `json:"name"`
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	EndToEnd  map[string]driverMetric `json:"end_to_end"`
	PerLayer  map[string]driverMetric `json:"per_layer"`
	Phases    []phaseReport           `json:"phases,omitempty"`
	Notes     []string                `json:"notes,omitempty"`
	Trace     string                  `json:"trace"`
}

// relTo names path relative to the repository root where it can.
func relTo(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil {
		return rel
	}
	return path
}

func toDriverMetrics(m metricSet) map[string]driverMetric {
	out := make(map[string]driverMetric, len(m))
	for name, v := range m {
		out[name] = driverMetric{Value: v.V, Unit: v.Unit}
	}
	return out
}

// runSuite runs every selected workload, untraced then traced, and prints
// every declared metric by name with its unit and sample count.
func runSuite(ctx context.Context, selected []workload, rc runConfig, env environment, stdout io.Writer) error {
	env.print(stdout)
	fmt.Fprintf(stdout, "seed %d | warm-up %v | untraced %v | traced %v | %d set-ups per workload\n\n", rc.seed, rc.warmup, rc.seconds, rc.traceSeconds, rc.setupReps)
	summary := suiteSummary{Env: env, Seed: rc.seed}
	mismatched := 0
	for _, w := range selected {
		res, err := w.run(ctx, rc)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		if err := validate(res, true); err != nil {
			return err
		}
		if err := checkTimed(res, rc); err != nil {
			return err
		}
		printResult(stdout, res)
		mismatched += res.Mismatched
		summary.Workloads = append(summary.Workloads, workloadSummary{
			Name: res.Workload, Correct: res.Mismatched == 0, Attempted: res.Attempted, Failed: res.Failed,
			EndToEnd: toDriverMetrics(res.E2E), PerLayer: toDriverMetrics(res.Layer),
			Phases: res.Phases, Notes: res.Notes, Trace: relTo(rc.root, rc.traceFile(res.Workload)),
		})
	}
	out, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(out))
	if mismatched > 0 {
		return fmt.Errorf("%d output mismatches", mismatched)
	}
	return nil
}

func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "== %s: %d operations attempted, %d failed, %d output mismatches\n", res.Workload, res.Attempted, res.Failed, res.Mismatched)
	for _, p := range res.Phases {
		fmt.Fprintf(w, "   phase %-9s sent %d, succeeded %d, failed %d, late %d\n", p.Name, p.Sent, p.Succeeded, p.Failed, p.Late)
	}
	printSet := func(defs []metricDef, set metricSet) {
		for _, d := range defs {
			v := set[d.Name]
			n := ""
			if v.N > 0 {
				n = fmt.Sprintf("(n=%d)", v.N)
			}
			fmt.Fprintf(w, "   %-42s %16.6g %-10s %s\n", d.Name, v.V, v.Unit, n)
		}
	}
	fmt.Fprintln(w, " end to end (untraced run):")
	printSet(endToEnd, res.E2E)
	fmt.Fprintln(w, " per layer (traced run):")
	printSet(perLayer, res.Layer)
	if len(res.SelfTime) > 0 {
		fmt.Fprintln(w, " harness spans, self time by name:")
		names := make([]string, 0, len(res.SelfTime))
		for name := range res.SelfTime {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return res.SelfTime[names[i]] > res.SelfTime[names[j]] })
		for _, name := range names {
			fmt.Fprintf(w, "   %-42s %12.3f ms\n", name, ms(res.SelfTime[name]))
		}
	}
	for _, note := range res.Notes {
		fmt.Fprintf(w, "   note: %s\n", note)
	}
	fmt.Fprintln(w)
}

// metricSpread is one end-to-end metric's run-to-run behaviour on one
// workload over the A/A runs.
type metricSpread struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3 − q1) / median
}

// The A/A rule, the same for every end-to-end metric. The bound is
// spreadFactor times the metric's worst spread over the workloads, at least
// the metric's stated floor, at most maxBound, rounded up to a tenth of a
// percent. Three times keeps the spread under a third of the bound, which the
// benchmark contract asks for. A metric whose worst spread exceeds
// demoteSpread is marked for demotion to a per-layer client.* metric and not
// kept with a loose bound; up to there the capped bound is still 2.5 times
// the spread, more than the twice the issue asks for.
const (
	spreadFactor = 3
	demoteSpread = 0.10
	maxBound     = 0.25 // the largest bound BENCHMARK.json may hold
)

// demotedP95 is where the issue's end-to-end latency_p95_ms lives since the
// rule demoted it; the A/A mode keeps showing its spread.
const demotedP95 = "client.latency_p95_ms"

func suggestedBound(worstSpread, floor float64) float64 {
	b := min(maxBound, max(spreadFactor*worstSpread, floor))
	return math.Ceil(b*1000-1e-9) / 1000
}

// runAA runs the untraced suite n times with seeds seed, seed+1, ... and
// writes every end-to-end metric's spread per workload, the bound the A/A
// rule gives it, and whether the rule demotes it.
func runAA(ctx context.Context, selected []workload, rc runConfig, n int, env environment, path string, stdout io.Writer) error {
	rc.traceSeconds = 0
	values := map[string]map[string][]float64{}
	failed := map[string]int{} // operations failed per workload, over all runs
	for i := 0; i < n; i++ {
		for _, w := range selected {
			r := rc
			r.seed = rc.seed + uint64(i)
			res, err := w.run(ctx, r)
			if err != nil {
				return fmt.Errorf("%s (run %d): %w", w.Name, i, err)
			}
			if err := validate(res, false); err != nil {
				return err
			}
			if err := checkTimed(res, r); err != nil {
				rc.logf("warning: %v", err)
			}
			failed[w.Name] += res.Failed
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for name, v := range res.E2E {
				values[w.Name][name] = append(values[w.Name][name], v.V)
			}
			values[w.Name][demotedP95] = append(values[w.Name][demotedP95], res.Layer[demotedP95].V)
		}
	}
	type report struct {
		Env       environment                        `json:"env"`
		Seed      uint64                             `json:"seed"`
		Runs      int                                `json:"runs"`
		Seconds   float64                            `json:"seconds"`
		Workloads map[string]map[string]metricSpread `json:"workloads"`
		Failed    map[string]int                     `json:"failed_operations"`
		Worst     map[string]float64                 `json:"worst_spread"`
		Bounds    map[string]float64                 `json:"suggested_bounds"`
		Demote    []string                           `json:"demote"`
		// Demoted is the spread of the issue's latency_p95_ms, which the rule
		// above took out of the end-to-end list, per workload.
		Demoted map[string]metricSpread `json:"demoted_client.latency_p95_ms"`
	}
	rep := report{Env: env, Seed: rc.seed, Runs: n, Seconds: rc.seconds.Seconds(), Workloads: map[string]map[string]metricSpread{}, Failed: failed, Bounds: map[string]float64{}, Demote: []string{}, Demoted: map[string]metricSpread{}}
	worst := map[string]float64{}
	env.print(stdout)
	fmt.Fprintf(stdout, "A/A: %d runs per workload, seeds %d..%d, %v untraced window\n", n, rc.seed, rc.seed+uint64(n)-1, rc.seconds)
	spreadOf := func(workload, name string) metricSpread {
		v := values[workload][name]
		q1, q3 := quartiles(v)
		s := metricSpread{Values: v, Median: median(v), Q1: q1, Q3: q3, Spread: spread(v)}
		fmt.Fprintf(stdout, "  %-20s %-22s median %14.6g  q1 %14.6g  q3 %14.6g  spread %6.2f%%\n", workload, name, s.Median, s.Q1, s.Q3, 100*s.Spread)
		return s
	}
	for _, w := range selected {
		rep.Workloads[w.Name] = map[string]metricSpread{}
		for _, d := range endToEnd {
			s := spreadOf(w.Name, d.Name)
			rep.Workloads[w.Name][d.Name] = s
			worst[d.Name] = max(worst[d.Name], s.Spread)
		}
		rep.Demoted[w.Name] = spreadOf(w.Name, demotedP95)
	}
	rep.Worst = worst
	for _, d := range endToEnd {
		rep.Bounds[d.Name] = suggestedBound(worst[d.Name], d.Floor)
		verdict := ""
		if worst[d.Name] > demoteSpread {
			rep.Demote = append(rep.Demote, d.Name)
			verdict = "  -> demote"
		}
		fmt.Fprintf(stdout, "  bound %-20s worst spread %6.2f%% -> %.3f%s\n", d.Name, 100*worst[d.Name], rep.Bounds[d.Name], verdict)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	for name, n := range failed {
		if n > 0 {
			return fmt.Errorf("%s: %d operations failed over the A/A runs", name, n)
		}
	}
	return nil
}

// checkExact builds and plans every workload twice and compares every metric
// marked exact bit for bit.
func checkExact(ctx context.Context, selected []workload, stdout io.Writer) error {
	bad := 0
	for _, w := range selected {
		a, err := w.plan(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		b, err := w.plan(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		n := 0
		for _, d := range perLayer {
			if !d.Exact {
				continue
			}
			va, oka := a[d.Name]
			vb, okb := b[d.Name]
			if oka != okb || math.Float64bits(va.V) != math.Float64bits(vb.V) {
				fmt.Fprintf(stdout, "%s: %s differs between two builds: %v vs %v\n", w.Name, d.Name, va.V, vb.V)
				bad++
			}
			n++
		}
		fmt.Fprintf(stdout, "%s: %d exact metrics compared\n", w.Name, n)
	}
	if bad > 0 {
		return fmt.Errorf("%d exact metrics did not repeat", bad)
	}
	return nil
}
