// Command perfbench is the repository's end-to-end benchmark. It boots a
// freshly built staub-serve, drives one workload over HTTP with at most
// two closed-loop clients, checks every verdict, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of standard output. Run it through run.sh, which builds both
// binaries from the checkout:
//
//	bash perfbench/run.sh --workload hot-cache --seed 1 --seconds 18 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 18
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"staub/internal/pipeline"
)

const (
	setupRepeats = 5                 // set-ups per run; setup_s is their median
	replayBudget = 6 * time.Second   // wall time of the traced layer replay
	stealLimit   = 0.015             // steal share that voids a sub-window
	stealRetries = 2                 // sub-windows a run may measure again
	runLimit     = 170 * time.Second // a run that has not finished by then fails

	// Paths relative to the repository root, where the benchmark runs.
	specPath   = "BENCHMARK.json"        // metric names, units and bounds
	recordPath = "perfbench/record.json" // the first recorded numbers
	traceDir   = ".bench_build/trace"    // traced runs' spans
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	serve    string
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 18, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.serve, "serve", ".bench_build/staub-serve", "staub-serve binary")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rec, err := loadRecord(recordPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var todo []workload
	for _, wl := range workloads {
		if o.workload == wl.name || o.workload == "all" {
			todo = append(todo, wl)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code := 0
	for _, wl := range todo {
		res, err := runWorkload(ctx, o, wl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
			return 1
		}
		if err := report(os.Stdout, o, wl, spec, rec, res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if !res.correct {
			code = 1
		}
	}
	return code
}

// result is one workload run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
	absent            map[string]string // metric → why it reads 0
	notes             []string
	problems          []string
	rows              map[string][]float64
	rowStatus         map[string]string
}

// windowResult is a run's measured time: one sub-window per server
// process, merged.
type windowResult struct {
	xs        []exchange
	spans     []span
	dur       time.Duration
	d         deltas
	cpu       time.Duration
	peaks     []float64 // VmHWM per process, MiB
	steal     int64     // machine CPU ticks stolen by the hypervisor
	discarded int       // sub-windows measured again after heavy steal
	passes    int       // passes over the fixed request list (0: time-based)
}

// deltas sums, over the sub-windows, each /metrics series' change from
// the sub-window's start to its end.
type deltas metricSet

func (d deltas) add(start, end metricSet) {
	for k, v := range end {
		d[k] += v - start[k]
	}
}

func (d deltas) get(name string, labels ...string) float64 {
	return metricSet(d).sum(name, labels...)
}

func runWorkload(parent context.Context, o options, wl workload) (*result, error) {
	ctx, cancel := context.WithTimeout(parent, runLimit)
	defer cancel()
	b, err := wl.gen(o.seed)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	var plain *windowResult
	if o.trace {
		// The untraced reference for the tracing overhead, on fresh
		// inputs of the same seed.
		pb, err := wl.gen(o.seed)
		if err != nil {
			return nil, fmt.Errorf("generating inputs: %w", err)
		}
		if plain, _, err = runSeries(ctx, o, wl, pb, false); err != nil {
			return nil, err
		}
	}
	wr, setups, err := runSeries(ctx, o, wl, b, o.trace)
	if err != nil {
		return nil, err
	}

	t := &tally{}
	over0 := pipeline.OverApproxMetricsSnapshot()
	if err := b.judge(ctx, t, wr.xs); err != nil {
		return nil, fmt.Errorf("verdict oracle: %w", err)
	}
	over := map[string]int64{}
	for k, v := range pipeline.OverApproxMetricsSnapshot() {
		over[k] = v - over0[k]
	}
	wl.shape(t, wr.d)
	if t.requests == 0 || t.delivered == 0 {
		t.fail("no verdict delivered in the window")
	}

	res := &result{
		correct:   len(t.problems) == 0,
		attempted: t.requests,
		failed:    t.failed,
		problems:  t.problems,
		rows:      t.rows,
		rowStatus: t.rowStatus,
	}
	if !o.trace {
		res.metrics, res.notes = endToEnd(setups, wr, t)
		return res, nil
	}
	ls := replayLayers(ctx, b.replayInputs(wr.xs), replayBudget)
	overhead := 1 - okRate(wr)/okRate(plain)
	path := fmt.Sprintf("%s/%s-seed%d.json", traceDir, wl.name, o.seed)
	if err := writeSpans(path, wr.spans, ls.spans); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, "spans written to "+path)
	res.metrics, res.absent = perLayer(t, wr, ls, over, overhead)
	res.notes = append(res.notes, fmt.Sprintf("traced window %d requests, %d client spans; replay %d inputs, %d spans; tracing overhead %.2f%% of untraced throughput",
		t.requests, len(wr.spans), ls.inputs, len(ls.spans), 100*overhead))
	return res, ctx.Err()
}

// runSeries measures one run: setupRepeats times it starts a server
// (timing exec, /healthz and warm-up as set-up), measures that process's
// share of the window and stops it. Spreading the window over fresh
// processes averages out what one process's heap and memory layout do to
// its speed. A sub-window during which the hypervisor stole more than
// stealLimit of the machine's CPU is measured again on a fresh process,
// at most stealRetries times per run.
func runSeries(ctx context.Context, o options, wl workload, b bench, traced bool) (*windowResult, []float64, error) {
	total := time.Duration(o.seconds * float64(time.Second))
	st := &stream{}
	wr := &windowResult{d: deltas{}}
	if wl.passSeconds > 0 {
		wr.passes = max(1, int(math.Round(o.seconds/wl.passSeconds)))
	}
	var setups []float64
	retries := stealRetries
	for k := 0; k < setupRepeats; {
		t0 := time.Now()
		srv, err := startServer(ctx, o.serve)
		if err != nil {
			return nil, nil, err
		}
		sub := &windowResult{d: deltas{}}
		taken := st.taken
		err = b.warm(ctx, srv)
		if err == nil {
			setups = append(setups, time.Since(t0).Seconds())
			w := &window{ctx: ctx, share: total / setupRepeats, passes: wr.passes, part: k, parts: setupRepeats, proc: len(setups) - 1, st: st}
			err = measure(ctx, srv, b, wl, w, traced, sub)
		}
		srv.stop()
		if err != nil {
			return nil, nil, err
		}
		if sub.stealShare() > stealLimit && retries > 0 {
			retries--
			wr.discarded++
			st.taken = taken
			continue
		}
		wr.merge(sub)
		k++
	}
	return wr, setups, nil
}

// stealShare is the share of the machine's CPU time the hypervisor
// stole during the window.
func (wr *windowResult) stealShare() float64 {
	return float64(wr.steal) / float64(clockTicks()) / wr.dur.Seconds() / float64(runtime.NumCPU())
}

func (wr *windowResult) merge(sub *windowResult) {
	wr.xs = append(wr.xs, sub.xs...)
	wr.spans = append(wr.spans, sub.spans...)
	wr.dur += sub.dur
	for k, v := range sub.d {
		wr.d[k] += v
	}
	wr.cpu += sub.cpu
	wr.peaks = append(wr.peaks, sub.peaks...)
	wr.steal += sub.steal
}

// writeSpans writes a traced run's spans when it ends: the client spans
// of the window and the replay's, each list with its own parent indexes.
func writeSpans(path string, client, replay []span) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	out, err := json.Marshal(map[string][]span{"client": client, "replay": replay})
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// okRate is the window's successful HTTP requests per second.
func okRate(wr *windowResult) float64 {
	n := 0
	for _, x := range wr.xs {
		if x.Err == nil && x.Code < 300 {
			n++
		}
	}
	return float64(n) / wr.dur.Seconds()
}

// measure runs one sub-window of the workload against srv and merges
// it into wr.
func measure(ctx context.Context, srv *serveProc, b bench, wl workload, w *window, traced bool, wr *windowResult) error {
	pid := srv.cmd.Process.Pid
	m0, err := srv.scrape(ctx)
	if err != nil {
		return err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	steal0 := stealTicks()
	w.start = time.Now()
	per := make([][]exchange, wl.clients)
	tracers := make([]*tracer, wl.clients)
	var wg sync.WaitGroup
	for c := 0; c < wl.clients; c++ {
		if traced {
			tracers[c] = newTracer(w.start)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			per[c] = b.drive(ctx, srv, c, w, tracers[c])
		}(c)
	}
	wg.Wait()
	dur := time.Since(w.start)
	wr.steal += stealTicks() - steal0
	wr.dur += dur
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	wr.cpu += cpu1 - cpu0
	m1, err := srv.scrape(ctx)
	if err != nil {
		return err
	}
	wr.d.add(m0, m1)
	peak, err := peakRSS(pid)
	if err != nil {
		return err
	}
	wr.peaks = append(wr.peaks, peak)
	for c := range per {
		wr.xs = append(wr.xs, per[c]...)
		if tracers[c] != nil {
			wr.spans = append(wr.spans, tracers[c].spans...)
		}
	}
	return ctx.Err()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes the metrics a user of the service sees.
func endToEnd(setups []float64, wr *windowResult, t *tally) (map[string]float64, []string) {
	p95, q := tailPercentile(t.latencies, 0.95)
	m := map[string]float64{
		"setup_s":          median(setups),
		"solves_per_s":     float64(t.delivered) / wr.dur.Seconds(),
		"latency_p50_ms":   median(t.latencies),
		"latency_p95_ms":   p95,
		"decided_share":    ratio(float64(t.decided), float64(t.verdicts)),
		"ok_share":         1 - ratio(float64(t.failed), float64(t.requests)),
		"cpu_ms_per_solve": ratio(float64(wr.cpu)/float64(time.Millisecond), float64(t.delivered)),
		"peak_rss_mb":      slices.Max(wr.peaks),
	}
	qs := make([]string, 0, 7)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		v, used := tailPercentile(t.latencies, q)
		if q < 0.5 {
			s := append([]float64(nil), t.latencies...)
			sort.Float64s(s)
			v, used = s[int(q*float64(len(s)-1))], q
		}
		qs = append(qs, fmt.Sprintf("p%.3g=%.3g", 100*used, v))
	}
	extent := fmt.Sprintf("%.0fs of requests", wr.dur.Seconds())
	if wr.passes > 0 {
		extent = fmt.Sprintf("%d passes over the fixed request list", wr.passes)
	}
	notes := []string{
		"latency quantiles (ms): " + strings.Join(qs, " "),
		"measured " + extent,
		fmt.Sprintf("window %.2fs: %d requests (%d failed), %d verdicts (%d decided); the hypervisor stole %.1f%% of the machine's CPU time (%d sub-window(s) above %.1f%% measured again)",
			wr.dur.Seconds(), t.requests, t.failed, t.verdicts, t.decided,
			100*wr.stealShare(), wr.discarded, 100*stealLimit),
		fmt.Sprintf("latency over %d samples; latency_p95_ms is p%.1f, the highest rank with %d samples beyond it",
			len(t.latencies), 100*q, minTail),
		fmt.Sprintf("setup_s is the median of %d set-ups: %v; the window is spread over that many server processes", len(setups), roundAll(setups)),
	}
	return m, notes
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}

// passes are the pipeline stages whose /metrics counters are reported.
var passes = []string{"infer-bounds", "translate", "bounded-solve", "cube-solve", "verify-model", "linearize-nia", "infer-apriori-bounds"}

// perLayer computes the traced run's per-layer metrics. A metric with
// nothing to measure on this workload reads 0 and is listed in absent
// with the reason.
func perLayer(t *tally, wr *windowResult, ls *layerStats, over map[string]int64, overhead float64) (map[string]float64, map[string]string) {
	m := map[string]float64{}
	absent := map[string]string{}
	d := wr.d
	self := selfByName(ls.spans, time.Microsecond)
	sum := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}
	set := func(name string, v float64, n int, why string) {
		if n == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			m[name] = 0
			absent[name] = why
			return
		}
		m[name] = v
	}
	p50 := func(name, span, why string) { set(name, median(self[span]), len(self[span]), why) }
	meanMS := func(name, span, why string) { set(name, mean(self[span])/1000, len(self[span]), why) }
	count := func(name, series string, labels ...string) { m[name] = d.get(series, labels...) }

	set("server.overhead_ms_p50", median(t.overheads), len(t.overheads), "no solve or check response")
	lat := d.get("staub_solve_latency_seconds_count")
	set("server.queue_wait_ms_mean", (t.elapsedMS-1000*d.get("staub_solve_latency_seconds_sum"))/lat, int(lat), "no admitted solve in the window")
	count("server.rejected", "staub_rejected_total")

	p50("smt.parse_us_p50", "smt.parse", "nothing replayed")
	set("smt.parse_mb_per_s", float64(ls.parseBytes)/sum(self["smt.parse"]), len(self["smt.parse"]), "nothing replayed")

	p50("engine.key_us_p50", "engine.key", "nothing replayed")
	p50("engine.cache_hit_us_p50", "engine.cache_hit", "nothing replayed")
	hits, misses := d.get("staub_cache_hits_total"), d.get("staub_cache_misses_total")
	set("engine.cache_hit_ratio", hits/(hits+misses), int(hits+misses), "no cache lookup in the window (sessions bypass the cache)")
	m["engine.cache_misses"] = misses

	set("core.staub_win_share", ratio(float64(t.fromSTAUB), float64(t.portfolio)), t.portfolio, "no portfolio request in this workload")
	set("core.over_win_share", ratio(float64(t.fromOv), float64(t.portfolio)), t.portfolio, "no portfolio request in this workload")
	count("core.degraded", "staub_portfolio_degraded_total")

	for _, p := range passes {
		l := fmt.Sprintf("pass=%q", p)
		count("pipeline."+p+".runs", "staub_pass_runs_total", l)
		m["pipeline."+p+".ms"] = 1000 * d.get("staub_pass_seconds_sum", l)
		count("pipeline."+p+".work_units", "staub_pass_work_units_total", l)
	}

	p50("absint.infer_us_p50", "absint.infer", "nothing replayed")
	p50("translate.us_p50", "translate", "nothing replayed")
	set("translate.width_mean", mean(ls.widths), len(ls.widths), "no integer input replayed")

	meanMS("bitblast.encode_ms", "bitblast.encode", "no integer input replayed")
	set("bitblast.cnf_vars_mean", mean(ls.cnfVars), len(ls.cnfVars), "no integer input replayed")
	set("bitblast.cnf_clauses_mean", mean(ls.cnfClauses), len(ls.cnfClauses), "no integer input replayed")

	meanMS("sat.search_ms", "sat.solve", "no integer input replayed")
	set("sat.props_per_s", float64(ls.propagations)/(sum(self["sat.solve"])/1e6), len(self["sat.solve"]), "no integer input replayed")
	for _, c := range []string{"conflicts", "propagations", "decisions", "restarts", "learned", "db_reductions", "clauses_deleted"} {
		count("sat."+c, "staub_sat_"+c+"_total")
	}
	for _, c := range []string{"solves", "legs", "fallbacks", "shared_clauses", "imported_clauses", "probe_decides"} {
		count("cube."+c, "staub_cube_"+c+"_total")
	}
	for _, c := range []string{"runs", "sound_unsat", "reverts", "linear_fallback", "width_certified"} {
		m["overapprox."+c] = float64(over[c])
	}

	meanMS("solver.unbounded_ms", "solver.solve", "nothing replayed")
	set("solver.unbounded_decided_share", ratio(float64(ls.unboundedDecide), float64(ls.unbounded)), ls.unbounded, "nothing replayed")
	meanMS("fpsolver.ms", "fpsolver.solve", "no real-arithmetic input in this workload")
	p50("eval.verify_us_p50", "eval.verify", "the unbounded replay found no model to verify")

	for _, c := range []string{"rounds", "vars_reused", "clauses_retained"} {
		count("refine."+c, "staub_refine_"+c+"_total")
	}
	gh, gm := d.get("staub_refine_gate_hits_total"), d.get("staub_refine_gate_misses_total")
	set("refine.gate_hit_ratio", gh/(gh+gm), int(gh+gm), "no incremental refinement in the window")

	set("session.check_ms_p50", median(t.checkMS), len(t.checkMS), "no session in this workload")
	set("session.mutate_ms_p50", median(t.mutateMS), len(t.mutateMS), "no session in this workload")
	set("session.incremental_share", ratio(float64(t.incremental), float64(t.checks)), t.checks, "no session in this workload")
	for _, c := range []string{"memo_hits", "model_reuses", "rebuilds", "fallbacks"} {
		count("session."+c, "staub_session_"+c+"_total")
	}
	count("session.check_work_units", "staub_session_check_work_units_total")

	m["trace.overhead_share"] = overhead
	if over["runs"] == 0 {
		for _, c := range []string{"runs", "sound_unsat", "reverts", "linear_fallback", "width_certified"} {
			absent["overapprox."+c] = "the over leg is not requested by this workload (and staub-serve does not export staub_overapprox_*)"
		}
	}
	return m, absent
}

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// record is the first recorded set of numbers, per workload.
type record struct {
	Note      string                        `json:"note"`
	Workloads map[string]map[string]float64 `json:"workloads"`
}

func loadRecord(path string) (*record, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return &record{}, nil
	}
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// report prints the human-readable table, then the result line.
func report(w *os.File, o options, wl workload, sp *spec, rec *record, res *result) error {
	metrics := sp.EndToEnd
	kind := "end-to-end"
	if o.trace {
		metrics, kind = sp.PerLayer, "per-layer"
	}
	declared := map[string]bool{}
	for _, m := range metrics {
		declared[m.Name] = true
		if _, ok := res.metrics[m.Name]; !ok {
			return fmt.Errorf("%s: BENCHMARK.json declares %s metric %s, which the run does not produce", wl.name, kind, m.Name)
		}
	}
	for name := range res.metrics {
		if !declared[name] {
			return fmt.Errorf("%s: the run produces %s metric %s, which BENCHMARK.json does not declare", wl.name, kind, name)
		}
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%t (%d clients, staub-serve -jobs %d)\n",
		wl.name, o.seed, o.seconds, o.trace, wl.clients, serverJobs)
	for _, n := range res.notes {
		fmt.Fprintln(w, "  "+n)
	}
	recd := rec.Workloads[wl.name]
	fmt.Fprintf(w, "  %-36s %14s %-6s %14s %9s\n", "metric", "value", "unit", "record", "change")
	for _, m := range metrics {
		v := res.metrics[m.Name]
		line := fmt.Sprintf("  %-36s %14.6g %-6s", m.Name, v, m.Unit)
		if r, ok := recd[m.Name]; ok && r != 0 {
			change := (v - r) / math.Abs(r)
			line += fmt.Sprintf(" %14.6g %+8.1f%%", r, 100*change)
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			if m.Bound != nil && worse > *m.Bound {
				line += fmt.Sprintf("  BEYOND BOUND %.0f%%", 100**m.Bound)
			}
		} else {
			line += fmt.Sprintf(" %14s", "-")
		}
		if why, ok := res.absent[m.Name]; ok {
			line += "  (absent: " + why + ")"
		}
		fmt.Fprintln(w, line)
	}
	if len(res.rows) > 0 {
		fmt.Fprintln(w, "  rows (instance/width/mode: verdict, median latency over passes):")
		labels := make([]string, 0, len(res.rows))
		for l := range res.rows {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			fmt.Fprintf(w, "    %-32s %-8s %10.2f ms  n=%d\n", l, res.rowStatus[l], median(res.rows[l]), len(res.rows[l]))
		}
	}
	for _, p := range res.problems {
		fmt.Fprintln(w, "  FAIL "+p)
	}
	if !res.correct {
		fmt.Fprintf(w, "  %s: verdict oracle or workload-shape check FAILED (%s)\n", wl.name, strings.Join(res.problems[:min(1, len(res.problems))], ""))
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]value{}}
	for _, m := range metrics {
		out.Metrics[m.Name] = value{res.metrics[m.Name], m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
