package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"staub/internal/core"
	"staub/internal/engine"
	"staub/internal/eval"
	"staub/internal/harness"
	"staub/internal/pipeline"
	"staub/internal/server"
	"staub/internal/smt"
	"staub/internal/solver"
	"staub/internal/status"
)

// Sizing. Every request runs with deterministic=true, so each verdict and
// its work are fixed by the input; wall-clock metrics then measure how
// fast the program does that fixed work.
const (
	serverJobs = 2 // staub-serve -jobs: the machine's two cores
	maxClients = 2 // client goroutines and connections, at most nproc
	maxBatch   = 64

	coldTimeoutMS  = 200 // portfolio-cold per-solve budget
	coldCorpus     = 58  // one block of the QF_NIA:LIA:NRA:LRA mix
	coldCorpusSeed = 1
	coldWarm       = 4 // corpus items also sent, renamed, at set-up

	hotPrograms   = 6 // termination programs in the hot working set
	hotCorpusSeed = 1
	hotTimeoutMS  = 200 // budget of the fill solves (and the cache key)

	sessTimeoutMS  = 200 // per-check budget
	sessCorpus     = 6   // conversations per pass
	sessCorpusSeed = 1

	deepTimeoutMS = 1000
	deepCubeVars  = 3
)

// exchange is one timed HTTP call of the measured window.
type exchange struct {
	Kind       string // solve, batch, create, assert, push, pop, check, delete
	Tag        int    // input, query, program, op or row index
	Conv       int    // conversation index (session-incremental)
	Pass       int    // pass over a fixed request list
	Proc       int    // which of the run's server processes answered
	Start, End time.Duration
	Code       int
	ReqID      string
	Body       []byte
	Err        error
}

func (x exchange) ms() float64 { return float64(x.End-x.Start) / float64(time.Millisecond) }

// stream is a run's position in its request sequence, shared by the
// sub-windows of every server process the run measures.
type stream struct {
	mu    sync.Mutex // guards taken
	taken int
}

// window is one server process's part of the run's measurement, shared
// by that process's clients. A time-based workload sends requests for
// share; a pass-based one sends its part of the run's passes over a fixed
// request list, so every run of a commit times exactly the same requests.
type window struct {
	ctx         context.Context // cancelled when the run is interrupted
	start       time.Time
	share       time.Duration // this sub-window's length (time-based)
	passes      int           // passes the whole run sends (pass-based)
	part, parts int           // this sub-window's slice of those passes
	proc        int
	st          *stream
}

func (w *window) open() bool { return w.ctx.Err() == nil && time.Since(w.start) < w.share }

// takePass hands out indexes 0..n-1 cyclically with their pass number,
// continuing the run's stream across sub-windows; this sub-window stops
// at its share of the run's passes × n requests.
func (w *window) takePass(n int) (int, int, bool) {
	s := w.st
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.ctx.Err() != nil || s.taken >= w.passes*n*(w.part+1)/w.parts {
		return 0, 0, false
	}
	s.taken++
	return (s.taken - 1) % n, (s.taken - 1) / n, true
}

// take hands out the run's next sequence index while the window is open.
func (w *window) take() (int64, bool) {
	s := w.st
	s.mu.Lock()
	defer s.mu.Unlock()
	if !w.open() {
		return 0, false
	}
	s.taken++
	return int64(s.taken - 1), true
}

// call sends one request inside the window and times it. In a traced
// window it also records the client-side spans of the call.
func (w *window) call(ctx context.Context, s *serveProc, tr *tracer, kind, method, path string, body []byte) exchange {
	x := exchange{Kind: kind, Proc: w.proc, Start: time.Since(w.start)}
	root := -1
	if tr != nil {
		root = tr.begin("client."+kind, -1, "")
	}
	x.Code, x.ReqID, x.Body, x.Err = s.do(ctx, method, path, body)
	x.End = time.Since(w.start)
	if tr != nil {
		tr.end(root)
		tr.spans[root].ReqID = x.ReqID
	}
	return x
}

// bench is one workload's generated inputs and its driver.
type bench interface {
	// warm runs the untimed requests that belong to set-up.
	warm(ctx context.Context, s *serveProc) error
	// drive is one closed-loop client: it sends its next request only
	// after the previous one completed, until the window closes.
	drive(ctx context.Context, s *serveProc, client int, w *window, tr *tracer) []exchange
	// judge decodes the exchanges, runs the verdict oracle and the
	// in-process replay, and fills the tally.
	judge(ctx context.Context, t *tally, xs []exchange) error
	// replayInputs lists the inputs the traced replay times, in send
	// order, with the request ID that first carried each.
	replayInputs(xs []exchange) []replayInput
}

// workload is one named traffic mix.
type workload struct {
	name    string
	clients int
	// passSeconds is the time one pass over the workload's fixed request
	// list took on the reference machine (2 vCPUs); --seconds becomes
	// round(seconds/passSeconds) passes. Zero: a time-based workload.
	passSeconds float64
	gen         func(seed int64) (bench, error)
	// shape checks the workload is still the workload it claims to be.
	shape func(t *tally, d deltas)
}

var workloads = []workload{
	{name: "portfolio-cold", clients: 1, passSeconds: 9, gen: genCold, shape: shapeCold},
	{name: "hot-cache", clients: 2, gen: genHot, shape: shapeHot},
	{name: "session-incremental", clients: 1, passSeconds: 1, gen: genSession, shape: shapeSession},
	{name: "bounded-deep", clients: 1, passSeconds: 8, gen: genDeep, shape: shapeDeep},
}

// tally accumulates what a window's exchanges showed.
type tally struct {
	requests, failed             int       // HTTP requests attempted / failed
	verdicts, decided, delivered int       // verdicts attempted / sat-or-unsat / error-free
	latencies                    []float64 // ms, per latency-bearing request
	overheads                    []float64 // ms, client latency minus server elapsed_ms
	elapsedMS                    float64   // Σ server elapsed_ms of solve items and checks
	portfolio, fromSTAUB, fromOv int
	hits                         int // responses with cache_hit
	checks, incremental          int
	checkMS, mutateMS            []float64
	rows                         map[string][]float64 // latency per fixed-list request label
	rowStatus                    map[string]string
	cubeRequests                 int
	problems                     []string
}

func (t *tally) fail(format string, args ...any) {
	if len(t.problems) < 50 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// request counts one HTTP exchange; it returns false (and counts the
// failure) unless the exchange succeeded with one of the wanted codes.
func (t *tally) request(x exchange, want ...int) bool {
	t.requests++
	ok := x.Err == nil
	if ok {
		ok = false
		for _, c := range want {
			ok = ok || x.Code == c
		}
	}
	if !ok {
		t.failed++
		if x.Err != nil {
			t.fail("%s request: %v", x.Kind, x.Err)
		} else {
			t.fail("%s request: HTTP %d: %.200s", x.Kind, x.Code, x.Body)
		}
	}
	return ok
}

// solveResponse checks one solve result (a /v1/solve body or a batch
// item) against its input: error entries count as failures, sat models
// must verify against the original constraint, and the verdict may not
// contradict what the generator planted.
func (t *tally) solveResponse(in *input, r server.SolveResponse) bool {
	t.verdicts++
	if r.Error != "" || r.Outcome == "parse-error" || r.Outcome == "queued-past-deadline" {
		t.fail("%s: error entry %q (outcome %s)", in.Name, r.Error, r.Outcome)
		return false
	}
	t.delivered++
	t.elapsedMS += r.ElapsedMS
	if r.CacheHit {
		t.hits++
	}
	t.verdict(in, r.Status, r.Model)
	return true
}

// verdict applies the model check and the planted-answer check.
func (t *tally) verdict(in *input, st string, model map[string]string) {
	switch st {
	case "sat":
		t.decided++
		asg, err := parseModel(in.C, model)
		if err != nil {
			t.fail("%s: sat model: %v", in.Name, err)
		} else if !solver.VerifyModel(in.C, asg) {
			t.fail("%s: sat model %v does not satisfy the constraint", in.Name, model)
		}
		if in.Expect == expectUnsat {
			t.fail("%s: answered sat, but the instance is unsat by construction", in.Name)
		}
	case "unsat":
		t.decided++
		if in.Expect == expectSat {
			t.fail("%s: answered unsat, but a model was planted", in.Name)
		}
	case "unknown":
	default:
		t.fail("%s: unrecognized status %q", in.Name, st)
	}
}

// parseModel turns a wire model back into an assignment over c's
// variables.
func parseModel(c *smt.Constraint, model map[string]string) (eval.Assignment, error) {
	asg := eval.Assignment{}
	for _, v := range c.Vars {
		s, ok := model[v.Name]
		if !ok {
			return nil, fmt.Errorf("no value for %s", v.Name)
		}
		switch v.Sort.Kind {
		case smt.KindInt:
			n, ok := new(big.Int).SetString(s, 10)
			if !ok {
				return nil, fmt.Errorf("%s = %q is not an integer", v.Name, s)
			}
			asg[v.Name] = eval.IntValue(n)
		case smt.KindReal:
			r, ok := new(big.Rat).SetString(s)
			if !ok {
				return nil, fmt.Errorf("%s = %q is not a rational", v.Name, s)
			}
			asg[v.Name] = eval.RatValue(r)
		case smt.KindBool:
			asg[v.Name] = eval.BoolValue(s == "true")
		default:
			return nil, fmt.Errorf("%s has unsupported sort %v", v.Name, v.Sort)
		}
	}
	return asg, nil
}

// solveParams are the knobs of one /v1/solve or /v1/batch request; job
// builds the engine job the server compiles from the same knobs, for the
// in-process replay.
type solveParams struct {
	Mode      string
	TimeoutMS int64
	Width     int
	CubeVars  int
	Over      bool
}

func (p solveParams) solveBody(src string) []byte {
	return mustJSON(server.SolveRequest{Constraint: src, Mode: p.Mode, TimeoutMS: p.TimeoutMS,
		Width: p.Width, CubeVars: p.CubeVars, Over: p.Over, Deterministic: true})
}

func (p solveParams) batchBody(srcs []string) []byte {
	return mustJSON(server.BatchRequest{Constraints: srcs, Mode: p.Mode, TimeoutMS: p.TimeoutMS,
		Width: p.Width, CubeVars: p.CubeVars, Over: p.Over, Deterministic: true})
}

func (p solveParams) job(c *smt.Constraint) engine.Job {
	kind := engine.KindPipeline
	if p.Mode == "portfolio" {
		kind = engine.KindPortfolio
	}
	return engine.Job{Kind: kind, Constraint: c, Config: core.Config{
		Timeout:       time.Duration(p.TimeoutMS) * time.Millisecond,
		Profile:       solver.Prima,
		FixedWidth:    p.Width,
		Deterministic: true,
		CubeVars:      p.CubeVars,
		OverApprox:    p.Over,
	}}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain request structs are marshalled
	}
	return b
}

// jobStatus is the verdict an engine result reports for its job kind.
func jobStatus(j engine.Job, r engine.Result) string {
	if j.Kind == engine.KindPortfolio {
		return r.Portfolio.Status.String()
	}
	return r.Pipeline.Status.String()
}

// replayEngine solves jobs in-process on an engine with the server's
// worker count and a fresh cache, which stays warm for the traced
// replay's cache-hit timing.
func replayEngine(ctx context.Context, jobs []engine.Job) (*engine.Engine, []engine.Result) {
	e := engine.New(serverJobs, engine.NewCache())
	return e, e.Run(ctx, jobs)
}

// --- portfolio-cold and bounded-deep -------------------------------

// passItem is one /v1/solve request of a fixed list.
type passItem struct {
	in    input
	p     solveParams
	label string
}

// passBench sends a fixed list of /v1/solve requests in whole passes
// (window.takePass). Pass k renames every variable with the prefix
// "p<k>_", so each pass misses the cache yet asks for exactly the same
// work.
type passBench struct {
	items []passItem
	warms []passItem // sent once per set-up, renamed with "w_"
	eng   *engine.Engine
}

func passPrefix(pass int) string {
	if pass == 0 {
		return ""
	}
	return fmt.Sprintf("p%d_", pass)
}

// body renders item i's request for the given pass.
func (b *passBench) body(i, pass int) ([]byte, input, error) {
	it := b.items[i]
	in, err := renamed(it.in, passPrefix(pass))
	return it.p.solveBody(in.Src), in, err
}

func (b *passBench) warm(ctx context.Context, s *serveProc) error {
	for _, it := range b.warms {
		in, err := renamed(it.in, "w_")
		if err != nil {
			return err
		}
		if code, _, body, err := s.do(ctx, http.MethodPost, "/v1/solve", it.p.solveBody(in.Src)); err != nil || code != http.StatusOK {
			return fmt.Errorf("warm-up %s: HTTP %d %v %.200s", it.label, code, err, body)
		}
	}
	return nil
}

func (b *passBench) drive(ctx context.Context, s *serveProc, _ int, w *window, tr *tracer) []exchange {
	var xs []exchange
	for {
		i, pass, ok := w.takePass(len(b.items))
		if !ok {
			return xs
		}
		body, _, err := b.body(i, pass)
		if err != nil {
			return append(xs, exchange{Kind: "solve", Tag: i, Pass: pass, Err: err})
		}
		x := w.call(ctx, s, tr, "solve", http.MethodPost, "/v1/solve", body)
		x.Tag, x.Pass = i, pass
		xs = append(xs, x)
	}
}

func (b *passBench) judge(ctx context.Context, t *tally, xs []exchange) error {
	t.rows = map[string][]float64{}
	t.rowStatus = map[string]string{}
	first := make([]*server.SolveResponse, len(b.items))
	for _, x := range xs {
		if !t.request(x, http.StatusOK) {
			continue
		}
		var r server.SolveResponse
		if err := json.Unmarshal(x.Body, &r); err != nil {
			t.fail("solve response: %v", err)
			continue
		}
		it := b.items[x.Tag]
		_, in, err := b.body(x.Tag, x.Pass)
		if err != nil {
			return err
		}
		in.Name = it.label
		t.latencies = append(t.latencies, x.ms())
		t.overheads = append(t.overheads, x.ms()-r.ElapsedMS)
		t.rows[it.label] = append(t.rows[it.label], x.ms())
		if it.p.Mode == "portfolio" {
			t.portfolio++
			if r.FromSTAUB {
				t.fromSTAUB++
			}
			if r.FromOver {
				t.fromOv++
			}
		}
		if it.p.CubeVars > 0 {
			t.cubeRequests++
		}
		if r.CacheHit {
			t.fail("%s (pass %d): answered from the cache; every request must miss", it.label, x.Pass)
		}
		if !t.solveResponse(&in, r) {
			t.failed++
			continue
		}
		t.rowStatus[it.label] = r.Status
		// Deterministic mode: a renamed pass must reproduce the verdict,
		// and a pipeline request its virtual cost too (a portfolio's
		// losing legs stop wherever the winner finds them).
		if f := first[x.Tag]; f == nil {
			first[x.Tag] = &r
		} else if f.Status != r.Status || (it.p.Mode == "pipeline" && f.Cost != r.Cost) {
			t.fail("%s: pass %d answered %s (cost %+v), pass 0 %s (cost %+v)", it.label, x.Pass, r.Status, r.Cost, f.Status, f.Cost)
		}
	}
	jobs := make([]engine.Job, len(b.items))
	for i, it := range b.items {
		jobs[i] = it.p.job(it.in.C)
	}
	var res []engine.Result
	b.eng, res = replayEngine(ctx, jobs)
	for i := range jobs {
		if f := first[i]; f != nil {
			if got := jobStatus(jobs[i], res[i]); got != f.Status {
				t.fail("%s: HTTP verdict %s, in-process replay %s", b.items[i].label, f.Status, got)
			}
		}
	}
	return ctx.Err()
}

// replayInputs lists each item once; cube rows are left out, their work
// shows in the cube.* counters and the sequential row covers the rest.
func (b *passBench) replayInputs(xs []exchange) []replayInput {
	seen := make([]bool, len(b.items))
	var out []replayInput
	for _, x := range xs {
		if x.Err == nil && x.Code == http.StatusOK && x.Tag >= 0 && !seen[x.Tag] && b.items[x.Tag].p.CubeVars == 0 {
			seen[x.Tag] = true
			it := b.items[x.Tag]
			out = append(out, replayInput{in: &it.in, p: it.p, reqID: x.ReqID, eng: b.eng})
		}
	}
	return out
}

// genCold sends the fixed portfolio corpus (coldInputs of
// coldCorpusSeed) in the order the run's seed shuffles.
func genCold(seed int64) (bench, error) {
	corpus, err := coldInputs(coldCorpusSeed, coldCorpus)
	if err != nil {
		return nil, err
	}
	p := solveParams{Mode: "portfolio", TimeoutMS: coldTimeoutMS, Over: true}
	b := &passBench{}
	for _, in := range corpus[:coldWarm] {
		b.warms = append(b.warms, passItem{in: in, p: p, label: in.Name})
	}
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(corpus)) {
		b.items = append(b.items, passItem{in: corpus[i], p: p, label: corpus[i].Name})
	}
	return b, nil
}

func shapeCold(t *tally, d deltas) {
	if t.hits != 0 || d.get("staub_cache_hits_total") != 0 {
		t.fail("shape: portfolio-cold saw %d cache-hit responses (%.0f by /metrics); every request must miss",
			t.hits, d.get("staub_cache_hits_total"))
	}
}

// --- hot-cache --------------------------------------------------------

type hotBench struct {
	seed     int64
	p        solveParams
	hs       hotSet
	single   [][]byte                 // per query
	batches  [][]byte                 // per program
	warmResp [][]server.SolveResponse // per server process, per query
	eng      *engine.Engine
}

func genHot(seed int64) (bench, error) {
	hs, err := hotInputs(hotCorpusSeed)
	if err != nil {
		return nil, err
	}
	b := &hotBench{seed: seed, p: solveParams{Mode: "portfolio", TimeoutMS: hotTimeoutMS}, hs: hs}
	for _, q := range hs.queries {
		b.single = append(b.single, b.p.solveBody(q.Src))
	}
	for _, prog := range hs.programs {
		srcs := make([]string, len(prog))
		for k, q := range prog {
			srcs[k] = hs.queries[q].Src
		}
		b.batches = append(b.batches, b.p.batchBody(srcs))
	}
	return b, nil
}

// warm fills the cache: every program's batch once, recording each
// query's answer for the byte-for-byte comparison of later hits.
func (b *hotBench) warm(ctx context.Context, s *serveProc) error {
	resp := make([]server.SolveResponse, len(b.hs.queries))
	seen := make([]bool, len(b.hs.queries))
	for pi, body := range b.batches {
		code, _, raw, err := s.do(ctx, http.MethodPost, "/v1/batch", body)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("cache fill: HTTP %d %v %.200s", code, err, raw)
		}
		var br server.BatchResponse
		if err := json.Unmarshal(raw, &br); err != nil {
			return fmt.Errorf("cache fill: %w", err)
		}
		for k, q := range b.hs.programs[pi] {
			if e := br.Results[k].Error; e != "" {
				return fmt.Errorf("cache fill: %s: %s", b.hs.queries[q].Name, e)
			}
			if !seen[q] {
				resp[q] = br.Results[k]
				seen[q] = true
			}
		}
	}
	b.warmResp = append(b.warmResp, resp)
	return nil
}

func (b *hotBench) drive(ctx context.Context, s *serveProc, _ int, w *window, tr *tracer) []exchange {
	var xs []exchange
	for {
		i, ok := w.take()
		if !ok {
			return xs
		}
		r := hotRequestAt(b.seed, i, b.hs)
		var x exchange
		if r.program < 0 {
			x = w.call(ctx, s, tr, "solve", http.MethodPost, "/v1/solve", b.single[r.query])
			x.Tag = r.query
		} else {
			x = w.call(ctx, s, tr, "batch", http.MethodPost, "/v1/batch", b.batches[r.program])
			x.Tag = r.program
		}
		xs = append(xs, x)
	}
}

// answer is the part of a response a cache hit must reproduce exactly.
func answer(r server.SolveResponse) string {
	return string(mustJSON(struct {
		Status string            `json:"status"`
		Model  map[string]string `json:"model"`
	}{r.Status, r.Model}))
}

func (b *hotBench) judge(ctx context.Context, t *tally, xs []exchange) error {
	want := make([][]string, len(b.warmResp))
	checked := make([][]bool, len(b.warmResp))
	for p, resp := range b.warmResp {
		checked[p] = make([]bool, len(resp))
		for _, r := range resp {
			want[p] = append(want[p], answer(r))
		}
	}
	// item checks one answer against the warm-up answer of the same
	// server process (portfolio legs race, so two processes may return
	// different models for the same query).
	item := func(p, q int, r server.SolveResponse) bool {
		t.portfolio++
		if r.FromSTAUB {
			t.fromSTAUB++
		}
		if r.FromOver {
			t.fromOv++
		}
		if !r.CacheHit {
			t.fail("%s: timed request missed the cache", b.hs.queries[q].Name)
		}
		got := answer(r)
		if got != want[p][q] {
			t.fail("%s: cache hit %s differs from its warm-up answer %s", b.hs.queries[q].Name, got, want[p][q])
		}
		if checked[p][q] && got == want[p][q] && r.Error == "" {
			// Identical bytes to an answer already verified.
			t.verdicts++
			t.delivered++
			t.elapsedMS += r.ElapsedMS
			t.hits++
			if r.Status != "unknown" {
				t.decided++
			}
			return true
		}
		checked[p][q] = true
		return t.solveResponse(&b.hs.queries[q], r)
	}
	for _, x := range xs {
		if !t.request(x, http.StatusOK) {
			continue
		}
		t.latencies = append(t.latencies, x.ms())
		if x.Kind == "solve" {
			var r server.SolveResponse
			if err := json.Unmarshal(x.Body, &r); err != nil {
				t.fail("solve response: %v", err)
				continue
			}
			t.overheads = append(t.overheads, x.ms()-r.ElapsedMS)
			if !item(x.Proc, x.Tag, r) {
				t.failed++
			}
			continue
		}
		var br server.BatchResponse
		if err := json.Unmarshal(x.Body, &br); err != nil || len(br.Results) != len(b.hs.programs[x.Tag]) {
			t.fail("batch response: %v (%d results)", err, len(br.Results))
			continue
		}
		var slowest float64
		ok := true
		for k, q := range b.hs.programs[x.Tag] {
			ok = item(x.Proc, q, br.Results[k]) && ok
			slowest = max(slowest, br.Results[k].ElapsedMS)
		}
		if !ok {
			t.failed++
		}
		t.overheads = append(t.overheads, x.ms()-slowest)
	}
	// The warm-up answers themselves must match an in-process replay.
	jobs := make([]engine.Job, len(b.hs.queries))
	for q := range jobs {
		jobs[q] = b.p.job(b.hs.queries[q].C)
	}
	var res []engine.Result
	b.eng, res = replayEngine(ctx, jobs)
	for q := range jobs {
		got := jobStatus(jobs[q], res[q])
		for _, resp := range b.warmResp {
			if got != resp[q].Status {
				t.fail("%s: HTTP verdict %s, in-process replay %s", b.hs.queries[q].Name, resp[q].Status, got)
			}
		}
	}
	return ctx.Err()
}

func (b *hotBench) replayInputs(xs []exchange) []replayInput {
	seen := make([]bool, len(b.hs.queries))
	var out []replayInput
	add := func(q int, id string) {
		if !seen[q] {
			seen[q] = true
			out = append(out, replayInput{in: &b.hs.queries[q], p: b.p, reqID: id, eng: b.eng})
		}
	}
	for _, x := range xs {
		if x.Err != nil || x.Code != http.StatusOK {
			continue
		}
		if x.Kind == "solve" {
			add(x.Tag, x.ReqID)
		} else {
			for _, q := range b.hs.programs[x.Tag] {
				add(q, x.ReqID)
			}
		}
	}
	return out
}

func shapeHot(t *tally, d deltas) {
	hits, misses := d.get("staub_cache_hits_total"), d.get("staub_cache_misses_total")
	if hits+misses == 0 || hits/(hits+misses) < 0.99 {
		t.fail("shape: hot-cache hit ratio %.0f/%.0f below 0.99", hits, hits+misses)
	}
	if n := d.get("staub_pass_runs_total", `pass="bounded-solve"`); n != 0 {
		t.fail("shape: hot-cache ran bounded-solve %.0f times in the timed window", n)
	}
}

// --- session-incremental ----------------------------------------------

type sessBench struct {
	convs  []conversation // the fixed corpus; the last one is the warm-up
	order  []int          // the run's seeded order of convs[:len-1]
	create []byte
}

// genSession sends the fixed conversation corpus (of sessCorpusSeed) in
// the order the run's seed shuffles.
func genSession(seed int64) (bench, error) {
	convs, err := conversations(sessCorpusSeed, sessCorpus+1)
	if err != nil {
		return nil, err
	}
	return &sessBench{convs: convs, order: rand.New(rand.NewSource(seed)).Perm(sessCorpus),
		create: mustJSON(server.SessionCreateRequest{TimeoutMS: sessTimeoutMS, Deterministic: true})}, nil
}

// warm runs the extra conversation, which the window never sends,
// through one session.
func (b *sessBench) warm(ctx context.Context, s *serveProc) error {
	w := &window{ctx: ctx, start: time.Now(), share: time.Hour, st: &stream{}}
	for _, x := range b.conversation(ctx, s, len(b.convs)-1, w, nil) {
		if x.Err != nil || x.Code >= 300 {
			return fmt.Errorf("warm-up conversation: %s HTTP %d %v %.200s", x.Kind, x.Code, x.Err, x.Body)
		}
	}
	return nil
}

// conversation runs one whole session lifetime.
func (b *sessBench) conversation(ctx context.Context, s *serveProc, ci int, w *window, tr *tracer) []exchange {
	x := w.call(ctx, s, tr, "create", http.MethodPost, "/v1/session", b.create)
	x.Conv = ci
	xs := []exchange{x}
	var created struct {
		ID string `json:"id"`
	}
	if x.Err != nil || x.Code != http.StatusCreated || json.Unmarshal(x.Body, &created) != nil {
		return xs
	}
	base := "/v1/session/" + created.ID
	for k, op := range b.convs[ci].Ops {
		if ctx.Err() != nil {
			break
		}
		var x exchange
		switch op.Kind {
		case opAssert:
			x = w.call(ctx, s, tr, "assert", http.MethodPost, base+"/assert", []byte(op.Body))
		case opPush:
			x = w.call(ctx, s, tr, "push", http.MethodPost, base+"/push", nil)
		case opPop:
			x = w.call(ctx, s, tr, "pop", http.MethodPost, base+"/pop", nil)
		case opCheck:
			x = w.call(ctx, s, tr, "check", http.MethodPost, base+"/check", nil)
		}
		x.Conv, x.Tag = ci, k
		xs = append(xs, x)
	}
	x = w.call(ctx, s, tr, "delete", http.MethodDelete, base, nil)
	x.Conv = ci
	return append(xs, x)
}

func (b *sessBench) drive(ctx context.Context, s *serveProc, _ int, w *window, tr *tracer) []exchange {
	var xs []exchange
	for {
		i, _, ok := w.takePass(len(b.order))
		if !ok {
			return xs
		}
		xs = append(xs, b.conversation(ctx, s, b.order[i], w, tr)...)
	}
}

func (b *sessBench) judge(ctx context.Context, t *tally, xs []exchange) error {
	// Every pass repeats the same checks; each distinct one is parsed and
	// replayed once and all its answers are compared with that replay.
	type check struct {
		in       input
		statuses []string
	}
	index := map[[2]int]int{}
	var checks []*check
	for _, x := range xs {
		want := []int{http.StatusOK}
		switch x.Kind {
		case "create":
			want = []int{http.StatusCreated}
		case "delete":
			want = []int{http.StatusNoContent}
		}
		if !t.request(x, want...) {
			if x.Kind == "check" {
				t.verdicts++
			}
			continue
		}
		switch x.Kind {
		case "assert", "push", "pop":
			t.mutateMS = append(t.mutateMS, x.ms())
			continue
		case "check":
		default:
			continue
		}
		var r server.SessionCheckResponse
		if err := json.Unmarshal(x.Body, &r); err != nil {
			t.fail("check response: %v", err)
			continue
		}
		key := [2]int{x.Conv, x.Tag}
		i, ok := index[key]
		if !ok {
			op := b.convs[x.Conv].Ops[x.Tag]
			in, err := newInput(fmt.Sprintf("%s/op%d", b.convs[x.Conv].Name, x.Tag), op.Visible, op.Expect)
			if err != nil {
				return err
			}
			i = len(checks)
			index[key] = i
			checks = append(checks, &check{in: in})
		}
		c := checks[i]
		c.statuses = append(c.statuses, r.Status)
		t.latencies = append(t.latencies, x.ms())
		t.checkMS = append(t.checkMS, x.ms())
		t.overheads = append(t.overheads, x.ms()-r.ElapsedMS)
		t.elapsedMS += r.ElapsedMS
		t.checks++
		if r.Incremental {
			t.incremental++
		}
		t.verdicts++
		t.delivered++
		t.verdict(&c.in, r.Status, r.Model)
	}
	// Each check must agree with a fresh replay of its visible prefix
	// through the one-shot path: equal, or the replay capped out at
	// unknown where the session decided.
	fresh := make([]status.Status, len(checks))
	var wg sync.WaitGroup
	var next atomic.Int64
	for g := 0; g < serverJobs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(checks) && ctx.Err() == nil; i = int(next.Add(1) - 1) {
				fresh[i] = freshCheck(ctx, checks[i].in.Src)
			}
		}()
	}
	wg.Wait()
	for i, c := range checks {
		for _, st := range c.statuses {
			if !harness.StatusAgree(parseStatus(st), fresh[i]) {
				t.fail("%s: session check %s, fresh per-prefix replay %s", c.in.Name, st, fresh[i])
			}
		}
	}
	return ctx.Err()
}

func parseStatus(s string) status.Status {
	switch s {
	case "sat":
		return status.Sat
	case "unsat":
		return status.Unsat
	}
	return status.Unknown
}

// sessionConfig is the pipeline configuration a session created with
// sessTimeoutMS and deterministic=true runs its checks under (the
// session defaults: four refinement rounds, width step 2).
func sessionConfig() pipeline.Config {
	return pipeline.Config{
		Timeout:       sessTimeoutMS * time.Millisecond,
		Profile:       solver.Prima,
		RefineRounds:  4,
		WidthStep:     2,
		Deterministic: true,
	}
}

// freshCheck decides one visible prefix from scratch: the stateless
// pipeline, then the unbounded solver when the bounded attempt does not
// verify.
func freshCheck(ctx context.Context, src string) status.Status {
	c, err := smt.ParseScript(src)
	if err != nil {
		return status.Unknown
	}
	cfg := sessionConfig()
	pres := pipeline.Run(ctx, c, cfg, nil)
	if pres.Outcome == pipeline.OutcomeVerified {
		return pres.Status
	}
	return solver.Solve(c, solver.Options{
		Ctx:        ctx,
		Profile:    cfg.Profile,
		WorkBudget: solver.WorkBudgetFor(cfg.Timeout),
		Deadline:   pipeline.BackstopDeadline(cfg.Timeout),
	}).Status
}

func (b *sessBench) replayInputs(xs []exchange) []replayInput {
	var out []replayInput
	p := solveParams{Mode: "pipeline", TimeoutMS: sessTimeoutMS}
	seen := map[[2]int]bool{}
	for _, x := range xs {
		if x.Kind != "check" || x.Err != nil || x.Code != http.StatusOK || seen[[2]int{x.Conv, x.Tag}] {
			continue
		}
		seen[[2]int{x.Conv, x.Tag}] = true
		op := b.convs[x.Conv].Ops[x.Tag]
		in, err := newInput(b.convs[x.Conv].Name, op.Visible, op.Expect)
		if err == nil {
			out = append(out, replayInput{in: &in, p: p, reqID: x.ReqID})
		}
	}
	return out
}

func shapeSession(t *tally, _ deltas) {
	if t.incremental == 0 {
		t.fail("shape: no session check ran incrementally (%d checks)", t.checks)
	}
}

// genDeep sends every refinement-corpus row sequentially and with
// cube_vars=3, in the order the run's seed shuffles.
func genDeep(seed int64) (bench, error) {
	rows, err := deepPass(seed)
	if err != nil {
		return nil, err
	}
	b := &passBench{}
	for _, r := range rows {
		p := solveParams{Mode: "pipeline", TimeoutMS: deepTimeoutMS, Width: r.Width, CubeVars: r.CubeVars}
		b.items = append(b.items, passItem{in: r.In, p: p, label: r.Label()})
		if r.Name == "unsat-square-7" && r.CubeVars == 0 {
			b.warms = []passItem{b.items[len(b.items)-1]}
		}
	}
	return b, nil
}

func shapeDeep(t *tally, d deltas) {
	if n := d.get("staub_pass_runs_total", `pass="cube-solve"`); int(n) < t.cubeRequests {
		t.fail("shape: %d cube requests but only %.0f cube-solve runs", t.cubeRequests, n)
	}
	if n := d.get("staub_cube_fallbacks_total"); n != 0 {
		t.fail("shape: %.0f cube fallbacks to the sequential solve", n)
	}
}
