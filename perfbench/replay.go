package main

import (
	"context"
	"time"

	"staub/internal/absint"
	"staub/internal/bitblast"
	"staub/internal/engine"
	"staub/internal/fpsolver"
	"staub/internal/pipeline"
	"staub/internal/sat"
	"staub/internal/smt"
	"staub/internal/solver"
	"staub/internal/status"
	"staub/internal/translate"
)

// fpWorkCost is the work units the solver charges per fpsolver node.
const fpWorkCost = 40

// replayInput is one input the traced replay runs through the layers'
// public functions, with the request ID of the HTTP call that carried it.
type replayInput struct {
	in    *input
	p     solveParams
	reqID string
	// eng already holds the input's answer in its cache (the oracle's
	// replay engine); nil means the replay solves it once first.
	eng *engine.Engine
}

// layerStats is what the traced replay measured besides its spans.
type layerStats struct {
	spans           []span
	inputs          int
	parseBytes      int64
	widths          []float64
	cnfVars         []float64
	cnfClauses      []float64
	propagations    int64
	unbounded       int
	unboundedDecide int
}

// replayLayers re-runs inputs in-process, one at a time, recording a
// span around each call into a layer's public API: the same steps the
// server's pipeline takes, called from outside. It stops after budget.
func replayLayers(ctx context.Context, inputs []replayInput, budget time.Duration) *layerStats {
	ls := &layerStats{}
	tr := newTracer(time.Now())
	stop := time.Now().Add(budget)
	for _, ri := range inputs {
		if time.Now().After(stop) || ctx.Err() != nil {
			break
		}
		ls.inputs++
		replayOne(ctx, tr, ls, ri)
	}
	ls.spans = tr.spans
	return ls
}

func replayOne(ctx context.Context, tr *tracer, ls *layerStats, ri replayInput) {
	id := ri.reqID
	root := tr.begin("replay", -1, id)
	defer tr.end(root)
	timed := func(name string, parent int, f func()) {
		sp := tr.begin(name, parent, id)
		f()
		tr.end(sp)
	}

	var c *smt.Constraint
	var err error
	timed("smt.parse", root, func() { c, err = smt.ParseScript(ri.in.Src) })
	if err != nil {
		return
	}
	ls.parseBytes += int64(len(ri.in.Src))
	job := ri.p.job(c)
	timed("engine.key", root, func() { _ = job.Key() })

	e := ri.eng
	if e == nil {
		e = engine.New(1, engine.NewCache())
		timed("engine.solve", root, func() { e.Solve(ctx, job) })
	}
	timed("engine.cache_hit", root, func() { e.Solve(ctx, job) })

	timeout := job.Config.Timeout
	budget := solver.WorkBudgetFor(timeout)
	kind, err := translate.Classify(c)
	if err != nil {
		return
	}
	if kind == translate.KindIntToBV {
		width := ri.p.Width
		timed("absint.infer", root, func() {
			inf := absint.InferIntWith(c, absint.DefaultIntX(c), absint.SemPractical)
			if width == 0 {
				width = absint.SelectBVWidth(inf.Root, absint.Limits{})
			}
		})
		var tres *translate.Result
		timed("translate", root, func() { tres, err = translate.IntToBV(c, width) })
		if err != nil {
			return
		}
		ls.widths = append(ls.widths, float64(width))
		bs := tr.begin("bounded-solve", root, id)
		s := sat.New()
		timed("bitblast.encode", bs, func() { err = bitblast.New(s).Encode(tres.Bounded) })
		if err == nil {
			ls.cnfVars = append(ls.cnfVars, float64(s.NumVars()))
			ls.cnfClauses = append(ls.cnfClauses, float64(s.NumClauses()))
			s.PropagationCap = budget * solver.SATWorkScale
			s.Deadline = pipeline.BackstopDeadline(timeout)
			timed("sat.preprocess", bs, func() { s.Preprocess(sat.PreprocessOptions{}) })
			timed("sat.solve", bs, func() { s.Solve() })
			ls.propagations += s.Stats.Propagations
		}
		tr.end(bs)
	} else {
		var sort smt.Sort
		timed("absint.infer", root, func() {
			sort = absint.SelectFPSort(absint.InferReal(c, absint.DefaultRealX(c)).Root, absint.Limits{})
		})
		var tres *translate.Result
		timed("translate", root, func() { tres, err = translate.RealToFP(c, sort) })
		if err != nil {
			return
		}
		timed("fpsolver.solve", root, func() {
			fpsolver.Solve(tres.Bounded, fpsolver.Params{NodeBudget: max(budget/fpWorkCost, 1), Deadline: pipeline.BackstopDeadline(timeout)})
		})
	}

	var ur solver.Result
	timed("solver.solve", root, func() {
		ur = solver.Solve(c, solver.Options{Ctx: ctx, Profile: solver.Prima, WorkBudget: budget,
			Deadline: pipeline.BackstopDeadline(timeout)})
	})
	ls.unbounded++
	if ur.Status != status.Unknown {
		ls.unboundedDecide++
	}
	if ur.Status == status.Sat {
		timed("eval.verify", root, func() { solver.VerifyModel(c, ur.Model) })
	}
}
