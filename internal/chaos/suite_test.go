// Package chaos_test is the chaos suite: the refinement corpus solved
// under every fault class, asserting the repository-wide containment
// invariants — no crash, no sat/unsat verdict flip, and injection
// counters that match what actually fired. `make check` runs it in short
// mode (a corpus subset) under the race detector.
package chaos_test

import (
	"context"
	"testing"
	"time"

	"staub/internal/chaos"
	"staub/internal/core"
	"staub/internal/engine"
	"staub/internal/harness"
	"staub/internal/pipeline"
	"staub/internal/smt"
	"staub/internal/status"
)

// suiteCorpus parses the refinement corpus, trimmed in -short mode so the
// CI chaos gate stays quick.
func suiteCorpus(t *testing.T) []harness.RefinementInstance {
	t.Helper()
	corpus := harness.RefinementCorpus()
	if testing.Short() && len(corpus) > 3 {
		corpus = corpus[:3]
	}
	return corpus
}

func suiteJobs(t *testing.T, corpus []harness.RefinementInstance, kind engine.Kind) []engine.Job {
	t.Helper()
	jobs := make([]engine.Job, len(corpus))
	for i, inst := range corpus {
		c, err := smt.ParseScript(inst.Src)
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		jobs[i] = engine.Job{Kind: kind, Constraint: c,
			Config: core.Config{Timeout: time.Second, RefineRounds: 3, Deterministic: true}}
	}
	return jobs
}

// refCache memoizes the clean reference run (keyed by corpus size, which
// only varies with -short) so the suite pays for it once.
var refCache = map[int][]status.Status{}

// referenceStatuses solves the corpus cleanly and returns the portfolio
// verdict per instance — the ground truth no chaos run may contradict.
func referenceStatuses(t *testing.T, corpus []harness.RefinementInstance) []status.Status {
	t.Helper()
	if cached, ok := refCache[len(corpus)]; ok {
		return cached
	}
	chaos.Disable()
	results := engine.New(0, nil).Run(context.Background(), suiteJobs(t, corpus, engine.KindPortfolio))
	out := make([]status.Status, len(results))
	for i, r := range results {
		if r.Fault != "" || r.Portfolio.Degraded {
			t.Fatalf("%s: clean reference run faulted: %+v", corpus[i].Name, r)
		}
		out[i] = r.Portfolio.Status
	}
	refCache[len(corpus)] = out
	return out
}

// checkNoFlip fails when a chaos-run status contradicts the clean
// reference: degrading to unknown is allowed, flipping sat↔unsat never.
func checkNoFlip(t *testing.T, name string, ref, got status.Status) {
	t.Helper()
	if got == status.Unknown || got == ref {
		return
	}
	t.Errorf("%s: verdict flipped under chaos: reference %v, got %v", name, ref, got)
}

// faultClasses pairs each chaos fault with the pipeline fault it must be
// contained as when injected at a pass site.
var faultClasses = []struct {
	fault chaos.Fault
	want  string
}{
	{chaos.FaultPassPanic, pipeline.FaultPanic},
	{chaos.FaultTransientError, pipeline.FaultTransient},
	{chaos.FaultBudgetBlowup, pipeline.FaultBudget},
	{chaos.FaultSolverStall, pipeline.FaultStall},
}

// TestChaosPipelineEveryFaultClass injects each fault class into every
// pipeline run (rate 1 at the translate pass) and asserts the three suite
// invariants: the process survives, every job reports the matching
// contained fault with an unknown verdict (never an invented sat/unsat),
// and the injection counter advances by exactly one fire per job.
func TestChaosPipelineEveryFaultClass(t *testing.T) {
	corpus := suiteCorpus(t)
	for _, fc := range faultClasses {
		t.Run(fc.fault.String(), func(t *testing.T) {
			jobs := suiteJobs(t, corpus, engine.KindPipeline)
			before := chaos.Snapshot()[fc.fault.String()]
			restore := chaos.Enable(chaos.NewInjector(chaos.Config{
				Seed: 42, Rate: 1, Fault: fc.fault,
				Sites:    []string{"pass:" + pipeline.PassTranslate},
				StallFor: 2 * time.Second, // well past the 1s pass watchdog that must cut it short
			}))
			results := engine.New(0, nil).Run(context.Background(), jobs)
			restore()

			for i, r := range results {
				name := corpus[i].Name
				if fc.fault == chaos.FaultBudgetBlowup {
					// The blowup runs the pass before inflating its cost, so
					// the fault may land as budget (ceiling trip) on this
					// pass; either way it must be contained, not a verdict.
					if r.Pipeline.Fault != fc.want {
						t.Errorf("%s: fault = %q, want %q", name, r.Pipeline.Fault, fc.want)
					}
				} else if r.Pipeline.Fault != fc.want {
					t.Errorf("%s: fault = %q, want %q", name, r.Pipeline.Fault, fc.want)
				}
				if r.Pipeline.Status != status.Unknown {
					t.Errorf("%s: faulted pipeline invented verdict %v", name, r.Pipeline.Status)
				}
			}
			after := chaos.Snapshot()[fc.fault.String()]
			if got, want := after-before, int64(len(jobs)); got != want {
				t.Errorf("injection counter advanced %d, want exactly %d (one per job)", got, want)
			}
		})
	}
}

// TestChaosPortfolioDegradesEveryFaultClass runs the corpus in portfolio
// mode under each fault class: the STAUB leg faults, the unbounded leg
// still answers, and no verdict contradicts the clean reference.
func TestChaosPortfolioDegradesEveryFaultClass(t *testing.T) {
	corpus := suiteCorpus(t)
	ref := referenceStatuses(t, corpus)
	for _, fc := range faultClasses {
		t.Run(fc.fault.String(), func(t *testing.T) {
			jobs := suiteJobs(t, corpus, engine.KindPortfolio)
			restore := chaos.Enable(chaos.NewInjector(chaos.Config{
				Seed: 43, Rate: 1, Fault: fc.fault,
				Sites:    []string{"pass:" + pipeline.PassTranslate},
				StallFor: 2 * time.Second,
			}))
			results := engine.New(0, nil).Run(context.Background(), jobs)
			restore()

			for i, r := range results {
				name := corpus[i].Name
				checkNoFlip(t, name, ref[i], r.Portfolio.Status)
				// The unbounded leg may have been beaten to a definitive
				// answer by nothing (the STAUB leg always faults), so any
				// answered instance must be degraded and not from STAUB.
				if r.Portfolio.FromSTAUB {
					t.Errorf("%s: verdict attributed to the faulted STAUB leg", name)
				}
				if !r.Portfolio.Degraded {
					t.Errorf("%s: faulted STAUB leg did not mark the portfolio degraded", name)
				}
			}
		})
	}
}

// TestChaosPartialRateNoFlips is the probabilistic half of the suite: at
// rate 0.3 over every pass site some jobs fault and some run clean, and
// every clean verdict must equal the reference exactly.
func TestChaosPartialRateNoFlips(t *testing.T) {
	corpus := suiteCorpus(t)
	ref := referenceStatuses(t, corpus)
	for _, fc := range faultClasses {
		t.Run(fc.fault.String(), func(t *testing.T) {
			jobs := suiteJobs(t, corpus, engine.KindPortfolio)
			restore := chaos.Enable(chaos.NewInjector(chaos.Config{
				Seed: 44, Rate: 0.3, Fault: fc.fault,
				StallFor: 2 * time.Second, // all sites eligible
			}))
			results := engine.New(0, nil).Run(context.Background(), jobs)
			restore()

			for i, r := range results {
				name := corpus[i].Name
				checkNoFlip(t, name, ref[i], r.Portfolio.Status)
				if r.Portfolio.Pipeline.Fault == "" && !r.Portfolio.Degraded &&
					r.Portfolio.Status != ref[i] && r.Portfolio.Status != status.Unknown {
					t.Errorf("%s: clean run diverged from reference: %v vs %v",
						name, r.Portfolio.Status, ref[i])
				}
			}
		})
	}
}

// TestChaosDeterministicReplay pins seed reproducibility: the same seed
// and corpus fire the same injections and produce identical fault
// patterns across two runs.
func TestChaosDeterministicReplay(t *testing.T) {
	corpus := suiteCorpus(t)
	run := func() []string {
		jobs := suiteJobs(t, corpus, engine.KindPipeline)
		restore := chaos.Enable(chaos.NewInjector(chaos.Config{
			Seed: 45, Rate: 0.5, Fault: chaos.FaultTransientError,
		}))
		defer restore()
		results := engine.New(1, nil).Run(context.Background(), jobs)
		out := make([]string, len(results))
		for i, r := range results {
			out[i] = r.Pipeline.Fault + "/" + r.Pipeline.FaultPass
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("%s: fault pattern not reproducible: %q vs %q", corpus[i].Name, a[i], b[i])
		}
	}
}

// TestChaosSATSitesNoFlips injects into the CDCL core's own fault sites —
// the preprocessing pass ("sat:preprocess", which the incremental session
// runs between every refinement round) and learned-clause DB reduction
// ("sat:reduce") — under the fault classes that exercise them hardest:
// solver-stall and budget-blowup, plus transient-error (which skips the
// phase entirely, proving both are verdict-neutral optimizations) and
// pass-panic (contained at the pass boundary). With inprocessing enabled
// the invariants are unchanged: no crash, and no verdict ever contradicts
// the clean reference.
func TestChaosSATSitesNoFlips(t *testing.T) {
	corpus := suiteCorpus(t)
	ref := referenceStatuses(t, corpus)
	sites := []string{"sat:preprocess", "sat:reduce"}
	faults := []chaos.Fault{
		chaos.FaultSolverStall, chaos.FaultBudgetBlowup,
		chaos.FaultTransientError, chaos.FaultPassPanic,
	}
	for _, site := range sites {
		for _, fault := range faults {
			t.Run(site+"/"+fault.String(), func(t *testing.T) {
				jobs := suiteJobs(t, corpus, engine.KindPortfolio)
				before := chaos.Snapshot()[fault.String()]
				restore := chaos.Enable(chaos.NewInjector(chaos.Config{
					Seed: 46, Rate: 1, Fault: fault,
					Sites:    []string{site},
					StallFor: 100 * time.Millisecond, // stalls sit inside the solve budget; keep them short
				}))
				results := engine.New(0, nil).Run(context.Background(), jobs)
				restore()

				fired := chaos.Snapshot()[fault.String()] - before
				for i, r := range results {
					checkNoFlip(t, corpus[i].Name, ref[i], r.Portfolio.Status)
				}
				// The preprocess site runs at least once per bit-blasted
				// round, so rate 1 must actually fire there; the reduce site
				// only fires when a reduction comes due, which small corpus
				// instances may never reach — but if it fired, the verdicts
				// above already proved containment.
				if site == "sat:preprocess" && fired == 0 {
					t.Error("rate-1 injection at sat:preprocess never fired")
				}
			})
		}
	}
}
