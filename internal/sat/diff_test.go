// Differential safety net for the CDCL core: seeded random CNF instances
// cross-checked against an exhaustive oracle and against independent
// solver configurations. Everything here is deterministic (fixed seeds)
// and small enough to brute-force, so a verdict mismatch is always a
// solver bug, never flakiness. The `sat-diff` make gate runs these under
// the race detector.
package sat

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"staub/internal/sat/satlegacy"
)

// randCNF generates a random CNF with mixed clause widths (1..4) over
// nVars variables. Width-1 clauses make unit propagation and level-0
// conflicts common; repeated variables inside a clause exercise
// tautology/duplicate handling in preprocessing.
func randCNF(rng *rand.Rand, nVars, nClauses int) [][]Lit {
	clauses := make([][]Lit, nClauses)
	for i := range clauses {
		w := 1 + rng.Intn(4)
		cl := make([]Lit, w)
		for j := range cl {
			v := rng.Intn(nVars)
			if rng.Intn(2) == 0 {
				cl[j] = PosLit(v)
			} else {
				cl[j] = NegLit(v)
			}
		}
		clauses[i] = cl
	}
	return clauses
}

// buildSolver loads clauses into a fresh solver over nVars variables.
func buildSolver(nVars int, clauses [][]Lit) *Solver {
	s := New()
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	for _, cl := range clauses {
		s.AddClause(cl...)
	}
	return s
}

// checkModel fails the test unless the solver's model satisfies clauses.
func checkModel(t *testing.T, tag string, s *Solver, clauses [][]Lit) {
	t.Helper()
	for ci, cl := range clauses {
		ok := false
		for _, l := range cl {
			if s.Value(l.Var()) != l.Sign() {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("%s: model does not satisfy clause %d (%v)", tag, ci, cl)
		}
	}
}

// TestSATDiffOracle cross-checks every solver configuration — both
// clause-DB policies, with and without preprocessing (including variable
// elimination), with an aggressive reduceDB schedule — against the
// brute-force oracle on the same instances.
func TestSATDiffOracle(t *testing.T) {
	configs := []struct {
		name string
		run  func(nVars int, clauses [][]Lit) (*Solver, Status)
	}{
		{"glue", func(n int, cls [][]Lit) (*Solver, Status) {
			s := buildSolver(n, cls)
			s.ReduceFirst = 8 // force frequent reductions on tiny instances
			return s, s.Solve()
		}},
		{"activity", func(n int, cls [][]Lit) (*Solver, Status) {
			s := buildSolver(n, cls)
			s.DB = DBActivity
			return s, s.Solve()
		}},
		{"glue+subsume", func(n int, cls [][]Lit) (*Solver, Status) {
			s := buildSolver(n, cls)
			s.Preprocess(PreprocessOptions{})
			return s, s.Solve()
		}},
		{"glue+varelim", func(n int, cls [][]Lit) (*Solver, Status) {
			s := buildSolver(n, cls)
			s.Preprocess(PreprocessOptions{VarElim: true, MaxOccur: 6})
			return s, s.Solve()
		}},
	}
	rng := rand.New(rand.NewSource(2026))
	for iter := 0; iter < 300; iter++ {
		nVars := 3 + rng.Intn(10) // ≤ 12 vars: oracle stays instant
		nClauses := 2 + rng.Intn(40)
		clauses := randCNF(rng, nVars, nClauses)
		want := Unsat
		if bruteForceSat(nVars, clauses) {
			want = Sat
		}
		for _, cfg := range configs {
			s, got := cfg.run(nVars, clauses)
			if got != want {
				t.Fatalf("iter %d cfg %s: Solve() = %v, oracle says %v", iter, cfg.name, got, want)
			}
			if got == Sat {
				checkModel(t, cfg.name, s, clauses)
			}
		}
	}
}

// TestSATDiffAssumptions checks SolveAssuming against a fresh solver
// with the assumptions added as unit clauses: the verdicts must match,
// and the incremental solver must stay reusable (and consistent with the
// oracle) across many assumption sets over the same clause database.
func TestSATDiffAssumptions(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for iter := 0; iter < 60; iter++ {
		nVars := 4 + rng.Intn(8)
		nClauses := 2 + rng.Intn(30)
		clauses := randCNF(rng, nVars, nClauses)
		inc := buildSolver(nVars, clauses)
		inc.ReduceFirst = 8
		for round := 0; round < 8; round++ {
			nAssump := rng.Intn(4)
			seen := map[int]bool{}
			var assumptions []Lit
			for len(assumptions) < nAssump {
				v := rng.Intn(nVars)
				if seen[v] {
					continue
				}
				seen[v] = true
				if rng.Intn(2) == 0 {
					assumptions = append(assumptions, PosLit(v))
				} else {
					assumptions = append(assumptions, NegLit(v))
				}
			}
			fresh := buildSolver(nVars, clauses)
			for _, a := range assumptions {
				fresh.AddClause(a)
			}
			want := fresh.Solve()
			got := inc.SolveAssuming(assumptions...)
			if got != want {
				t.Fatalf("iter %d round %d: SolveAssuming(%v) = %v, fresh copy says %v",
					iter, round, assumptions, got, want)
			}
			if got == Sat {
				checkModel(t, "incremental", inc, clauses)
				for _, a := range assumptions {
					if inc.Value(a.Var()) == a.Sign() {
						t.Fatalf("iter %d round %d: model violates assumption %v", iter, round, a)
					}
				}
			}
		}
	}
}

// TestSATDiffInprocessing interleaves Preprocess (subsumption only, as
// the incremental session does between rounds) with assumption solves
// and checks the verdicts never drift from a fresh-copy reference.
func TestSATDiffInprocessing(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 40; iter++ {
		nVars := 4 + rng.Intn(8)
		clauses := randCNF(rng, nVars, 2+rng.Intn(25))
		inc := buildSolver(nVars, clauses)
		for round := 0; round < 6; round++ {
			inc.Preprocess(PreprocessOptions{})
			var assumptions []Lit
			if rng.Intn(2) == 0 {
				v := rng.Intn(nVars)
				if rng.Intn(2) == 0 {
					assumptions = append(assumptions, PosLit(v))
				} else {
					assumptions = append(assumptions, NegLit(v))
				}
			}
			fresh := buildSolver(nVars, clauses)
			for _, a := range assumptions {
				fresh.AddClause(a)
			}
			want := fresh.Solve()
			if got := inc.SolveAssuming(assumptions...); got != want {
				t.Fatalf("iter %d round %d: verdict drifted to %v after inprocessing, want %v",
					iter, round, got, want)
			}
		}
	}
}

// TestSATDiffGrowingDatabase mirrors the activation-literal retirement
// pattern from the bit-blasting session: clauses guarded by an activation
// literal, solved under assumption, then retired and replaced; after each
// round the verdict must match a from-scratch solver seeing only the live
// clauses.
func TestSATDiffGrowingDatabase(t *testing.T) {
	rng := rand.New(rand.NewSource(7331))
	for iter := 0; iter < 30; iter++ {
		nVars := 4 + rng.Intn(6)
		base := randCNF(rng, nVars, 2+rng.Intn(12))
		inc := buildSolver(nVars, base)
		for round := 0; round < 5; round++ {
			act := PosLit(inc.NewVar())
			extra := randCNF(rng, nVars, 1+rng.Intn(8))
			for _, cl := range extra {
				guarded := append([]Lit{act.Not()}, cl...)
				inc.AddClause(guarded...)
			}
			fresh := buildSolver(nVars, append(append([][]Lit(nil), base...), extra...))
			want := fresh.Solve()
			if got := inc.SolveAssuming(act); got != want {
				t.Fatalf("iter %d round %d: guarded solve = %v, fresh copy says %v", iter, round, got, want)
			}
			// Retire the round and inprocess, as bitblast.Session does.
			inc.AddClause(act.Not())
			inc.Preprocess(PreprocessOptions{})
			freshBase := buildSolver(nVars, base)
			want = freshBase.Solve()
			if got := inc.Solve(); got != want {
				t.Fatalf("iter %d round %d: post-retirement solve = %v, want %v", iter, round, got, want)
			}
		}
	}
}

// TestSATDiffLegacyOracle runs the frozen pre-modernization solver
// (internal/sat/satlegacy) as a second, independently implemented
// oracle: legacy and modern must agree with brute force on every
// instance. The configurations above all share the modern propagation
// core, so a bug baked into it would pass them unanimously; the legacy
// engine has its own clause representation, watcher scheme and DB policy
// and fails independently.
func TestSATDiffLegacyOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 300; iter++ {
		nVars := 3 + rng.Intn(10)
		nClauses := 2 + rng.Intn(40)
		clauses := randCNF(rng, nVars, nClauses)
		want := Unsat
		if bruteForceSat(nVars, clauses) {
			want = Sat
		}
		s := buildSolver(nVars, clauses)
		if got := s.Solve(); got != want {
			t.Fatalf("iter %d: modern Solve() = %v, oracle says %v", iter, got, want)
		}
		ls := satlegacy.New()
		for i := 0; i < nVars; i++ {
			ls.NewVar()
		}
		for _, cl := range clauses {
			lits := make([]satlegacy.Lit, len(cl))
			for j, l := range cl {
				if l.Sign() {
					lits[j] = satlegacy.NegLit(l.Var())
				} else {
					lits[j] = satlegacy.PosLit(l.Var())
				}
			}
			ls.AddClause(lits...)
		}
		if got := ls.Solve(); got.String() != want.String() {
			t.Fatalf("iter %d: legacy Solve() = %v, oracle says %v", iter, got, want)
		}
	}
}

// TestInterruptedPreprocess checks Preprocess's interrupt polls. With
// the flag set on entry it must change nothing; with the flag set by
// another goroutine at an arbitrary point it may stop anywhere, and the
// database it leaves must still agree with the brute-force oracle (and
// reconstruct models through any eliminations it finished).
func TestInterruptedPreprocess(t *testing.T) {
	rng := rand.New(rand.NewSource(4711))
	for iter := 0; iter < 200; iter++ {
		nVars := 3 + rng.Intn(10)
		clauses := randCNF(rng, nVars, 2+rng.Intn(40))
		want := Unsat
		if bruteForceSat(nVars, clauses) {
			want = Sat
		}
		opts := PreprocessOptions{VarElim: true, MaxOccur: 6}

		s := buildSolver(nVars, clauses)
		before := s.NumClauses()
		var stop atomic.Bool
		stop.Store(true)
		s.SetInterrupt(&stop)
		s.Preprocess(opts)
		if s.NumClauses() != before || s.Stats.Subsumed+s.Stats.Strengthened+s.Stats.Eliminated != 0 {
			t.Fatalf("iter %d: Preprocess with the interrupt set changed the database: %d -> %d clauses, stats %+v",
				iter, before, s.NumClauses(), s.Stats)
		}

		s = buildSolver(nVars, clauses)
		var racing atomic.Bool
		s.SetInterrupt(&racing)
		delay := rng.Intn(50)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < delay; i++ {
				runtime.Gosched()
			}
			racing.Store(true)
		}()
		s.Preprocess(opts)
		<-done
		s.SetInterrupt(nil)
		if got := s.Solve(); got != want {
			t.Fatalf("iter %d: Solve after an interrupted Preprocess = %v, oracle says %v", iter, got, want)
		}
		if want == Sat {
			checkModel(t, "interrupted-preprocess", s, clauses)
		}
	}
}
