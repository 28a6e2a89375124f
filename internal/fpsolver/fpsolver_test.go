package fpsolver

import (
	"math"
	"math/big"
	"sync/atomic"
	"testing"
	"time"

	"staub/internal/eval"
	"staub/internal/fp"
	"staub/internal/smt"
	"staub/internal/status"
)

func fpConst(t *testing.T, c *smt.Constraint, sort smt.Sort, num, den int64) *smt.Term {
	t.Helper()
	v, _ := fp.FromRat(smt.FPFormat(sort), big.NewRat(num, den))
	r, _ := v.Rat()
	return c.Builder.FP(sort, v.Bits(), r)
}

func solve(t *testing.T, c *smt.Constraint) (status.Status, eval.Assignment) {
	t.Helper()
	st, m, _ := Solve(c, Params{Deadline: time.Now().Add(10 * time.Second)})
	if st == status.Sat {
		ok, err := eval.Constraint(c, m)
		if err != nil {
			t.Fatalf("eval: %v", err)
		}
		if !ok {
			t.Fatalf("model %v does not satisfy:\n%s", m, c.Script())
		}
	}
	return st, m
}

func smallSort() smt.Sort { return smt.FloatSort(4, 6) } // 10 bits: exhaustive

func TestSimpleEquality(t *testing.T) {
	sort := smallSort()
	c := smt.NewConstraint("QF_FP")
	b := c.Builder
	x := c.MustDeclare("x", sort)
	c.MustAssert(b.MustApply(smt.OpFPEq, x, fpConst(t, c, sort, 5, 2)))
	st, m := solve(t, c)
	if st != status.Sat {
		t.Fatalf("status = %v", st)
	}
	r, _ := m["x"].FP.Rat()
	if r.Cmp(big.NewRat(5, 2)) != 0 {
		t.Errorf("x = %v, want 5/2", r)
	}
}

func TestUnsatProvedExhaustively(t *testing.T) {
	sort := smallSort()
	c := smt.NewConstraint("QF_FP")
	b := c.Builder
	x := c.MustDeclare("x", sort)
	zero := fpConst(t, c, sort, 0, 1)
	c.MustAssert(b.MustApply(smt.OpFPLt, x, zero))
	c.MustAssert(b.MustApply(smt.OpFPGt, x, zero))
	st, _ := solve(t, c)
	if st != status.Unsat {
		t.Fatalf("status = %v, want unsat (exhaustive)", st)
	}
}

func TestArithmeticSearch(t *testing.T) {
	// x * x = 2.25 has the exact solution 1.5 in this format.
	sort := smallSort()
	c := smt.NewConstraint("QF_FP")
	b := c.Builder
	x := c.MustDeclare("x", sort)
	sq := b.MustApply(smt.OpFPMul, x, x)
	c.MustAssert(b.MustApply(smt.OpFPEq, sq, fpConst(t, c, sort, 9, 4)))
	c.MustAssert(b.MustApply(smt.OpFPGt, x, fpConst(t, c, sort, 0, 1)))
	st, m := solve(t, c)
	if st != status.Sat {
		t.Fatalf("status = %v", st)
	}
	r, _ := m["x"].FP.Rat()
	if r.Cmp(big.NewRat(3, 2)) != 0 {
		t.Errorf("x = %v, want 3/2", r)
	}
}

func TestTwoVariables(t *testing.T) {
	sort := smt.FloatSort(3, 4) // 6 bits each: exhaustive pair search
	c := smt.NewConstraint("QF_FP")
	b := c.Builder
	x := c.MustDeclare("x", sort)
	y := c.MustDeclare("y", sort)
	sum := b.MustApply(smt.OpFPAdd, x, y)
	c.MustAssert(b.MustApply(smt.OpFPEq, sum, fpConst(t, c, sort, 3, 1)))
	c.MustAssert(b.MustApply(smt.OpFPLt, x, y))
	st, m := solve(t, c)
	if st != status.Sat {
		t.Fatalf("status = %v", st)
	}
	if !fp.Lt(m["x"].FP, m["y"].FP) {
		t.Error("x < y violated")
	}
}

func TestNaNGuardsRespected(t *testing.T) {
	sort := smallSort()
	c := smt.NewConstraint("QF_FP")
	b := c.Builder
	x := c.MustDeclare("x", sort)
	// Only a NaN x satisfies (not (fp.leq x x)); with the guard it is unsat.
	c.MustAssert(b.Not(b.MustApply(smt.OpFPLe, x, x)))
	c.MustAssert(b.Not(b.MustApply(smt.OpFPIsNaN, x)))
	st, _ := solve(t, c)
	if st != status.Unsat {
		t.Fatalf("status = %v, want unsat", st)
	}
}

func TestLocalSearchLargeFormat(t *testing.T) {
	// Float32 is far beyond exhaustive range; local search must find an
	// easy target.
	sort := smt.Float32Sort
	c := smt.NewConstraint("QF_FP")
	b := c.Builder
	x := c.MustDeclare("x", sort)
	y := c.MustDeclare("y", sort)
	c.MustAssert(b.MustApply(smt.OpFPEq, x, fpConst(t, c, sort, 10, 1)))
	c.MustAssert(b.MustApply(smt.OpFPGt, y, x))
	st, m, stats := Solve(c, Params{Deadline: time.Now().Add(10 * time.Second), Seed: 7})
	if st != status.Sat {
		t.Fatalf("status = %v (nodes %d)", st, stats.Nodes)
	}
	if stats.Exhaustive {
		t.Error("Float32 pair should not be exhaustive")
	}
	ok, err := eval.Constraint(c, m)
	if err != nil || !ok {
		t.Fatalf("bad model: %v %v", m, err)
	}
}

func TestFloat64LocalSearchNoPanic(t *testing.T) {
	// Regression: random-pattern moves at 64-bit widths previously
	// overflowed the int64 shift and panicked.
	sort := smt.Float64Sort
	c := smt.NewConstraint("QF_FP")
	b := c.Builder
	x := c.MustDeclare("x", sort)
	y := c.MustDeclare("y", sort)
	c.MustAssert(b.MustApply(smt.OpFPGt, x, fpConst(t, c, sort, 1000, 1)))
	c.MustAssert(b.MustApply(smt.OpFPLt, y, x))
	st, m, _ := Solve(c, Params{Deadline: time.Now().Add(10 * time.Second), Seed: 3})
	if st == status.Sat {
		ok, err := eval.Constraint(c, m)
		if err != nil || !ok {
			t.Fatalf("bad model %v: %v", m, err)
		}
	}
}

func TestCandidatesOrdering(t *testing.T) {
	sort := smt.FloatSort(3, 3)
	cands := Candidates(sort)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, v := range cands {
		if !v.IsFinite() {
			t.Fatal("non-finite candidate")
		}
	}
	// First candidate is +0 (smallest magnitude).
	if !cands[0].IsZero() {
		t.Errorf("first candidate = %v, want 0", cands[0])
	}
	if got := SortCandidateCount(sort); got != len(cands) {
		t.Errorf("SortCandidateCount = %d, want %d", got, len(cands))
	}
	// The lazy stream and the closed-form count must match a plain
	// enumeration of every bit pattern, positive before negative per
	// magnitude.
	for _, sort := range []smt.Sort{smt.FloatSort(2, 2), smt.FloatSort(3, 4), smt.FloatSort(4, 6), smt.FloatSort(5, 3)} {
		f := smt.FPFormat(sort)
		half := int64(1) << (f.TotalBits() - 1)
		var want []fp.Value
		for m := int64(0); m < half; m++ {
			for _, bits := range []int64{m, m | half} {
				if v := fp.FromBits(f, big.NewInt(bits)); v.IsFinite() {
					want = append(want, v)
				}
			}
		}
		got := Candidates(sort)
		if len(got) != len(want) || SortCandidateCount(sort) != len(want) {
			t.Fatalf("%v: %d candidates, count %d, want %d", sort, len(got), SortCandidateCount(sort), len(want))
		}
		for i := range want {
			if got[i].Bits().Cmp(want[i].Bits()) != 0 {
				t.Fatalf("%v: candidate %d = %v, want %v", sort, i, got[i], want[i])
			}
		}
	}
	if got := SortCandidateCount(smt.Float64Sort); got != math.MaxInt {
		t.Errorf("SortCandidateCount(Float64) = %d, want saturation at MaxInt", got)
	}
}

// TestBoundedStreamMatchesFilter checks that filtering by unit bounds
// while streaming keeps exactly the candidates the bounds admit, in order.
func TestBoundedStreamMatchesFilter(t *testing.T) {
	sort := smt.FloatSort(4, 6)
	lo, hi := big.NewRat(-3, 2), big.NewRat(5, 1)
	var want []fp.Value
	for _, v := range Candidates(sort) {
		if r, _ := v.Rat(); r.Cmp(lo) >= 0 && r.Cmp(hi) <= 0 {
			want = append(want, v)
		}
	}
	c := newCandStream(sort, [2]*big.Rat{lo, hi})
	for i, w := range want {
		v, ok := c.at(i, nil)
		if !ok || v.Bits().Cmp(w.Bits()) != 0 {
			t.Fatalf("candidate %d = %v (ok=%t), want %v", i, v, ok, w)
		}
	}
	if _, ok := c.at(len(want), nil); ok {
		t.Fatalf("stream yields more than the %d admitted candidates", len(want))
	}
}

// float16Pair is a two-variable Float16 constraint: far too large for a
// search to finish, so only the interrupt can end it early.
func float16Pair(t *testing.T) *smt.Constraint {
	t.Helper()
	sort := smt.Float16Sort
	c := smt.NewConstraint("QF_FP")
	b := c.Builder
	x := c.MustDeclare("x", sort)
	y := c.MustDeclare("y", sort)
	prod := b.MustApply(smt.OpFPMul, x, y)
	c.MustAssert(b.MustApply(smt.OpFPEq, prod, fpConst(t, c, sort, 7919, 1)))
	c.MustAssert(b.MustApply(smt.OpFPGt, x, fpConst(t, c, sort, 1, 1)))
	return c
}

// TestInterruptedSolveDoesNoWork starts Solve with the interrupt already
// set, on both search paths: it must return Unknown/TimedOut after at
// most one node and allocate far less than one Float16 candidate table.
func TestInterruptedSolveDoesNoWork(t *testing.T) {
	c := float16Pair(t)
	var stop atomic.Bool
	stop.Store(true)
	table := SortCandidateCount(smt.Float16Sort)
	for _, tc := range []struct {
		name  string
		limit float64
	}{
		{"exhaustive", 1 << 40},
		{"local-search", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := Params{Interrupt: &stop, ExhaustiveLimit: tc.limit, NodeBudget: 1 << 30}
			st, m, stats := Solve(c, p)
			if st != status.Unknown || m != nil || !stats.TimedOut || stats.Nodes > 1 {
				t.Fatalf("Solve = %v (model %v), stats %+v; want Unknown, TimedOut, ≤ 1 node", st, m, stats)
			}
			allocs := testing.AllocsPerRun(5, func() { Solve(c, p) })
			if allocs > float64(table)/100 {
				t.Fatalf("interrupted Solve allocates %.0f times; one candidate table is %d values", allocs, table)
			}
		})
	}
}

// TestInterruptedExhaustiveStopsInStream drives the exhaustive search
// past Solve's entry check: with the interrupt set, the candidate stream
// stops at its first poll, before any node or candidate is built.
func TestInterruptedExhaustiveStopsInStream(t *testing.T) {
	c := float16Pair(t)
	var stop atomic.Bool
	stop.Store(true)
	s := &solver{c: c, params: Params{Interrupt: &stop}.withDefaults()}
	s.fpVars = c.Vars
	st, m := s.exhaustive()
	if st != status.Unknown || m != nil || !s.timedOut || s.nodes != 0 {
		t.Fatalf("exhaustive = %v (model %v), timedOut=%t nodes=%d; want Unknown, timed out, 0 nodes",
			st, m, s.timedOut, s.nodes)
	}
}
