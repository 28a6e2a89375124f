package intsolver

import (
	"math/big"
	"sync/atomic"
	"testing"
	"time"

	"staub/internal/eval"
	"staub/internal/smt"
	"staub/internal/status"
)

func parse(t *testing.T, src string) *smt.Constraint {
	t.Helper()
	c, err := smt.ParseScript(src)
	if err != nil {
		t.Fatalf("ParseScript: %v", err)
	}
	return c
}

func solve(t *testing.T, src string) (status.Status, eval.Assignment, *smt.Constraint) {
	t.Helper()
	c := parse(t, src)
	st, m, _ := Solve(c, Params{Deadline: time.Now().Add(10 * time.Second)})
	if st == status.Sat {
		ok, err := eval.Constraint(c, m)
		if err != nil {
			t.Fatalf("eval model: %v", err)
		}
		if !ok {
			t.Fatalf("model %v does not satisfy constraint", m)
		}
	}
	return st, m, c
}

func TestLinearSat(t *testing.T) {
	st, m, _ := solve(t, `
		(declare-fun x () Int)
		(declare-fun y () Int)
		(assert (<= (+ x y) 10))
		(assert (>= x 3))
		(assert (>= y 4))
		(check-sat)`)
	if st != status.Sat {
		t.Fatalf("status = %v, want sat", st)
	}
	if m["x"].Int.Int64() < 3 || m["y"].Int.Int64() < 4 {
		t.Errorf("model %v violates bounds", m)
	}
}

func TestLinearUnsat(t *testing.T) {
	st, _, _ := solve(t, `
		(declare-fun x () Int)
		(declare-fun y () Int)
		(assert (<= (+ x y) 5))
		(assert (>= x 3))
		(assert (>= y 4))
		(check-sat)`)
	if st != status.Unsat {
		t.Fatalf("status = %v, want unsat", st)
	}
}

func TestIntegralityBranching(t *testing.T) {
	// 2x = 7 has a rational solution but no integer one.
	st, _, _ := solve(t, `
		(declare-fun x () Int)
		(assert (= (* 2 x) 7))
		(check-sat)`)
	if st != status.Unsat {
		t.Fatalf("status = %v, want unsat", st)
	}
}

func TestIntegralityBranchingSat(t *testing.T) {
	// 2x + 3y = 7 has integer solutions (x=2, y=1).
	st, _, _ := solve(t, `
		(declare-fun x () Int)
		(declare-fun y () Int)
		(assert (= (+ (* 2 x) (* 3 y)) 7))
		(assert (>= x 0))
		(assert (<= x 10))
		(assert (>= y 0))
		(assert (<= y 10))
		(check-sat)`)
	if st != status.Sat {
		t.Fatalf("status = %v, want sat", st)
	}
}

func TestNonlinearSmallSolution(t *testing.T) {
	// x*x = 49 with x > 0: solution x = 7.
	st, m, _ := solve(t, `
		(declare-fun x () Int)
		(assert (= (* x x) 49))
		(assert (> x 0))
		(check-sat)`)
	if st != status.Sat {
		t.Fatalf("status = %v, want sat", st)
	}
	if m["x"].Int.Int64() != 7 {
		t.Errorf("x = %v, want 7", m["x"].Int)
	}
}

func TestNonlinearIntervalRefutation(t *testing.T) {
	// x*x + 1 <= 0 is refuted by interval sign analysis without search.
	st, _, _ := solve(t, `
		(declare-fun x () Int)
		(assert (<= (+ (* x x) 1) 0))
		(check-sat)`)
	if st != status.Unsat {
		t.Fatalf("status = %v, want unsat", st)
	}
}

func TestNonlinearBoundedUnsat(t *testing.T) {
	// Bounded box exhausted: x in [0, 5], x*x = 20 has no solution.
	st, _, _ := solve(t, `
		(declare-fun x () Int)
		(assert (>= x 0))
		(assert (<= x 5))
		(assert (= (* x x) 20))
		(check-sat)`)
	if st != status.Unsat {
		t.Fatalf("status = %v, want unsat", st)
	}
}

func TestSumOfCubes(t *testing.T) {
	// The paper's Figure 1a example: x^3 + y^3 + z^3 = 855.
	st, m, _ := solve(t, `
		(declare-fun x () Int)
		(declare-fun y () Int)
		(declare-fun z () Int)
		(assert (= (+ (* x x x) (* y y y) (* z z z)) 855))
		(check-sat)`)
	if st != status.Sat {
		t.Fatalf("status = %v, want sat", st)
	}
	sum := new(big.Int)
	for _, n := range []string{"x", "y", "z"} {
		v := m[n].Int
		cube := new(big.Int).Mul(v, v)
		cube.Mul(cube, v)
		sum.Add(sum, cube)
	}
	if sum.Int64() != 855 {
		t.Errorf("cube sum = %v, want 855", sum)
	}
}

func TestDisjunction(t *testing.T) {
	st, m, _ := solve(t, `
		(declare-fun x () Int)
		(assert (or (= x 3) (= x 5)))
		(assert (not (= x 3)))
		(check-sat)`)
	if st != status.Sat {
		t.Fatalf("status = %v, want sat", st)
	}
	if m["x"].Int.Int64() != 5 {
		t.Errorf("x = %v, want 5", m["x"].Int)
	}
}

func TestDistinct(t *testing.T) {
	st, _, _ := solve(t, `
		(declare-fun x () Int)
		(assert (>= x 0))
		(assert (<= x 1))
		(assert (not (= x 0)))
		(assert (not (= x 1)))
		(check-sat)`)
	if st != status.Unsat {
		t.Fatalf("status = %v, want unsat", st)
	}
}

func TestUnknownOnHugeUnboundedSearch(t *testing.T) {
	// Unsat nonlinear constraint that interval reasoning cannot refute
	// with unbounded variables: x*y = 2 with both odd... instead use a
	// constraint with no solution but unbounded box: x*x = 7 (no integer
	// square equals 7). Interval analysis cannot see this; deepening
	// cannot prove unsat; the solver must return unknown within budget.
	c := parse(t, `
		(declare-fun x () Int)
		(assert (= (* x x) 7))
		(check-sat)`)
	st, _, stats := Solve(c, Params{MaxRadius: 64, NodeBudget: 100000})
	if st != status.Unknown {
		t.Fatalf("status = %v, want unknown (incomplete fragment)", st)
	}
	if stats.Nodes == 0 {
		t.Errorf("expected nonzero search effort")
	}
}

func TestDeadline(t *testing.T) {
	c := parse(t, `
		(declare-fun x () Int)
		(declare-fun y () Int)
		(declare-fun z () Int)
		(assert (= (+ (* x x x) (* y y y) (* z z z)) 9999999))
		(check-sat)`)
	start := time.Now()
	st, _, _ := Solve(c, Params{Deadline: time.Now().Add(50 * time.Millisecond)})
	if st == status.Sat {
		t.Skip("found a model surprisingly fast")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("deadline not respected: ran %v", elapsed)
	}
}

func TestBooleanStructureIte(t *testing.T) {
	st, m, _ := solve(t, `
		(declare-fun x () Int)
		(assert (ite (> x 0) (= x 4) (= x (- 2))))
		(assert (> x 1))
		(check-sat)`)
	if st != status.Sat {
		t.Fatalf("status = %v, want sat", st)
	}
	if m["x"].Int.Int64() != 4 {
		t.Errorf("x = %v, want 4", m["x"].Int)
	}
}

// TestInterruptedSolveDoesNoWork starts Solve with the interrupt already
// set: the first search node must notice it, so the solve ends
// Unknown/TimedOut after at most one node.
func TestInterruptedSolveDoesNoWork(t *testing.T) {
	c := parse(t, `
		(declare-fun x () Int)
		(declare-fun y () Int)
		(declare-fun z () Int)
		(assert (= (+ (* x x x) (* y y y) (* z z z)) 855))
		(check-sat)`)
	var stop atomic.Bool
	stop.Store(true)
	st, m, stats := Solve(c, Params{Interrupt: &stop})
	if st != status.Unknown || m != nil || !stats.TimedOut || stats.Nodes > 1 {
		t.Fatalf("Solve = %v (model %v), stats %+v; want Unknown, TimedOut, ≤ 1 node", st, m, stats)
	}
}
