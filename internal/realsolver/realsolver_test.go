package realsolver

import (
	"math/big"
	"sync/atomic"
	"testing"
	"time"

	"staub/internal/eval"
	"staub/internal/smt"
	"staub/internal/status"
)

func solve(t *testing.T, src string) (status.Status, eval.Assignment) {
	t.Helper()
	c, err := smt.ParseScript(src)
	if err != nil {
		t.Fatalf("ParseScript: %v", err)
	}
	st, m, _ := Solve(c, Params{Deadline: time.Now().Add(10 * time.Second)})
	if st == status.Sat {
		ok, err := eval.Constraint(c, m)
		if err != nil {
			t.Fatalf("eval model: %v", err)
		}
		if !ok {
			t.Fatalf("model %v does not satisfy constraint:\n%s", m, src)
		}
	}
	return st, m
}

func TestLinearSat(t *testing.T) {
	st, m := solve(t, `
		(declare-fun x () Real)
		(declare-fun y () Real)
		(assert (< (+ x y) 1))
		(assert (> x 0))
		(assert (> y 0))
		(check-sat)`)
	if st != status.Sat {
		t.Fatalf("status = %v, want sat", st)
	}
	if m["x"].Rat.Sign() <= 0 {
		t.Errorf("x = %v, want > 0", m["x"].Rat)
	}
}

func TestLinearUnsat(t *testing.T) {
	st, _ := solve(t, `
		(declare-fun x () Real)
		(assert (< x 0))
		(assert (> x 0))
		(check-sat)`)
	if st != status.Unsat {
		t.Fatalf("status = %v, want unsat", st)
	}
}

func TestFractionalSolution(t *testing.T) {
	// 2x = 7 is sat over the reals (x = 3.5), unlike the integers.
	st, m := solve(t, `
		(declare-fun x () Real)
		(assert (= (* 2 x) 7))
		(check-sat)`)
	if st != status.Sat {
		t.Fatalf("status = %v, want sat", st)
	}
	if m["x"].Rat.Cmp(big.NewRat(7, 2)) != 0 {
		t.Errorf("x = %v, want 7/2", m["x"].Rat)
	}
}

func TestNonlinearInequalities(t *testing.T) {
	// x^2 < 2 and x > 1: sat with rational witnesses (e.g. 1.25).
	st, _ := solve(t, `
		(declare-fun x () Real)
		(assert (< (* x x) 2))
		(assert (> x 1))
		(check-sat)`)
	if st != status.Sat {
		t.Fatalf("status = %v, want sat", st)
	}
}

func TestNonlinearRefutation(t *testing.T) {
	st, _ := solve(t, `
		(declare-fun x () Real)
		(assert (< (* x x) 0))
		(check-sat)`)
	if st != status.Unsat {
		t.Fatalf("status = %v, want unsat", st)
	}
}

func TestNonlinearEqualityRationalRoot(t *testing.T) {
	// x^2 = 1/4 with x > 0: x = 1/2 found by midpoint probing.
	st, m := solve(t, `
		(declare-fun x () Real)
		(assert (= (* x x) 0.25))
		(assert (> x 0))
		(assert (< x 1))
		(check-sat)`)
	if st != status.Sat {
		t.Fatalf("status = %v, want sat", st)
	}
	if m["x"].Rat.Cmp(big.NewRat(1, 2)) != 0 {
		t.Errorf("x = %v, want 1/2", m["x"].Rat)
	}
}

func TestIrrationalRootUnknown(t *testing.T) {
	// x^2 = 2 has only irrational solutions; ICP cannot certify them, so
	// the solver must return unknown rather than a wrong verdict.
	c, err := smt.ParseScript(`
		(declare-fun x () Real)
		(assert (= (* x x) 2))
		(check-sat)`)
	if err != nil {
		t.Fatal(err)
	}
	st, _, _ := Solve(c, Params{NodeBudget: 200000, MaxRadius: 8})
	if st != status.Unknown {
		t.Fatalf("status = %v, want unknown (irrational root)", st)
	}
}

func TestStrictChain(t *testing.T) {
	st, _ := solve(t, `
		(declare-fun a () Real)
		(declare-fun b () Real)
		(declare-fun c () Real)
		(assert (< a b))
		(assert (< b c))
		(assert (< c a))
		(check-sat)`)
	if st != status.Unsat {
		t.Fatalf("status = %v, want unsat", st)
	}
}

func TestDisjunctionOverReals(t *testing.T) {
	st, m := solve(t, `
		(declare-fun x () Real)
		(assert (or (< x (- 5)) (> x 5)))
		(assert (>= x 0))
		(check-sat)`)
	if st != status.Sat {
		t.Fatalf("status = %v, want sat", st)
	}
	if m["x"].Rat.Cmp(big.NewRat(5, 1)) <= 0 {
		t.Errorf("x = %v, want > 5", m["x"].Rat)
	}
}

// TestInterruptedSolveDoesNoWork starts Solve with the interrupt already
// set: the first search node must notice it, so the solve ends
// Unknown/TimedOut after at most one node.
func TestInterruptedSolveDoesNoWork(t *testing.T) {
	c, err := smt.ParseScript(`
		(declare-fun x () Real)
		(declare-fun y () Real)
		(assert (= (* x x y) 2))
		(assert (> (+ x y) 3))
		(check-sat)`)
	if err != nil {
		t.Fatalf("ParseScript: %v", err)
	}
	var stop atomic.Bool
	stop.Store(true)
	st, m, stats := Solve(c, Params{Interrupt: &stop})
	if st != status.Unknown || m != nil || !stats.TimedOut || stats.Nodes > 1 {
		t.Fatalf("Solve = %v (model %v), stats %+v; want Unknown, TimedOut, ≤ 1 node", st, m, stats)
	}
}
