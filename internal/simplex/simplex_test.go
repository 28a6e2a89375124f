package simplex

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"staub/internal/poly"
)

// atom builds coeffs·vars + k ⋈ 0.
func atom(rel poly.Rel, k int64, terms map[string]int64) poly.Atom {
	p := poly.Const(big.NewRat(k, 1))
	for v, c := range terms {
		p.AddInPlace(poly.Var(v), big.NewRat(c, 1))
	}
	return poly.Atom{P: p, Rel: rel}
}

func mustAdd(t *testing.T, s *Solver, a poly.Atom) {
	t.Helper()
	if err := s.AddAtom(a); err != nil {
		t.Fatalf("AddAtom(%v): %v", a, err)
	}
}

func checkModel(t *testing.T, s *Solver, atoms []poly.Atom) {
	t.Helper()
	m := s.Model()
	for _, a := range atoms {
		ok, err := a.Holds(m)
		if err != nil {
			t.Fatalf("Holds(%v): %v", a, err)
		}
		if !ok {
			t.Fatalf("model %v violates %v", m, a)
		}
	}
}

func TestFeasibleSystem(t *testing.T) {
	// x + y <= 10, x - y <= 2, x >= 1, y >= 1
	s := New()
	atoms := []poly.Atom{
		atom(poly.RelLe, -10, map[string]int64{"x": 1, "y": 1}),
		atom(poly.RelLe, -2, map[string]int64{"x": 1, "y": -1}),
		atom(poly.RelLe, 1, map[string]int64{"x": -1}),
		atom(poly.RelLe, 1, map[string]int64{"y": -1}),
	}
	for _, a := range atoms {
		mustAdd(t, s, a)
	}
	if got := s.Check(); got != Sat {
		t.Fatalf("Check() = %v, want Sat", got)
	}
	checkModel(t, s, atoms)
}

func TestInfeasibleSystem(t *testing.T) {
	// x + y <= 1, x >= 1, y >= 1
	s := New()
	mustAdd(t, s, atom(poly.RelLe, -1, map[string]int64{"x": 1, "y": 1}))
	mustAdd(t, s, atom(poly.RelLe, 1, map[string]int64{"x": -1}))
	mustAdd(t, s, atom(poly.RelLe, 1, map[string]int64{"y": -1}))
	if got := s.Check(); got != Unsat {
		t.Fatalf("Check() = %v, want Unsat", got)
	}
}

func TestStrictInequality(t *testing.T) {
	// x < 1 and x > 0 has rational solutions.
	s := New()
	atoms := []poly.Atom{
		atom(poly.RelLt, -1, map[string]int64{"x": 1}),
		atom(poly.RelLt, 0, map[string]int64{"x": -1}),
	}
	for _, a := range atoms {
		mustAdd(t, s, a)
	}
	if got := s.Check(); got != Sat {
		t.Fatalf("Check() = %v, want Sat", got)
	}
	checkModel(t, s, atoms)
}

func TestStrictInfeasible(t *testing.T) {
	// x < 0 and x > 0.
	s := New()
	mustAdd(t, s, atom(poly.RelLt, 0, map[string]int64{"x": 1}))
	mustAdd(t, s, atom(poly.RelLt, 0, map[string]int64{"x": -1}))
	if got := s.Check(); got != Unsat {
		t.Fatalf("Check() = %v, want Unsat", got)
	}
}

func TestEqualities(t *testing.T) {
	// x + y = 4, x - y = 2  →  x=3, y=1
	s := New()
	atoms := []poly.Atom{
		atom(poly.RelEq, -4, map[string]int64{"x": 1, "y": 1}),
		atom(poly.RelEq, -2, map[string]int64{"x": 1, "y": -1}),
	}
	for _, a := range atoms {
		mustAdd(t, s, a)
	}
	if got := s.Check(); got != Sat {
		t.Fatalf("Check() = %v, want Sat", got)
	}
	m := s.Model()
	if m["x"].Cmp(big.NewRat(3, 1)) != 0 || m["y"].Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("model = %v, want x=3, y=1", m)
	}
}

func TestConstantAtoms(t *testing.T) {
	s := New()
	mustAdd(t, s, atom(poly.RelLe, 1, nil)) // 1 <= 0
	if got := s.Check(); got != Unsat {
		t.Fatalf("Check() = %v, want Unsat", got)
	}
	s2 := New()
	mustAdd(t, s2, atom(poly.RelLe, -1, nil)) // -1 <= 0
	if got := s2.Check(); got != Sat {
		t.Fatalf("Check() = %v, want Sat", got)
	}
}

func TestBoundsConflict(t *testing.T) {
	s := New()
	mustAdd(t, s, atom(poly.RelLe, -3, map[string]int64{"x": 1})) // x <= 3
	s.AssertLower(mustIndex(t, s, "x"), Int(5))
	if got := s.Check(); got != Unsat {
		t.Fatalf("Check() = %v, want Unsat", got)
	}
}

func TestClone(t *testing.T) {
	s := New()
	mustAdd(t, s, atom(poly.RelLe, -10, map[string]int64{"x": 1, "y": 1}))
	mustAdd(t, s, atom(poly.RelLe, 0, map[string]int64{"y": -1})) // y >= 0
	c := s.Clone()
	c.AssertLower(mustIndex(t, c, "x"), Int(100))
	if got := c.Check(); got != Unsat {
		t.Fatalf("clone Check() = %v, want Unsat", got)
	}
	if got := s.Check(); got != Sat {
		t.Fatalf("original Check() = %v, want Sat (clone mutated parent)", got)
	}
}

// TestRandomSystemsAgainstGridSearch cross-checks simplex with a brute
// force search over a small integer grid: whenever grid search finds a
// solution, simplex must report Sat (and its model must satisfy all
// atoms); when simplex reports Unsat the grid must be empty.
func TestRandomSystemsAgainstGridSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vars := []string{"x", "y"}
	for iter := 0; iter < 150; iter++ {
		nAtoms := 1 + rng.Intn(5)
		atoms := make([]poly.Atom, nAtoms)
		s := New()
		for i := range atoms {
			terms := map[string]int64{}
			for _, v := range vars {
				terms[v] = int64(rng.Intn(7) - 3)
			}
			rel := []poly.Rel{poly.RelLe, poly.RelLt, poly.RelEq}[rng.Intn(3)]
			atoms[i] = atom(rel, int64(rng.Intn(11)-5), terms)
			mustAdd(t, s, atoms[i])
		}
		gridSat := false
	grid:
		for x := -6; x <= 6; x++ {
			for y := -6; y <= 6; y++ {
				m := map[string]*big.Rat{"x": big.NewRat(int64(x), 1), "y": big.NewRat(int64(y), 1)}
				all := true
				for _, a := range atoms {
					ok, _ := a.Holds(m)
					if !ok {
						all = false
						break
					}
				}
				if all {
					gridSat = true
					break grid
				}
			}
		}
		got := s.Check()
		if gridSat && got != Sat {
			t.Fatalf("iter %d: grid found a solution but Check() = %v (atoms %v)", iter, got, atoms)
		}
		if got == Sat {
			checkModel(t, s, atoms)
		}
		if got == Unknown {
			t.Fatalf("iter %d: Check() = Unknown", iter)
		}
	}
}

func TestNumOrdering(t *testing.T) {
	a := Int(1)
	b := NumOf(big.NewRat(1, 1), big.NewRat(-1, 1)) // 1 - δ
	c := NumOf(big.NewRat(1, 1), big.NewRat(1, 1))  // 1 + δ
	if !(b.Cmp(a) < 0 && a.Cmp(c) < 0) {
		t.Errorf("δ ordering broken: %v < %v < %v expected", b, a, c)
	}
	if got := b.Resolve(big.NewRat(1, 4)); got.Cmp(big.NewRat(3, 4)) != 0 {
		t.Errorf("Resolve = %v, want 3/4", got)
	}
}

// TestLargeCaseMemoryFollowsNonzeros loads a few thousand three-variable
// atoms, checks them (with a pivot for every other atom), and clones the
// solver as a deep branch-and-bound path would: the bytes allocated must
// follow the variables and the tableau's nonzeros, not rows × variables
// as a dense tableau's would (about 590 MB here).
func TestLargeCaseMemoryFollowsNonzeros(t *testing.T) {
	const n, clones = 3000, 50
	atoms := make([]poly.Atom, n)
	for i := range atoms {
		// Each block of three variables carries two atoms:
		// a + 2b − c ≥ 1, violated at 0 so that Check pivots, and
		// a − b + c ≤ 10.
		b := 3 * (i / 2)
		x := func(j int) string { return fmt.Sprintf("x%d", b+j) }
		if i%2 == 0 {
			atoms[i] = atom(poly.RelLe, 1, map[string]int64{x(0): -1, x(1): -2, x(2): 1})
		} else {
			atoms[i] = atom(poly.RelLe, -10, map[string]int64{x(0): 1, x(1): -1, x(2): 1})
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := New()
	for _, a := range atoms {
		mustAdd(t, s, a)
	}
	if got := s.Check(); got != Sat {
		t.Fatalf("Check() = %v, want Sat", got)
	}
	keep := make([]*Solver, clones)
	for i := range keep {
		keep[i] = s.Clone()
	}
	runtime.ReadMemStats(&after)
	nonzeros := 0
	for _, row := range s.rows {
		nonzeros += len(row)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	// Per clone: a varState per variable, each row's entries and header;
	// load and Check stay within a few clones' worth.
	limit := uint64(clones+4) * uint64(200*len(s.vars)+64*nonzeros+32*len(s.rows))
	t.Logf("%d rows, %d variables, %d nonzeros: %d bytes for load, Check and %d clones (limit %d)", len(s.rows), len(s.vars), nonzeros, bytes, clones, limit)
	if bytes > limit {
		t.Fatalf("allocated %d bytes, want ≤ %d", bytes, limit)
	}
	checkModel(t, keep[clones-1], atoms)
}
