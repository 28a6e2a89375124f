package simplex

// This file keeps the map-based big.Rat simplex that the incremental
// Solver replaced, unchanged apart from its names and the onPivot hook,
// as the oracle of the differential tests: it recomputes every basic
// value from scratch on each iteration, so agreement with it pins the
// incremental Solver's statuses, pivots, values and models.

import (
	"fmt"
	"math/big"
	"sort"

	"staub/internal/poly"
)

// refNum is a δ-rational a + b·δ.
type refNum struct {
	A *big.Rat // standard part
	B *big.Rat // infinitesimal coefficient
}

// refNumOf returns a + b·δ.
func refNumOf(a, b *big.Rat) refNum {
	return refNum{A: new(big.Rat).Set(a), B: new(big.Rat).Set(b)}
}

// Rat returns the δ-free rational r.
func refRat(r *big.Rat) refNum { return refNumOf(r, new(big.Rat)) }

// Int returns the δ-free integer value v.
func refInt(v int64) refNum { return refRat(big.NewRat(v, 1)) }

// Zero returns 0.
func refZero() refNum { return refInt(0) }

// Cmp compares lexicographically: the standard part dominates.
func (n refNum) Cmp(o refNum) int {
	if c := n.A.Cmp(o.A); c != 0 {
		return c
	}
	return n.B.Cmp(o.B)
}

// Add returns n + o.
func (n refNum) Add(o refNum) refNum {
	return refNum{A: new(big.Rat).Add(n.A, o.A), B: new(big.Rat).Add(n.B, o.B)}
}

// Sub returns n - o.
func (n refNum) Sub(o refNum) refNum {
	return refNum{A: new(big.Rat).Sub(n.A, o.A), B: new(big.Rat).Sub(n.B, o.B)}
}

// Scale returns c * n for rational c.
func (n refNum) Scale(c *big.Rat) refNum {
	return refNum{A: new(big.Rat).Mul(n.A, c), B: new(big.Rat).Mul(n.B, c)}
}

// Resolve substitutes a concrete value for δ.
func (n refNum) Resolve(delta *big.Rat) *big.Rat {
	out := new(big.Rat).Mul(n.B, delta)
	return out.Add(out, n.A)
}

func (n refNum) String() string {
	if n.B.Sign() == 0 {
		return n.A.RatString()
	}
	return fmt.Sprintf("%s%+sδ", n.A.RatString(), n.B.RatString())
}

// refBound is an optional δ-rational bound.
type refBound struct {
	val refNum
	set bool
}

func (b refBound) String() string {
	if !b.set {
		return "∞"
	}
	return b.val.String()
}

// refSolver decides conjunctions of linear atoms over the rationals. Atoms
// are added with AddAtom (and AssertBounds for branch-and-bound); Check
// runs the general simplex. Solvers are single-goal but cheap to Clone for
// tree search.
type refSolver struct {
	names   []string       // index → variable name ("" for slacks)
	index   map[string]int // structural variable name → index
	rows    map[int]map[int]*big.Rat
	lower   []refBound
	upper   []refBound
	beta    []refNum
	isBasic []bool
	atoms   []poly.Atom // retained for δ resolution

	// PivotLimit bounds the number of pivots per Check; 0 means the
	// default. Exceeding it yields Unknown.
	PivotLimit int

	onPivot func(leaving, entering int) // test hook
}

// New returns an empty solver.
func newRef() *refSolver {
	return &refSolver{index: map[string]int{}, rows: map[int]map[int]*big.Rat{}}
}

// Clone returns an independent deep copy (for branch-and-bound).
func (s *refSolver) Clone() *refSolver {
	out := &refSolver{
		names:      append([]string(nil), s.names...),
		index:      make(map[string]int, len(s.index)),
		rows:       make(map[int]map[int]*big.Rat, len(s.rows)),
		lower:      append([]refBound(nil), s.lower...),
		upper:      append([]refBound(nil), s.upper...),
		beta:       append([]refNum(nil), s.beta...),
		isBasic:    append([]bool(nil), s.isBasic...),
		atoms:      append([]poly.Atom(nil), s.atoms...),
		PivotLimit: s.PivotLimit,
		onPivot:    s.onPivot,
	}
	for k, v := range s.index {
		out.index[k] = v
	}
	for r, row := range s.rows {
		nr := make(map[int]*big.Rat, len(row))
		for c, coef := range row {
			nr[c] = new(big.Rat).Set(coef)
		}
		out.rows[r] = nr
	}
	return out
}

func (s *refSolver) varIndex(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	i := s.newVar(name)
	s.index[name] = i
	return i
}

func (s *refSolver) newVar(name string) int {
	i := len(s.names)
	s.names = append(s.names, name)
	s.lower = append(s.lower, refBound{})
	s.upper = append(s.upper, refBound{})
	s.beta = append(s.beta, refZero())
	s.isBasic = append(s.isBasic, false)
	return i
}

// AddAtom adds a linear atom p ⋈ 0. RelNe atoms are rejected (callers
// case-split them).
func (s *refSolver) AddAtom(a poly.Atom) error {
	if !a.P.IsLinear() {
		return fmt.Errorf("simplex: nonlinear atom %v", a)
	}
	if a.Rel == poly.RelNe {
		return fmt.Errorf("simplex: disequality atom %v requires a case split", a)
	}
	s.atoms = append(s.atoms, a)

	// Build the row Σ c_i x_i; the constant moves to the bound side.
	// Monomials are visited in sorted order: variable indices are assigned
	// on first sight, and Bland's rule pivots by index, so the iteration
	// order here must not depend on map order.
	constPart := a.P.ConstPart()
	monos := make([]string, 0, len(a.P))
	for m := range a.P {
		if m == "" {
			continue
		}
		monos = append(monos, string(m))
	}
	sort.Strings(monos)
	row := map[int]*big.Rat{}
	for _, m := range monos {
		vi := s.varIndex(m)
		row[vi] = new(big.Rat).Set(a.P[poly.Monomial(m)])
	}

	// Single-variable atoms tighten bounds directly.
	if len(row) == 1 {
		for vi, c := range row {
			// c*x + k ⋈ 0  →  x ⋈' -k/c
			rhs := new(big.Rat).Neg(constPart)
			rhs.Quo(rhs, c)
			flip := c.Sign() < 0
			s.assertAtomBound(vi, a.Rel, rhs, flip)
		}
		return nil
	}

	// General atom: introduce a slack basic variable equal to the linear
	// part.
	si := s.newVar("")
	s.isBasic[si] = true
	s.rows[si] = row
	rhs := new(big.Rat).Neg(constPart)
	s.assertAtomBound(si, a.Rel, rhs, false)
	return nil
}

// assertAtomBound applies "expr ⋈ rhs" (or flipped when the coefficient
// was negative) to variable vi.
func (s *refSolver) assertAtomBound(vi int, rel poly.Rel, rhs *big.Rat, flip bool) {
	switch rel {
	case poly.RelEq:
		s.tightenLower(vi, refRat(rhs))
		s.tightenUpper(vi, refRat(rhs))
	case poly.RelLe:
		if flip {
			s.tightenLower(vi, refRat(rhs))
		} else {
			s.tightenUpper(vi, refRat(rhs))
		}
	case poly.RelLt:
		if flip {
			s.tightenLower(vi, refNumOf(rhs, big.NewRat(1, 1)))
		} else {
			s.tightenUpper(vi, refNumOf(rhs, big.NewRat(-1, 1)))
		}
	}
}

// AssertLower adds name >= v (δ-free) for branch-and-bound.
func (s *refSolver) AssertLower(name string, v *big.Rat) {
	s.tightenLower(s.varIndex(name), refRat(v))
}

// AssertUpper adds name <= v (δ-free) for branch-and-bound.
func (s *refSolver) AssertUpper(name string, v *big.Rat) {
	s.tightenUpper(s.varIndex(name), refRat(v))
}

func (s *refSolver) tightenLower(vi int, v refNum) {
	if !s.lower[vi].set || v.Cmp(s.lower[vi].val) > 0 {
		s.lower[vi] = refBound{val: v, set: true}
	}
	if !s.isBasic[vi] && s.beta[vi].Cmp(s.lower[vi].val) < 0 {
		s.beta[vi] = s.lower[vi].val
	}
}

func (s *refSolver) tightenUpper(vi int, v refNum) {
	if !s.upper[vi].set || v.Cmp(s.upper[vi].val) < 0 {
		s.upper[vi] = refBound{val: v, set: true}
	}
	if !s.isBasic[vi] && s.beta[vi].Cmp(s.upper[vi].val) > 0 {
		s.beta[vi] = s.upper[vi].val
	}
}

// computeBasics recomputes β for every basic variable from the rows.
func (s *refSolver) computeBasics() {
	for bi, row := range s.rows {
		sum := refZero()
		for vi, c := range row {
			sum = sum.Add(s.beta[vi].Scale(c))
		}
		s.beta[bi] = sum
	}
}

// Check runs the simplex and returns the feasibility status.
func (s *refSolver) Check() Status {
	// Bound sanity: a variable with lower > upper is immediately unsat.
	for vi := range s.names {
		if s.lower[vi].set && s.upper[vi].set && s.lower[vi].val.Cmp(s.upper[vi].val) > 0 {
			return Unsat
		}
	}
	limit := s.PivotLimit
	if limit == 0 {
		limit = 20000
	}
	for iter := 0; iter < limit; iter++ {
		s.computeBasics()
		// Find the smallest-index violating basic variable (Bland).
		viol, below := -1, false
		keys := make([]int, 0, len(s.rows))
		for bi := range s.rows {
			keys = append(keys, bi)
		}
		sort.Ints(keys)
		for _, bi := range keys {
			if s.lower[bi].set && s.beta[bi].Cmp(s.lower[bi].val) < 0 {
				viol, below = bi, true
				break
			}
			if s.upper[bi].set && s.beta[bi].Cmp(s.upper[bi].val) > 0 {
				viol, below = bi, false
				break
			}
		}
		if viol < 0 {
			return Sat
		}
		if !s.pivotFor(viol, below) {
			return Unsat
		}
	}
	return Unknown
}

// pivotFor finds an entering variable to fix the violated basic variable
// and pivots; it returns false when no entering variable exists (the
// constraint system is infeasible).
func (s *refSolver) pivotFor(bi int, below bool) bool {
	row := s.rows[bi]
	cols := make([]int, 0, len(row))
	for vi := range row {
		cols = append(cols, vi)
	}
	sort.Ints(cols)
	for _, vi := range cols {
		c := row[vi]
		var canFix bool
		if below {
			// Need to increase x_bi: increase vi if c > 0 and vi below its
			// upper bound, or decrease vi if c < 0 and vi above its lower.
			canFix = (c.Sign() > 0 && (!s.upper[vi].set || s.beta[vi].Cmp(s.upper[vi].val) < 0)) ||
				(c.Sign() < 0 && (!s.lower[vi].set || s.beta[vi].Cmp(s.lower[vi].val) > 0))
		} else {
			canFix = (c.Sign() > 0 && (!s.lower[vi].set || s.beta[vi].Cmp(s.lower[vi].val) > 0)) ||
				(c.Sign() < 0 && (!s.upper[vi].set || s.beta[vi].Cmp(s.upper[vi].val) < 0))
		}
		if !canFix {
			continue
		}
		target := s.lower[bi].val
		if !below {
			target = s.upper[bi].val
		}
		s.pivot(bi, vi, target)
		return true
	}
	return false
}

// pivot makes vi basic and bi nonbasic, setting bi's value to target and
// solving bi's row for vi.
func (s *refSolver) pivot(bi, vi int, target refNum) {
	if s.onPivot != nil {
		s.onPivot(bi, vi)
	}
	row := s.rows[bi]
	a := row[vi]
	inv := new(big.Rat).Inv(a)

	// x_bi = Σ c_j x_j  →  x_vi = (x_bi - Σ_{j≠vi} c_j x_j) / a
	newRow := map[int]*big.Rat{bi: new(big.Rat).Set(inv)}
	for j, c := range row {
		if j == vi {
			continue
		}
		nc := new(big.Rat).Mul(c, inv)
		nc.Neg(nc)
		newRow[j] = nc
	}
	delete(s.rows, bi)
	s.rows[vi] = newRow
	s.isBasic[bi] = false
	s.isBasic[vi] = true
	s.beta[bi] = target

	// Substitute x_vi in every other row.
	for r, rr := range s.rows {
		if r == vi {
			continue
		}
		c, ok := rr[vi]
		if !ok {
			continue
		}
		delete(rr, vi)
		for j, nc := range newRow {
			t := new(big.Rat).Mul(c, nc)
			if old, ok := rr[j]; ok {
				old.Add(old, t)
				if old.Sign() == 0 {
					delete(rr, j)
				}
			} else if t.Sign() != 0 {
				rr[j] = t
			}
		}
	}
}

// Model extracts a rational model after Sat, resolving δ to a concrete
// positive rational small enough that every atom holds.
func (s *refSolver) Model() map[string]*big.Rat {
	s.computeBasics()
	delta := big.NewRat(1, 1)
	for tries := 0; tries < 128; tries++ {
		model := map[string]*big.Rat{}
		for name, vi := range s.index {
			model[name] = s.beta[vi].Resolve(delta)
		}
		ok := true
		for _, a := range s.atoms {
			holds, err := a.Holds(model)
			if err != nil || !holds {
				ok = false
				break
			}
		}
		if ok {
			return model
		}
		delta.Quo(delta, big.NewRat(2, 1))
	}
	// δ resolution failed (should not happen for a Sat tableau); return
	// the standard parts.
	model := map[string]*big.Rat{}
	for name, vi := range s.index {
		model[name] = new(big.Rat).Set(s.beta[vi].A)
	}
	return model
}

// VarNames returns the structural variable names known to the solver.
func (s *refSolver) VarNames() []string {
	out := make([]string, 0, len(s.index))
	for n := range s.index {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Value returns the current δ-rational value of a structural variable.
func (s *refSolver) Value(name string) (refNum, bool) {
	vi, ok := s.index[name]
	if !ok {
		return refZero(), false
	}
	s.computeBasics()
	return s.beta[vi], true
}
