package simplex

import (
	"fmt"
	"math/big"
	"sort"
	"sync/atomic"

	"staub/internal/poly"
)

// Status is a simplex outcome.
type Status int

// Outcomes of Check.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// defaultPivotLimit bounds the pivots of one Check when PivotLimit is 0.
const defaultPivotLimit = 20000

// Solver decides conjunctions of linear atoms over the rationals. Atoms
// are added with AddAtom (and bounds with AssertLower/AssertUpper for
// branch-and-bound); Check runs the general simplex. Solvers are
// single-goal but cheap to Clone for tree search.
type Solver struct {
	// index and forms only grow. Clones share them: a shared index is
	// copied before its first new name, and a clone's forms have their
	// capacity clipped so that an append copies.
	index    map[string]int // structural variable name → variable index
	ownIndex bool           // index is not shared with a clone
	forms    []atomForm     // every atom, as one variable's bound

	vars []varState
	// The tableau: rows[r] holds the nonzero coefficients of basic
	// variable basic[r] over the nonbasic columns, sorted by column. No two
	// rows share backing storage within their capacity, so a row may be
	// rewritten in place.
	rows  [][]entry
	basic []int

	tmp []entry // scratch for rewriting a row

	// PivotLimit bounds the number of pivots per Check; 0 means the
	// default. Exceeding it yields Unknown.
	PivotLimit int
	// Interrupt, when set, makes Check return Unknown before its next
	// pivot (one atomic load per pivot; nil: never).
	Interrupt *atomic.Bool

	onPivot func(leaving, entering int) // test hook
}

// varState is one variable's bounds, value and tableau row.
type varState struct {
	lower, upper bound
	beta         Num
	row          int // the variable's tableau row when basic, else -1
}

// entry is one nonzero tableau coefficient.
type entry struct {
	col int
	c   rat
}

// atomForm is an atom restated on one variable: c·x + k ⋈ 0, where x is
// the atom's only variable or the slack standing for its linear part.
type atomForm struct {
	vi   int
	c, k rat
	rel  poly.Rel
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{index: map[string]int{}, ownIndex: true}
}

// Clone returns an independent copy (for branch-and-bound).
func (s *Solver) Clone() *Solver {
	out := *s
	out.forms = s.forms[:len(s.forms):len(s.forms)]
	s.ownIndex, out.ownIndex = false, false
	out.vars = append([]varState(nil), s.vars...)
	out.basic = append([]int(nil), s.basic...)
	// Every row keeps its capacity, carved from one buffer, so the clone
	// grows its rows no more often than s does.
	n := 0
	for _, row := range s.rows {
		n += cap(row)
	}
	buf := make([]entry, n)
	out.rows = make([][]entry, len(s.rows))
	for r, row := range s.rows {
		copy(buf, row)
		out.rows[r], buf = buf[:len(row):cap(row)], buf[cap(row):]
	}
	out.tmp = nil
	return &out
}

func (s *Solver) varIndex(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	if !s.ownIndex {
		index := make(map[string]int, len(s.index)+1)
		for k, v := range s.index {
			index[k] = v
		}
		s.index, s.ownIndex = index, true
	}
	i := s.newVar()
	s.index[name] = i
	return i
}

// newVar adds a nonbasic variable at 0.
func (s *Solver) newVar() int {
	s.vars = append(s.vars, varState{row: -1})
	return len(s.vars) - 1
}

// find returns the position of column vi in row, or where it would be
// inserted, and whether it is there.
func find(row []entry, vi int) (int, bool) {
	lo, hi := 0, len(row)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if row[m].col < vi {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(row) && row[lo].col == vi
}

// axpy appends x + c·y to out, dropping column skip of x and every zero,
// and returns it; x and y are rows.
func axpy(out, x []entry, skip int, c rat, y []entry) []entry {
	i, j := 0, 0
	for i < len(x) || j < len(y) {
		switch {
		case j == len(y) || i < len(x) && x[i].col < y[j].col:
			if x[i].col != skip {
				out = append(out, x[i])
			}
			i++
		case i == len(x) || y[j].col < x[i].col:
			if v := c.mul(y[j].c); v.sign() != 0 {
				out = append(out, entry{y[j].col, v})
			}
			j++
		default:
			if v := x[i].c.add(c.mul(y[j].c)); v.sign() != 0 {
				out = append(out, entry{x[i].col, v})
			}
			i++
			j++
		}
	}
	return out
}

// AddAtom adds a linear atom p ⋈ 0. RelNe atoms are rejected (callers
// case-split them).
func (s *Solver) AddAtom(a poly.Atom) error {
	if !a.P.IsLinear() {
		return fmt.Errorf("simplex: nonlinear atom %v", a)
	}
	if a.Rel == poly.RelNe {
		return fmt.Errorf("simplex: disequality atom %v requires a case split", a)
	}
	k := ratOf(a.P.ConstPart())

	// Monomials are visited in sorted order: variable indices are assigned
	// on first sight, and Bland's rule pivots by index, so the iteration
	// order here must not depend on map order.
	monos := make([]string, 0, len(a.P))
	for m := range a.P {
		if m != "" {
			monos = append(monos, string(m))
		}
	}
	sort.Strings(monos)
	vis := make([]int, len(monos))
	for i, m := range monos {
		vis[i] = s.varIndex(m)
	}

	// Single-variable atoms tighten bounds directly: c·x + k ⋈ 0 becomes
	// x ⋈' -k/c.
	if len(monos) == 1 {
		c := ratOf(a.P[poly.Monomial(monos[0])])
		s.forms = append(s.forms, atomForm{vi: vis[0], c: c, k: k, rel: a.Rel})
		s.assertAtomBound(vis[0], a.Rel, k.neg().quo(c), c.sign() < 0)
		return nil
	}

	// General atom: a basic slack variable equal to the linear part, its
	// row written over the nonbasic variables and its value β consistent
	// with theirs from the start.
	var row []entry
	var beta Num
	for i, m := range monos {
		c, vi := ratOf(a.P[poly.Monomial(m)]), vis[i]
		beta = beta.addScaled(c, s.vars[vi].beta)
		y := []entry{{col: vi, c: ratInt(1)}}
		if br := s.vars[vi].row; br >= 0 {
			y = s.rows[br]
		}
		row = axpy(nil, row, -1, c, y)
	}
	si := s.newVar()
	r := len(s.basic)
	s.basic = append(s.basic, si)
	s.rows = append(s.rows, row)
	s.vars[si].row, s.vars[si].beta = r, beta
	s.forms = append(s.forms, atomForm{vi: si, c: ratInt(1), k: k, rel: a.Rel})
	s.assertAtomBound(si, a.Rel, k.neg(), false)
	return nil
}

// assertAtomBound applies "expr ⋈ rhs" (or flipped when the coefficient
// was negative) to variable vi.
func (s *Solver) assertAtomBound(vi int, rel poly.Rel, rhs rat, flip bool) {
	switch rel {
	case poly.RelEq:
		s.tightenLower(vi, Num{a: rhs})
		s.tightenUpper(vi, Num{a: rhs})
	case poly.RelLe:
		if flip {
			s.tightenLower(vi, Num{a: rhs})
		} else {
			s.tightenUpper(vi, Num{a: rhs})
		}
	case poly.RelLt:
		if flip {
			s.tightenLower(vi, Num{a: rhs, b: ratInt(1)})
		} else {
			s.tightenUpper(vi, Num{a: rhs, b: ratInt(-1)})
		}
	}
}

// Index returns the index of a structural variable.
func (s *Solver) Index(name string) (int, bool) {
	vi, ok := s.index[name]
	return vi, ok
}

// AssertLower adds x_vi >= v for a variable index from Index (a
// branch-and-bound bound).
func (s *Solver) AssertLower(vi int, v Num) { s.tightenLower(vi, v) }

// AssertUpper adds x_vi <= v for a variable index from Index.
func (s *Solver) AssertUpper(vi int, v Num) { s.tightenUpper(vi, v) }

func (s *Solver) tightenLower(vi int, v Num) {
	x := &s.vars[vi]
	if !x.lower.set || v.Cmp(x.lower.val) > 0 {
		x.lower = bound{val: v, set: true}
	}
	if x.row < 0 && x.beta.Cmp(x.lower.val) < 0 {
		s.update(vi, x.lower.val)
	}
}

func (s *Solver) tightenUpper(vi int, v Num) {
	x := &s.vars[vi]
	if !x.upper.set || v.Cmp(x.upper.val) < 0 {
		x.upper = bound{val: v, set: true}
	}
	if x.row < 0 && x.beta.Cmp(x.upper.val) > 0 {
		s.update(vi, x.upper.val)
	}
}

// update sets nonbasic x_vi to v and moves every basic variable in its
// column by c·(v - β_vi).
func (s *Solver) update(vi int, v Num) {
	d := v.Sub(s.vars[vi].beta)
	s.shift(vi, d, -1)
	s.vars[vi].beta = v
}

// shift adds c·d to each basic variable with coefficient c in column vi,
// except the one in row skip.
func (s *Solver) shift(vi int, d Num, skip int) {
	for r, row := range s.rows {
		if p, ok := find(row, vi); ok && r != skip {
			bi := s.basic[r]
			s.vars[bi].beta = s.vars[bi].beta.addScaled(row[p].c, d)
		}
	}
}

// Check runs the simplex and returns the feasibility status.
func (s *Solver) Check() Status {
	// Bound sanity: a variable with lower > upper is immediately unsat.
	for i := range s.vars {
		if x := &s.vars[i]; x.lower.set && x.upper.set && x.lower.val.Cmp(x.upper.val) > 0 {
			return Unsat
		}
	}
	limit := s.PivotLimit
	if limit == 0 {
		limit = defaultPivotLimit
	}
	for iter := 0; iter < limit; iter++ {
		if s.Interrupt != nil && s.Interrupt.Load() {
			return Unknown
		}
		bi, below := s.violated()
		if bi < 0 {
			return Sat
		}
		if !s.pivotFor(bi, below) {
			return Unsat
		}
	}
	return Unknown
}

// violated returns the smallest-index basic variable outside its bounds
// (Bland's rule), and whether it is below its lower bound; -1 when none
// is.
func (s *Solver) violated() (int, bool) {
	for vi := range s.vars {
		x := &s.vars[vi]
		if x.row < 0 {
			continue
		}
		if x.lower.set && x.beta.Cmp(x.lower.val) < 0 {
			return vi, true
		}
		if x.upper.set && x.beta.Cmp(x.upper.val) > 0 {
			return vi, false
		}
	}
	return -1, false
}

// pivotFor finds the smallest-index entering variable that can fix the
// violated basic variable and pivots; it returns false when none exists
// (the constraint system is infeasible).
func (s *Solver) pivotFor(bi int, below bool) bool {
	for _, e := range s.rows[s.vars[bi].row] {
		vi, c := e.col, e.c
		// Fixing x_bi moves vi up when it must increase and c > 0 or
		// decrease and c < 0, down otherwise; vi must have room to move.
		x := &s.vars[vi]
		if below == (c.sign() > 0) {
			if x.upper.set && x.beta.Cmp(x.upper.val) >= 0 {
				continue
			}
		} else if x.lower.set && x.beta.Cmp(x.lower.val) <= 0 {
			continue
		}
		target := s.vars[bi].upper.val
		if below {
			target = s.vars[bi].lower.val
		}
		s.pivot(bi, vi, target)
		return true
	}
	return false
}

// pivot makes vi basic and bi nonbasic at target. It first moves vi by
// θ = (target - β_bi)/a, which brings x_bi to target and every other basic
// variable along its column, then solves bi's row for vi and substitutes
// that row into every other row.
func (s *Solver) pivot(bi, vi int, target Num) {
	if s.onPivot != nil {
		s.onPivot(bi, vi)
	}
	r := s.vars[bi].row
	row := s.rows[r]
	p, _ := find(row, vi)
	inv := row[p].c.inv()
	theta := target.Sub(s.vars[bi].beta).scale(inv)
	s.shift(vi, theta, r)
	s.vars[vi].beta = s.vars[vi].beta.Add(theta)
	s.vars[bi].beta = target

	// x_bi = a·x_vi + Σ c_j x_j  →  x_vi = x_bi/a - Σ (c_j/a) x_j. The
	// row keeps its length: column vi leaves it and column bi enters.
	ninv := inv.neg()
	out := s.tmp[:0]
	placed := false
	for k, e := range row {
		if !placed && e.col > bi {
			out = append(out, entry{bi, inv})
			placed = true
		}
		if k != p {
			out = append(out, entry{e.col, e.c.mul(ninv)})
		}
	}
	if !placed {
		out = append(out, entry{bi, inv})
	}
	copy(row, out)
	s.basic[r] = vi
	s.vars[vi].row, s.vars[bi].row = r, -1

	for r2, other := range s.rows {
		q, ok := find(other, vi)
		if r2 == r || !ok {
			continue
		}
		out = axpy(out[:0], other, vi, other[q].c, row)
		if len(out) > cap(other) {
			other = make([]entry, len(out), 2*len(out))
		}
		s.rows[r2] = other[:len(out)]
		copy(s.rows[r2], out)
	}
	s.tmp = out
}

// delta returns the δ of Model: the first of 1, 1/2, 1/4, … (128 tries)
// under which every atom holds, or ok=false when none does.
func (s *Solver) delta() (rat, bool) {
	d, half := ratInt(1), rat{num: 1, dm1: 1}
	for tries := 0; tries < 128; tries++ {
		if s.formsHold(d) {
			return d, true
		}
		d = d.mul(half)
	}
	return rat{}, false
}

// formsHold reports whether every atom holds with δ resolved to d.
func (s *Solver) formsHold(d rat) bool {
	for _, f := range s.forms {
		v := f.c.mul(s.vars[f.vi].beta.resolve(d)).add(f.k)
		switch f.rel {
		case poly.RelEq:
			if v.sign() != 0 {
				return false
			}
		case poly.RelLe:
			if v.sign() > 0 {
				return false
			}
		case poly.RelLt:
			if v.sign() >= 0 {
				return false
			}
		}
	}
	return true
}

// modelValue returns x_vi in Model, given what delta returned.
func (s *Solver) modelValue(vi int, d rat, ok bool) rat {
	if !ok {
		// δ resolution failed (should not happen for a Sat tableau): the
		// standard part.
		return s.vars[vi].beta.a
	}
	return s.vars[vi].beta.resolve(d)
}

// Model extracts a rational model after Sat, resolving δ to a concrete
// positive rational small enough that every atom holds.
func (s *Solver) Model() map[string]*big.Rat {
	d, ok := s.delta()
	model := make(map[string]*big.Rat, len(s.index))
	for name, vi := range s.index {
		model[name] = s.modelValue(vi, d, ok).toBig()
	}
	return model
}

// FirstFractional returns the first of the given variables (indices from
// Index) whose value in Model is not an integer, and the floor of that
// value; -1 when every one is integral.
func (s *Solver) FirstFractional(vars []int) (int, Num) {
	d, ok := s.delta()
	for _, vi := range vars {
		if v := s.modelValue(vi, d, ok); !v.isInt() {
			return vi, Num{a: v.floor()}
		}
	}
	return -1, Num{}
}

// VarNames returns the structural variable names known to the solver.
func (s *Solver) VarNames() []string {
	out := make([]string, 0, len(s.index))
	for n := range s.index {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
