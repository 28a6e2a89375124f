// Package intsolver decides constraints over the unbounded theory of
// integers: the linear fragment (QF_LIA) with branch-and-bound over an
// exact rational simplex relaxation, and the nonlinear fragment (QF_NIA)
// with interval branch-and-prune plus iterative-deepening search.
//
// QF_NIA satisfiability is undecidable, so the nonlinear engine is
// necessarily incomplete: it proves unsat only when interval reasoning
// bounds the search space, and otherwise deepens the search radius until
// the budget expires. That cost profile — fast on small-solution
// instances, increasingly slow as solutions grow, budget-bound on unsat —
// is exactly the behaviour of unbounded solvers that STAUB's theory
// arbitrage exploits. The nonlinear search runs on an int64 kernel
// (kernel.go) that visits the same nodes as the big.Rat reference and
// falls back to it wherever machine integers could overflow.
package intsolver

import (
	"math/big"
	"sync/atomic"
	"time"

	"staub/internal/eval"
	"staub/internal/interval"
	"staub/internal/poly"
	"staub/internal/simplex"
	"staub/internal/smt"
	"staub/internal/status"
)

// Params configures a solve call.
type Params struct {
	// Deadline aborts the search when passed (zero: none).
	Deadline time.Time
	// Interrupt aborts the search when it becomes true (nil: none).
	Interrupt *atomic.Bool
	// MaxBranchDepth bounds LIA branch-and-bound recursion (default 200).
	MaxBranchDepth int
	// MaxRadius bounds the NIA iterative-deepening search radius
	// (default 1<<20).
	MaxRadius int64
	// RadiusFactor is the deepening multiplier (default 2).
	RadiusFactor int64
	// MaxDNFCases bounds boolean-structure expansion (default 64).
	MaxDNFCases int
	// NodeBudget bounds total search nodes (default 10M).
	NodeBudget int64
	// Prune enables per-node interval refutation during nonlinear search.
	// It is off by default: mainstream solvers' nonlinear engines
	// (incremental linearization, NLSat) do not behave like interval
	// solvers, and the honest enumeration profile — exponential in the
	// magnitude of the smallest solution — is the cost structure the
	// paper's theory arbitrage exploits. Root-level refutation always
	// runs regardless.
	Prune bool
}

func (p Params) withDefaults() Params {
	if p.MaxBranchDepth == 0 {
		p.MaxBranchDepth = 200
	}
	if p.MaxRadius == 0 {
		p.MaxRadius = 1 << 20
	}
	if p.RadiusFactor < 2 {
		p.RadiusFactor = 2
	}
	if p.MaxDNFCases == 0 {
		p.MaxDNFCases = 64
	}
	if p.NodeBudget == 0 {
		p.NodeBudget = 10_000_000
	}
	return p
}

// Stats reports search effort.
type Stats struct {
	Nodes    int64
	Cases    int
	TimedOut bool
}

type searchState struct {
	params   Params
	nodes    int64
	timedOut bool
}

func (st *searchState) spend(n int64) bool {
	if st.timedOut {
		return false
	}
	st.nodes += n
	if st.nodes > st.params.NodeBudget {
		st.timedOut = true
		return false
	}
	// The interrupt is polled on every call (one atomic load; a node can
	// be a whole simplex check), the wall clock only every 256 nodes.
	if st.params.Interrupt != nil && st.params.Interrupt.Load() {
		st.timedOut = true
		return false
	}
	if st.nodes%256 < n && !st.params.Deadline.IsZero() && time.Now().After(st.params.Deadline) {
		st.timedOut = true
		return false
	}
	return true
}

// Solve decides an integer constraint. The model (when Sat) assigns every
// declared variable an integer value.
func Solve(c *smt.Constraint, p Params) (status.Status, eval.Assignment, Stats) {
	p = p.withDefaults()
	st := &searchState{params: p}

	cases, err := poly.DNFConstraint(c, p.MaxDNFCases)
	if err != nil {
		return status.Unknown, nil, Stats{}
	}
	// Split disequalities up front; integers admit the strict split.
	var expanded []poly.Case
	for _, cs := range cases {
		sub, err := poly.SplitNe(cs, p.MaxDNFCases*4)
		if err != nil {
			return status.Unknown, nil, Stats{}
		}
		expanded = append(expanded, sub...)
	}

	allUnsat := true
	for _, cs := range expanded {
		res, model := solveCase(c, cs, st)
		switch res {
		case status.Sat:
			return status.Sat, model, Stats{Nodes: st.nodes, Cases: len(expanded)}
		case status.Unknown:
			allUnsat = false
		}
		if st.timedOut {
			return status.Unknown, nil, Stats{Nodes: st.nodes, Cases: len(expanded), TimedOut: true}
		}
	}
	if allUnsat {
		return status.Unsat, nil, Stats{Nodes: st.nodes, Cases: len(expanded)}
	}
	return status.Unknown, nil, Stats{Nodes: st.nodes, Cases: len(expanded), TimedOut: st.timedOut}
}

// solveCase decides one conjunction of atoms.
func solveCase(c *smt.Constraint, cs poly.Case, st *searchState) (status.Status, eval.Assignment) {
	if cs.MaxDegree() <= 1 {
		return solveLinearCase(c, cs, st)
	}
	return solveNonlinearCase(c, cs, st)
}

// solveLinearCase runs branch-and-bound over the simplex relaxation. A
// Sat answer stands only once its model satisfies the case's atoms.
func solveLinearCase(c *smt.Constraint, cs poly.Case, st *searchState) (status.Status, eval.Assignment) {
	sx := simplex.New()
	sx.Interrupt = st.params.Interrupt
	for _, a := range cs {
		if err := sx.AddAtom(a); err != nil {
			return status.Unknown, nil
		}
	}
	// The integer variables of the constraint that occur in the case, in
	// name order: branching takes the first fractional one, so the search
	// tree is deterministic.
	isInt := map[string]bool{}
	for _, v := range c.Vars {
		if v.Sort.Kind == smt.KindInt {
			isInt[v.Name] = true
		}
	}
	var ints []int
	for _, name := range sx.VarNames() {
		if isInt[name] {
			vi, _ := sx.Index(name)
			ints = append(ints, vi)
		}
	}
	res, model := branchAndBound(sx, ints, st.params.MaxBranchDepth, st)
	if res != status.Sat {
		return res, nil
	}
	if !cs.Holds(model) {
		return status.Unknown, nil
	}
	return status.Sat, completeModel(c, model)
}

// branchAndBound searches below the node sx. It owns sx: the left child
// runs on a clone and the right child on sx itself, since nothing reads
// the node after its children.
func branchAndBound(sx *simplex.Solver, ints []int, depth int, st *searchState) (status.Status, map[string]*big.Rat) {
	if !st.spend(1) {
		return status.Unknown, nil
	}
	switch sx.Check() {
	case simplex.Unsat:
		return status.Unsat, nil
	case simplex.Unknown:
		return status.Unknown, nil
	}
	vi, floor := sx.FirstFractional(ints)
	if vi < 0 {
		return status.Sat, sx.Model()
	}
	if depth <= 0 {
		return status.Unknown, nil
	}

	left := sx.Clone()
	left.AssertUpper(vi, floor)
	resL, mL := branchAndBound(left, ints, depth-1, st)
	if resL == status.Sat {
		return status.Sat, mL
	}
	sx.AssertLower(vi, floor.Add(simplex.Int(1)))
	resR, mR := branchAndBound(sx, ints, depth-1, st)
	if resR == status.Sat {
		return status.Sat, mR
	}
	if resL == status.Unsat && resR == status.Unsat {
		return status.Unsat, nil
	}
	return status.Unknown, nil
}

// solveNonlinearCase runs interval branch-and-prune with iterative
// deepening of the search radius.
func solveNonlinearCase(c *smt.Constraint, cs poly.Case, st *searchState) (status.Status, eval.Assignment) {
	vars := cs.Vars()
	if len(vars) == 0 {
		// Ground case: evaluate each atom at the empty point.
		if !cs.Holds(nil) {
			return status.Unsat, nil
		}
		return status.Sat, completeModel(c, nil)
	}

	base, refuted := rootBox(cs, vars, st.params.Interrupt)
	if refuted {
		return status.Unsat, nil
	}
	// The case compiles once; every box below searches on the int64
	// kernel when it is eligible and on the big.Rat reference otherwise.
	k := compileKernel(cs, vars)

	// If every variable is already finitely bounded, one exhaustive
	// branch-and-prune pass decides the case.
	if boxBounded(base, vars) {
		res, model := searchBox(cs, vars, base, k, st)
		if res == status.Sat {
			return status.Sat, completeModel(c, model)
		}
		return res, nil
	}

	// Iterative deepening: intersect with [-r, r]^n for growing r. A sat
	// answer is definitive; exhausting a radius only rules out that box.
	for r := int64(2); r <= st.params.MaxRadius; r *= st.params.RadiusFactor {
		res, model := searchBox(cs, vars, radiusBox(base, vars, r), k, st)
		if res == status.Sat {
			return status.Sat, completeModel(c, model)
		}
		if st.timedOut {
			return status.Unknown, nil
		}
	}
	return status.Unknown, nil
}

// rootBox returns the initial box of a nonlinear case — single-variable
// linear atoms contracted in, integers rounded — and refuted=true when
// root-level reasoning already proves the case unsat.
func rootBox(cs poly.Case, vars []string, interrupt *atomic.Bool) (box map[string]interval.Interval, refuted bool) {
	box = map[string]interval.Interval{}
	for _, v := range vars {
		box[v] = interval.Full()
	}
	contractUnitAtoms(cs, box)

	// Refutation over the (possibly unbounded) initial box proves unsat.
	for _, a := range cs {
		if a.Refuted(box) {
			return nil, true
		}
	}

	// An infeasible linear subset also refutes the case (solvers discharge
	// this with their linear core before any nonlinear reasoning).
	if linearSubsetUnsat(cs, interrupt) {
		return nil, true
	}
	return box, false
}

// radiusBox intersects base with [-r, r]^n, rounded into the integers.
func radiusBox(base map[string]interval.Interval, vars []string, r int64) map[string]interval.Interval {
	box := make(map[string]interval.Interval, len(vars))
	for _, v := range vars {
		box[v] = base[v].Intersect(interval.Of(-r, r)).RoundIntoInts()
	}
	return box
}

// searchBox decides one bounded box: on the int64 kernel when the case
// compiled (k != nil), every bound is an integer within ±2^61 and per-node
// pruning is off, on the big.Rat reference otherwise. Both visit the same
// nodes in the same order and return the same verdict and model.
func searchBox(cs poly.Case, vars []string, box map[string]interval.Interval, k *kernel, st *searchState) (status.Status, map[string]*big.Rat) {
	if k != nil && !st.params.Prune && k.load(box) {
		return k.branchPrune(st)
	}
	return branchPrune(cs, vars, box, st)
}

// linearSubsetUnsat reports whether the linear atoms of the case alone are
// infeasible over the rationals (which refutes the integer case too).
func linearSubsetUnsat(cs poly.Case, interrupt *atomic.Bool) bool {
	sx := simplex.New()
	sx.Interrupt = interrupt
	n := 0
	for _, a := range cs {
		if a.P.IsLinear() && a.Rel != poly.RelNe {
			if err := sx.AddAtom(a); err == nil {
				n++
			}
		}
	}
	return n > 0 && sx.Check() == simplex.Unsat
}

// contractUnitAtoms tightens the box using atoms over a single variable
// with degree 1 (x ⋈ c) and degree-2 squares (a*x^2 + k <= 0 style bounds
// are left to pruning).
func contractUnitAtoms(cs poly.Case, box map[string]interval.Interval) {
	for _, a := range cs {
		vars := a.P.Vars()
		if len(vars) != 1 || !a.P.IsLinear() {
			continue
		}
		name := vars[0]
		coef := a.P[poly.Monomial(name)]
		if coef == nil || coef.Sign() == 0 {
			continue
		}
		// coef*x + k ⋈ 0  →  x ⋈' rhs
		rhs := new(big.Rat).Neg(a.P.ConstPart())
		rhs.Quo(rhs, coef)
		flipped := coef.Sign() < 0
		iv := box[name]
		switch a.Rel {
		case poly.RelEq:
			iv = iv.Intersect(interval.Point(rhs))
		case poly.RelLe, poly.RelLt:
			if flipped {
				iv = iv.Intersect(interval.New(interval.Finite(rhs), interval.PosInf()))
			} else {
				iv = iv.Intersect(interval.New(interval.NegInf(), interval.Finite(rhs)))
			}
		}
		box[name] = iv
	}
	for v := range box {
		box[v] = box[v].RoundIntoInts()
	}
}

func boxBounded(box map[string]interval.Interval, vars []string) bool {
	for _, v := range vars {
		if _, ok := box[v].Width(); !ok {
			return false
		}
	}
	return true
}

// branchPrune explores the box depth-first: prune by interval refutation,
// check point boxes exactly, split the widest variable otherwise.
func branchPrune(cs poly.Case, vars []string, box map[string]interval.Interval, st *searchState) (status.Status, map[string]*big.Rat) {
	if !st.spend(1) {
		return status.Unknown, nil
	}
	for _, v := range vars {
		if box[v].Empty() {
			return status.Unsat, nil
		}
	}
	if st.params.Prune {
		for _, a := range cs {
			if a.Refuted(box) {
				return status.Unsat, nil
			}
		}
	}
	// Pick the widest non-point variable; an unbounded interval wins
	// outright (defensive: callers pass bounded boxes).
	widest := ""
	var widestW *big.Rat
	for _, v := range vars {
		w, ok := box[v].Width()
		if !ok {
			widest = v
			break
		}
		if w.Sign() > 0 && (widestW == nil || w.Cmp(widestW) > 0) {
			widest, widestW = v, w
		}
	}
	if widest == "" {
		// All variables are points: evaluate exactly.
		point := map[string]*big.Rat{}
		for _, v := range vars {
			point[v] = new(big.Rat).Set(box[v].Lo.V)
		}
		if !cs.Holds(point) {
			return status.Unsat, nil
		}
		return status.Sat, point
	}

	iv := box[widest]
	mid := interval.Floor(iv.Mid())
	midR := new(big.Rat).SetInt(mid)
	lower := interval.New(iv.Lo, interval.Finite(midR))
	upper := interval.New(interval.Finite(new(big.Rat).Add(midR, big.NewRat(1, 1))), iv.Hi)

	resL, mL := descend(cs, vars, box, widest, lower, st)
	if resL == status.Sat {
		return status.Sat, mL
	}
	resU, mU := descend(cs, vars, box, widest, upper, st)
	if resU == status.Sat {
		return status.Sat, mU
	}
	if resL == status.Unsat && resU == status.Unsat {
		return status.Unsat, nil
	}
	return status.Unknown, nil
}

func descend(cs poly.Case, vars []string, box map[string]interval.Interval, v string, iv interval.Interval, st *searchState) (status.Status, map[string]*big.Rat) {
	sub := make(map[string]interval.Interval, len(box))
	for k, b := range box {
		sub[k] = b
	}
	sub[v] = iv
	return branchPrune(cs, vars, sub, st)
}

// completeModel turns a rational case model into a full assignment for
// every declared variable, defaulting unconstrained integers to zero and
// booleans to false.
func completeModel(c *smt.Constraint, model map[string]*big.Rat) eval.Assignment {
	out := eval.Assignment{}
	for _, v := range c.Vars {
		switch v.Sort.Kind {
		case smt.KindInt:
			if r, ok := model[v.Name]; ok {
				out[v.Name] = eval.IntValue(ratToInt(r))
			} else {
				out[v.Name] = eval.IntValue64(0)
			}
		case smt.KindBool:
			out[v.Name] = eval.BoolValue(false)
		}
	}
	return out
}

func ratToInt(r *big.Rat) *big.Int {
	if r.IsInt() {
		return new(big.Int).Set(r.Num())
	}
	return interval.Floor(r)
}
