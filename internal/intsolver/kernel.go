package intsolver

import (
	"math/big"
	"sort"

	"staub/internal/checked"
	"staub/internal/interval"
	"staub/internal/poly"
	"staub/internal/status"
)

// kernelBoundLimit is the largest bound magnitude the int64 kernel
// accepts: with |lo|, |hi| ≤ 2^61 neither lo+hi nor hi−lo can overflow.
const kernelBoundLimit = 1 << 61

// kernel is a nonlinear case compiled to machine integers. It runs the
// same branch-and-prune as the big.Rat reference (branchPrune) — same
// nodes in the same order, same verdict, same model — with the box kept
// as two int64 slices changed in place instead of a map copied per node,
// and each atom evaluated over flat int64 terms with checked arithmetic.
// A term that overflows falls back to the exact big.Rat evaluation of that
// atom, so the kernel never approximates.
type kernel struct {
	cs    poly.Case
	vars  []string
	atoms []kernelAtom
	// lo and hi are the current box; the search narrows one variable at a
	// time and restores it on the way back.
	lo, hi []int64
	// fallbacks counts atom evaluations that overflowed int64 and were
	// decided by the big.Rat reference instead.
	fallbacks int64
}

// kernelAtom is one atom scaled by the positive LCM of its coefficient
// denominators; a positive scale keeps the sign, so the relation holds
// unchanged.
type kernelAtom struct {
	rel   poly.Rel
	terms []kernelTerm
}

// kernelTerm is coef · Π vals[i] over the variable indices, repeated for
// powers; the constant term has no indices.
type kernelTerm struct {
	coef int64
	vars []int
}

// compileKernel compiles a case over vars, or returns nil when a scaled
// coefficient does not fit in an int64.
func compileKernel(cs poly.Case, vars []string) *kernel {
	index := make(map[string]int, len(vars))
	for i, v := range vars {
		index[v] = i
	}
	k := &kernel{
		cs:    cs,
		vars:  vars,
		atoms: make([]kernelAtom, len(cs)),
		lo:    make([]int64, len(vars)),
		hi:    make([]int64, len(vars)),
	}
	for ai, a := range cs {
		scale := big.NewInt(1)
		for _, c := range a.P {
			d := c.Denom()
			g := new(big.Int).GCD(nil, nil, scale, d)
			scale.Mul(scale, new(big.Int).Quo(d, g))
		}
		// Sorted monomials make the order of the checked sums, and so the
		// points where a sum overflows, independent of map iteration.
		ms := make([]string, 0, len(a.P))
		for m := range a.P {
			ms = append(ms, string(m))
		}
		sort.Strings(ms)
		terms := make([]kernelTerm, len(ms))
		for ti, m := range ms {
			c := a.P[poly.Monomial(m)]
			n := new(big.Int).Mul(c.Num(), new(big.Int).Quo(scale, c.Denom()))
			if !n.IsInt64() {
				return nil
			}
			t := kernelTerm{coef: n.Int64()}
			for _, v := range poly.Monomial(m).Vars() {
				t.vars = append(t.vars, index[v])
			}
			terms[ti] = t
		}
		k.atoms[ai] = kernelAtom{rel: a.Rel, terms: terms}
	}
	return k
}

// load copies box into the kernel's slices. It reports false when some
// bound is infinite, fractional or beyond ±kernelBoundLimit; the caller
// then runs the big.Rat reference instead.
func (k *kernel) load(box map[string]interval.Interval) bool {
	for i, v := range k.vars {
		iv := box[v]
		lo, ok := kernelBound(iv.Lo)
		if !ok {
			return false
		}
		hi, ok := kernelBound(iv.Hi)
		if !ok {
			return false
		}
		k.lo[i], k.hi[i] = lo, hi
	}
	return true
}

func kernelBound(e interval.Endpoint) (int64, bool) {
	if !e.IsFinite() || !e.V.IsInt() || !e.V.Num().IsInt64() {
		return 0, false
	}
	b := e.V.Num().Int64()
	if b < -kernelBoundLimit || b > kernelBoundLimit {
		return 0, false
	}
	return b, true
}

// branchPrune is the int64 twin of the package-level branchPrune, rule by
// rule: one spend per node, the empty-box check, the first variable with
// the strictly greatest positive width, the split at floor((lo+hi)/2),
// the lower half first, and atoms checked in case order at a point.
func (k *kernel) branchPrune(st *searchState) (status.Status, map[string]*big.Rat) {
	if !st.spend(1) {
		return status.Unknown, nil
	}
	lo, hi := k.lo, k.hi
	for i := range lo {
		if lo[i] > hi[i] {
			return status.Unsat, nil
		}
	}
	widest := -1
	var widestW int64
	for i := range lo {
		if w := hi[i] - lo[i]; w > 0 && (widest < 0 || w > widestW) {
			widest, widestW = i, w
		}
	}
	if widest < 0 {
		for ai := range k.atoms {
			if !k.holds(ai) {
				return status.Unsat, nil
			}
		}
		return status.Sat, k.point()
	}

	l, h := lo[widest], hi[widest]
	mid := (l + h) >> 1 // arithmetic shift: floor, also for negative sums
	hi[widest] = mid
	resL, mL := k.branchPrune(st)
	hi[widest] = h
	if resL == status.Sat {
		return status.Sat, mL
	}
	lo[widest] = mid + 1
	resU, mU := k.branchPrune(st)
	lo[widest] = l
	if resU == status.Sat {
		return status.Sat, mU
	}
	if resL == status.Unsat && resU == status.Unsat {
		return status.Unsat, nil
	}
	return status.Unknown, nil
}

// holds evaluates atom ai at the point lo (every variable is a point).
func (k *kernel) holds(ai int) bool {
	a := &k.atoms[ai]
	var sum int64
	for _, t := range a.terms {
		v, ok := t.coef, true
		for _, i := range t.vars {
			if v, ok = checked.Mul(v, k.lo[i]); !ok {
				return k.holdsExact(ai)
			}
		}
		if sum, ok = checked.Add(sum, v); !ok {
			return k.holdsExact(ai)
		}
	}
	switch a.rel {
	case poly.RelEq:
		return sum == 0
	case poly.RelNe:
		return sum != 0
	case poly.RelLe:
		return sum <= 0
	default:
		return sum < 0
	}
}

// holdsExact decides atom ai at the point lo with the big.Rat reference.
func (k *kernel) holdsExact(ai int) bool {
	k.fallbacks++
	ok, err := k.cs[ai].Holds(k.point())
	return err == nil && ok
}

func (k *kernel) point() map[string]*big.Rat {
	pt := make(map[string]*big.Rat, len(k.vars))
	for i, v := range k.vars {
		pt[v] = new(big.Rat).SetInt64(k.lo[i])
	}
	return pt
}
