// Package simplex implements an exact general simplex procedure for
// conjunctions of linear rational atoms, in the style of Dutertre and de
// Moura's solver for DPLL(T) — the decision procedure underneath the
// unbounded linear-arithmetic solvers (QF_LIA via branch-and-bound on top,
// QF_LRA directly). Strict inequalities are handled with δ-rationals:
// pairs a + b·δ ordered lexicographically, where δ is an infinitesimal
// resolved to a concrete small rational during model extraction.
//
// The solver is incremental. Its invariant: every basic variable's value
// β equals its tableau row evaluated at the nonbasic values, at every
// point between operations. Changing a nonbasic value by Δ moves each
// basic variable in its column by c·Δ, and a pivot moves them by θ, so no
// operation ever recomputes β from scratch. A row holds its nonzero
// coefficients sorted by column, so Bland's smallest-index scans walk it
// in order, and memory and Clone follow the nonzeros. Every number is
// exact: rationals live in int64 fractions and fall back to big.Rat on
// overflow.
package simplex

import (
	"fmt"
	"math/big"
)

// Num is a δ-rational a + b·δ.
type Num struct {
	a rat // standard part
	b rat // infinitesimal coefficient
}

// NumOf returns a + b·δ.
func NumOf(a, b *big.Rat) Num { return Num{a: ratOf(a), b: ratOf(b)} }

// Rat returns the δ-free rational r.
func Rat(r *big.Rat) Num { return Num{a: ratOf(r)} }

// Int returns the δ-free integer value v.
func Int(v int64) Num { return Num{a: ratInt(v)} }

// Zero returns 0.
func Zero() Num { return Num{} }

// Cmp compares lexicographically: the standard part dominates.
func (n Num) Cmp(o Num) int {
	if c := n.a.cmp(o.a); c != 0 {
		return c
	}
	return n.b.cmp(o.b)
}

// Add returns n + o.
func (n Num) Add(o Num) Num { return Num{a: n.a.add(o.a), b: n.b.add(o.b)} }

// Sub returns n - o.
func (n Num) Sub(o Num) Num { return Num{a: n.a.sub(o.a), b: n.b.sub(o.b)} }

// scale returns c·n.
func (n Num) scale(c rat) Num { return Num{a: n.a.mul(c), b: n.b.mul(c)} }

// addScaled returns n + c·o.
func (n Num) addScaled(c rat, o Num) Num {
	return Num{a: n.a.add(c.mul(o.a)), b: n.b.add(c.mul(o.b))}
}

// resolve substitutes delta for δ.
func (n Num) resolve(delta rat) rat { return n.a.add(n.b.mul(delta)) }

// Resolve substitutes a concrete value for δ.
func (n Num) Resolve(delta *big.Rat) *big.Rat { return n.resolve(ratOf(delta)).toBig() }

func (n Num) String() string {
	if n.b.sign() == 0 {
		return n.a.String()
	}
	return fmt.Sprintf("%s%+sδ", n.a, n.b)
}

// bound is an optional δ-rational bound.
type bound struct {
	val Num
	set bool
}

func (b bound) String() string {
	if !b.set {
		return "∞"
	}
	return b.val.String()
}
