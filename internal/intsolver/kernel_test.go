package intsolver

import (
	"fmt"
	"math/big"
	"testing"

	"staub/internal/benchgen"
	"staub/internal/interval"
	"staub/internal/poly"
	"staub/internal/status"
)

// coldBudget is the portfolio-cold request budget, 200 ms, in work units
// at the cost model's 200,000 units per virtual second.
const coldBudget = 40_000

// kernelRun tallies how the boxes of a differential run were searched.
type kernelRun struct {
	kernelBoxes, exactBoxes int
	fallbacks               int64
}

// compareCase searches every box solveNonlinearCase would search for cs —
// the bounded root box, or the deepening radii until a verdict or the
// budget — once on the int64 kernel and once on the big.Rat reference,
// with separate search states, and fails on any difference in status,
// node count, budget exhaustion or model. Boxes the kernel does not
// accept run on the reference for both states, as in production.
func compareCase(t *testing.T, name string, cs poly.Case, stK, stE *searchState, run *kernelRun) {
	t.Helper()
	vars := cs.Vars()
	if len(vars) == 0 {
		return
	}
	base, refuted := rootBox(cs, vars, nil)
	if refuted {
		return
	}
	k := compileKernel(cs, vars)
	check := func(box map[string]interval.Interval) bool {
		resE, mE := branchPrune(cs, vars, box, stE)
		var resK status.Status
		var mK map[string]*big.Rat
		if k != nil && k.load(box) {
			run.kernelBoxes++
			before := k.fallbacks
			resK, mK = k.branchPrune(stK)
			run.fallbacks += k.fallbacks - before
		} else {
			run.exactBoxes++
			resK, mK = branchPrune(cs, vars, box, stK)
		}
		if resK != resE || stK.nodes != stE.nodes || stK.timedOut != stE.timedOut {
			t.Fatalf("%s: kernel %v after %d nodes (timed out %v), reference %v after %d nodes (timed out %v)",
				name, resK, stK.nodes, stK.timedOut, resE, stE.nodes, stE.timedOut)
		}
		if !sameModel(mK, mE) {
			t.Fatalf("%s: kernel model %v, reference model %v", name, mK, mE)
		}
		return resE != status.Sat && !stE.timedOut
	}
	if boxBounded(base, vars) {
		check(base)
		return
	}
	for r := int64(2); r <= stE.params.MaxRadius; r *= stE.params.RadiusFactor {
		if !check(radiusBox(base, vars, r)) {
			return
		}
	}
}

func sameModel(a, b map[string]*big.Rat) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for v, x := range a {
		y, ok := b[v]
		if !ok || x.Cmp(y) != 0 {
			return false
		}
	}
	return true
}

// TestNonlinearKernelMatchesExact pins the int64 kernel to the big.Rat
// branch-and-prune: identical status, node count and model on every box
// of the QF_NIA families at the portfolio-cold budget, and on hand-built
// cases that hit each fallback — rational coefficients, bounds at and
// past 2^61, degree-3/4 products that overflow int64 at some points, and
// coefficients that do not compile.
func TestNonlinearKernelMatchesExact(t *testing.T) {
	p := Params{NodeBudget: coldBudget}.withDefaults()

	t.Run("benchgen", func(t *testing.T) {
		n := 25 // the QF_NIA rows of one portfolio-cold block
		if testing.Short() {
			n = 8
		}
		suite, err := benchgen.Suite("QF_NIA", n, 31)
		if err != nil {
			t.Fatal(err)
		}
		var run kernelRun
		for _, inst := range suite {
			cases, err := poly.DNFConstraint(inst.Constraint, p.MaxDNFCases)
			if err != nil {
				t.Fatalf("%s: %v", inst.Name, err)
			}
			// One pair of states per instance: the budget is shared by its
			// cases, as in Solve.
			stK, stE := &searchState{params: p}, &searchState{params: p}
			for _, cs := range cases {
				split, err := poly.SplitNe(cs, p.MaxDNFCases*4)
				if err != nil {
					t.Fatalf("%s: %v", inst.Name, err)
				}
				for _, sub := range split {
					if sub.MaxDegree() > 1 {
						compareCase(t, inst.Name, sub, stK, stE, &run)
					}
				}
			}
		}
		if run.kernelBoxes == 0 {
			t.Fatal("the kernel searched no box; the differential is vacuous")
		}
		t.Logf("%d kernel boxes, %d reference boxes, %d overflow fallbacks", run.kernelBoxes, run.exactBoxes, run.fallbacks)
	})

	pow2 := func(e uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), e) }
	add := func(x *big.Int, d int64) *big.Int { return new(big.Int).Add(x, big.NewInt(d)) }
	limit := pow2(61)
	cases := []struct {
		name  string
		atoms []poly.Atom
		// want* are the expected tallies: which search ran, and whether
		// some point overflowed int64.
		wantKernel, wantExact, wantFallback bool
		want                                status.Status
	}{
		{
			name: "rational coefficients sat",
			atoms: append(box(-6, 6, "x", "y", "z"),
				// x·y/3 + z/2 − 7 = 0
				atom(poly.RelEq, term(1, 3, "x", "y"), term(1, 2, "z"), term(-7, 1))),
			wantKernel: true, want: status.Sat,
		},
		{
			name: "rational coefficients unsat",
			atoms: append(box(-10, 10, "x"),
				// x²/2 − 7/3 = 0
				atom(poly.RelEq, term(1, 2, "x", "x"), term(-7, 3))),
			wantKernel: true, want: status.Unsat,
		},
		{
			name: "bounds at 2^61",
			atoms: append(append(boxBig(add(limit, -4), limit, "x"), box(0, 5, "y")...),
				// x·y − 5x = 0 holds only at y = 5, where x·y overflows.
				atom(poly.RelEq, term(1, 1, "x", "y"), term(-5, 1, "x"))),
			wantKernel: true, wantFallback: true, want: status.Sat,
		},
		{
			name: "bounds at -2^61",
			atoms: append(append(boxBig(new(big.Int).Neg(limit), add(new(big.Int).Neg(limit), 3), "x"), box(1, 5, "y")...),
				// x·(y + 1) = −3·2^61 − 1 has no solution in the box, and
				// x·y overflows at y = 5.
				atom(poly.RelEq, term(1, 1, "x", "y"), term(1, 1, "x"), termBig(add(new(big.Int).Mul(limit, big.NewInt(3)), 1)))),
			wantKernel: true, wantFallback: true, want: status.Unsat,
		},
		{
			name: "bounds past 2^61",
			atoms: append(append(boxBig(add(limit, -2), add(limit, 2), "x"), box(1, 2, "y")...),
				atom(poly.RelEq, term(1, 1, "x", "y"), termBig(new(big.Int).Neg(add(limit, 1))))),
			wantExact: true, want: status.Sat,
		},
		{
			name: "bounds past -2^61",
			atoms: append(append(boxBig(add(new(big.Int).Neg(limit), -1), new(big.Int).Neg(limit), "x"), box(1, 2, "y")...),
				// x·y = −2^62 − 1 has no solution in the box.
				atom(poly.RelEq, term(1, 1, "x", "y"), termBig(add(pow2(62), 1)))),
			wantExact: true, want: status.Unsat,
		},
		{
			name: "cubes overflow at some points",
			// x³ − x²·y = 0 and y·(x − 2^21 − 1) = 0 with x, y around
			// 2^21: x³ overflows from x = 2^21 on, and the only solution,
			// x = y = 2^21 + 1, is such a point.
			atoms: append(box(1<<21-2, 1<<21+1, "x", "y"),
				atom(poly.RelEq, term(1, 1, "x", "x", "x"), term(-1, 1, "x", "x", "y")),
				atom(poly.RelEq, term(1, 1, "x", "y"), term(-(1<<21+1), 1, "y"))),
			wantKernel: true, wantFallback: true, want: status.Sat,
		},
		{
			name: "quartics overflow at some points",
			// z⁴ − w⁴ = 1 has no solution; z⁴ and w⁴ overflow from 55109 on.
			atoms: append(box(55100, 55115, "z", "w"),
				atom(poly.RelEq, term(1, 1, "z", "z", "z", "z"), term(-1, 1, "w", "w", "w", "w"), term(-1, 1))),
			wantKernel: true, wantFallback: true, want: status.Unsat,
		},
		{
			name: "quartic constant does not compile",
			// 55112⁴ > 2^63 − 1: the case stays on the reference.
			atoms: append(box(55100, 55120, "z"),
				atom(poly.RelEq, term(1, 1, "z", "z", "z", "z"), termBig(new(big.Int).Neg(new(big.Int).Exp(big.NewInt(55112), big.NewInt(4), nil))))),
			wantExact: true, want: status.Sat,
		},
		{
			name: "scaled coefficient does not compile",
			// 2^62·x·y + y/3 − 1/3 = 0: scaled by 3, 3·2^62 overflows.
			atoms: append(box(-4, 4, "x", "y"),
				atom(poly.RelEq, termBig(pow2(62), "x", "y"), term(1, 3, "y"), term(-1, 3))),
			wantExact: true, want: status.Sat,
		},
		{
			name: "deepening from an unbounded box",
			// x³ + y³ + z³ = 29 with no bounds.
			atoms: []poly.Atom{atom(poly.RelEq, term(1, 1, "x", "x", "x"), term(1, 1, "y", "y", "y"),
				term(1, 1, "z", "z", "z"), term(-29, 1))},
			wantKernel: true, want: status.Sat,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cs := poly.Case(tc.atoms)
			stK, stE := &searchState{params: p}, &searchState{params: p}
			var run kernelRun
			compareCase(t, tc.name, cs, stK, stE, &run)
			if got := run.kernelBoxes > 0; got != tc.wantKernel {
				t.Errorf("kernel boxes = %d, want kernel used = %v", run.kernelBoxes, tc.wantKernel)
			}
			if got := run.exactBoxes > 0; got != tc.wantExact {
				t.Errorf("reference boxes = %d, want reference used = %v", run.exactBoxes, tc.wantExact)
			}
			if got := run.fallbacks > 0; got != tc.wantFallback {
				t.Errorf("overflow fallbacks = %d, want some = %v", run.fallbacks, tc.wantFallback)
			}
			// The full solve reaches the expected verdict.
			st := &searchState{params: p}
			if got, _ := solveNonlinearCase(parse(t, "(check-sat)"), cs, st); got != tc.want {
				t.Errorf("verdict = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestPruneStaysOnReference checks that per-node pruning, which only the
// big.Rat path implements, keeps the search off the kernel.
func TestPruneStaysOnReference(t *testing.T) {
	cs := poly.Case(append(box(-3, 3, "x", "y"), atom(poly.RelEq, term(1, 1, "x", "y"), term(-6, 1))))
	vars := cs.Vars()
	base, _ := rootBox(cs, vars, nil)
	k := compileKernel(cs, vars)
	searchBox(cs, vars, base, k, &searchState{params: Params{Prune: true}.withDefaults()})
	// The kernel never ran: its box is still the zero value it compiled with.
	for i := range k.lo {
		if k.lo[i] != 0 || k.hi[i] != 0 {
			t.Fatalf("kernel box loaded under Prune: lo %v hi %v", k.lo, k.hi)
		}
	}
}

// TestNonlinearSolveAllocsFlat checks that a bounded quad-hard-style box
// search allocates the same per solve whether it visits about a thousand
// nodes or tens of thousands: the search keeps no per-node maps and no
// per-node big.Rat values.
func TestNonlinearSolveAllocsFlat(t *testing.T) {
	// x² + y² + 4·z·w = 23 is unsat (x² + y² ≢ 3 mod 4), but no interval
	// or linear reasoning sees it, so the search enumerates the whole box
	// [-b, b]^4.
	src := func(b int) string {
		s := "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)(declare-fun w () Int)"
		for _, v := range []string{"x", "y", "z", "w"} {
			s += fmt.Sprintf("(assert (<= (- %d) %s))(assert (<= %s %d))", b, v, v, b)
		}
		return s + "(assert (= (+ (* x x) (* y y) (* 4 z w)) 23))(check-sat)"
	}
	measure := func(b int) (float64, int64) {
		c := parse(t, src(b))
		var nodes int64
		allocs := testing.AllocsPerRun(3, func() {
			st, _, stats := Solve(c, Params{})
			if st != status.Unsat {
				t.Fatalf("b=%d: status %v, want unsat", b, st)
			}
			nodes = stats.Nodes
		})
		return allocs, nodes
	}
	smallAllocs, smallNodes := measure(2)
	largeAllocs, largeNodes := measure(6)
	if smallNodes == 0 || largeNodes < 20*smallNodes {
		t.Fatalf("node counts %d and %d do not differ enough to test", smallNodes, largeNodes)
	}
	t.Logf("%.0f allocations at %d nodes, %.0f at %d nodes", smallAllocs, smallNodes, largeAllocs, largeNodes)
	// A few allocations of slack for root-level big.Rat values whose size
	// depends on the bounds; one per node would be tens of thousands.
	if largeAllocs > smallAllocs+16 {
		t.Errorf("allocations per solve grow with the search: %.0f at %d nodes, %.0f at %d nodes",
			smallAllocs, smallNodes, largeAllocs, largeNodes)
	}
}

// box bounds each variable to [lo, hi] with two linear atoms.
func box(lo, hi int64, vars ...string) []poly.Atom {
	return boxBig(big.NewInt(lo), big.NewInt(hi), vars...)
}

func boxBig(lo, hi *big.Int, vars ...string) []poly.Atom {
	var out []poly.Atom
	for _, v := range vars {
		// lo − v ≤ 0 and v − hi ≤ 0
		out = append(out,
			atom(poly.RelLe, term(-1, 1, v), termBig(lo)),
			atom(poly.RelLe, term(1, 1, v), termBig(new(big.Int).Neg(hi))))
	}
	return out
}

type monoTerm struct {
	coef *big.Rat
	vars []string
}

func term(num, den int64, vars ...string) monoTerm {
	return monoTerm{big.NewRat(num, den), vars}
}

func termBig(c *big.Int, vars ...string) monoTerm {
	return monoTerm{new(big.Rat).SetInt(c), vars}
}

// atom builds Σ terms ⋈ 0.
func atom(rel poly.Rel, terms ...monoTerm) poly.Atom {
	p := poly.Zero()
	for _, t := range terms {
		m := poly.Poly{poly.MonomialOf(t.vars...): t.coef}
		p.AddInPlace(m, big.NewRat(1, 1))
	}
	return poly.Atom{P: p, Rel: rel}
}
