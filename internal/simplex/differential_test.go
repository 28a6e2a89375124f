package simplex

import (
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"staub/internal/benchgen"
	"staub/internal/poly"
)

// twin drives the incremental Solver and the reference through the same
// operations and compares them after every Check.
type twin struct {
	s          *Solver
	ref        *refSolver
	got, want  *[][2]int // pivot sequences since the last Check
	checks     int
	unknownsOK bool
}

func newTwin() *twin {
	tw := &twin{s: New(), ref: newRef(), got: new([][2]int), want: new([][2]int)}
	tw.hook()
	return tw
}

func (tw *twin) hook() {
	got, want := tw.got, tw.want
	tw.s.onPivot = func(l, e int) { *got = append(*got, [2]int{l, e}) }
	tw.ref.onPivot = func(l, e int) { *want = append(*want, [2]int{l, e}) }
}

// clone returns a twin over clones of both solvers with its own pivot
// logs.
func (tw *twin) clone() *twin {
	out := &twin{s: tw.s.Clone(), ref: tw.ref.Clone(), got: new([][2]int), want: new([][2]int), unknownsOK: tw.unknownsOK}
	out.hook()
	return out
}

func (tw *twin) addAtom(t *testing.T, a poly.Atom) {
	t.Helper()
	err, refErr := tw.s.AddAtom(a), tw.ref.AddAtom(a)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("AddAtom(%v) = %v, reference %v", a, err, refErr)
	}
}

func (tw *twin) assertLower(t *testing.T, name string, v *big.Rat) {
	tw.s.AssertLower(mustIndex(t, tw.s, name), Rat(v))
	tw.ref.AssertLower(name, v)
}

func (tw *twin) assertUpper(t *testing.T, name string, v *big.Rat) {
	tw.s.AssertUpper(mustIndex(t, tw.s, name), Rat(v))
	tw.ref.AssertUpper(name, v)
}

func mustIndex(t *testing.T, s *Solver, name string) int {
	t.Helper()
	vi, ok := s.Index(name)
	if !ok {
		t.Fatalf("no variable %q", name)
	}
	return vi
}

// check runs Check on both and requires the same status, the same
// (leaving, entering) pivots, the same exact value of every variable and,
// after Sat, the same Model.
func (tw *twin) check(t *testing.T, what string) Status {
	t.Helper()
	tw.checks++
	*tw.got, *tw.want = (*tw.got)[:0], (*tw.want)[:0]
	got, want := tw.s.Check(), tw.ref.Check()
	if got != want {
		t.Fatalf("%s: Check = %v, reference %v", what, got, want)
	}
	if fmt.Sprint(*tw.got) != fmt.Sprint(*tw.want) {
		t.Fatalf("%s: pivots %v, reference %v", what, *tw.got, *tw.want)
	}
	tw.ref.computeBasics()
	if len(tw.s.vars) != len(tw.ref.beta) {
		t.Fatalf("%s: %d variables, reference %d", what, len(tw.s.vars), len(tw.ref.beta))
	}
	for vi, x := range tw.s.vars {
		rb := tw.ref.beta[vi]
		if x.beta.a.toBig().Cmp(rb.A) != 0 || x.beta.b.toBig().Cmp(rb.B) != 0 {
			t.Fatalf("%s: β[%d] = %v, reference %v", what, vi, x.beta, rb)
		}
		if x.beta.a.big != nil || x.beta.b.big != nil {
			bigValues++
		}
	}
	if got == Unknown && !tw.unknownsOK {
		t.Fatalf("%s: Check = Unknown", what)
	}
	if got == Sat {
		m, rm := tw.s.Model(), tw.ref.Model()
		if fmtModel(m) != fmtModel(rm) {
			t.Fatalf("%s: Model %s, reference %s", what, fmtModel(m), fmtModel(rm))
		}
	}
	return got
}

// bigValues counts the values check saw outside int64 fractions.
var bigValues int

func fmtModel(m map[string]*big.Rat) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for _, n := range names {
		out += n + "=" + m[n].RatString() + " "
	}
	return out
}

// randRat returns a small rational, or with probability 1/8 one within
// a few units of ±2^62 (whose products and sums leave int64).
func randRat(rng *rand.Rand) *big.Rat {
	if rng.Intn(8) == 0 {
		v := big.NewRat(1<<62-int64(rng.Intn(5)), int64(1+rng.Intn(3)))
		if rng.Intn(2) == 0 {
			v.Neg(v)
		}
		return v
	}
	return big.NewRat(int64(rng.Intn(15)-7), int64(1+rng.Intn(4)))
}

func randAtom(rng *rand.Rand, vars []string) poly.Atom {
	p := poly.Const(randRat(rng))
	for _, v := range vars {
		if rng.Intn(2) == 0 {
			if c := randRat(rng); c.Sign() != 0 {
				p.AddInPlace(poly.Var(v), c)
			}
		}
	}
	rel := []poly.Rel{poly.RelLe, poly.RelLt, poly.RelEq}[rng.Intn(3)]
	return poly.Atom{P: p, Rel: rel}
}

// TestSimplexMatchesReference runs random small tableaux — Le/Lt/Eq atoms
// with rational coefficients, some near 2^62 so the int64 arithmetic
// overflows and falls back to big.Rat — through Check, bound tightenings
// and Clones between Checks, on the incremental Solver and the reference.
func TestSimplexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	vars := []string{"v", "w", "x", "y", "z"}
	bigValues = 0
	for iter := 0; iter < 400; iter++ {
		tw := newTwin()
		tw.unknownsOK = true
		if rng.Intn(4) == 0 {
			limit := 1 + rng.Intn(3)
			tw.s.PivotLimit, tw.ref.PivotLimit = limit, limit
		}
		for n := 1 + rng.Intn(6); n > 0; n-- {
			tw.addAtom(t, randAtom(rng, vars[:2+rng.Intn(4)]))
		}
		tw.check(t, fmt.Sprintf("iter %d", iter))
		live := []*twin{tw}
		for step := 0; step < 6; step++ {
			cur := live[rng.Intn(len(live))]
			if rng.Intn(3) == 0 {
				cur = cur.clone()
				live = append(live, cur)
			}
			known := cur.s.VarNames()
			if len(known) == 0 {
				continue
			}
			v, name := randRat(rng), known[rng.Intn(len(known))]
			if rng.Intn(2) == 0 {
				cur.assertLower(t, name, v)
			} else {
				cur.assertUpper(t, name, v)
			}
			cur.check(t, fmt.Sprintf("iter %d step %d", iter, step))
		}
		// Every solver, clones and their parents alike, still agrees
		// with its reference.
		for i, tw := range live {
			tw.check(t, fmt.Sprintf("iter %d recheck %d", iter, i))
		}
	}
	if bigValues == 0 {
		t.Fatal("no value left int64: the big.Rat fallback went untested")
	}
	t.Logf("%d values held in big.Rat", bigValues)
}

// TestSimplexMatchesReferenceOnSuites loads every linear case of the
// generated QF_LIA and QF_LRA suites into both solvers and explores a
// branch-and-bound tree of up to 64 nodes on each — left child on a
// clone, right child on the parent itself — comparing at every node.
func TestSimplexMatchesReferenceOnSuites(t *testing.T) {
	for _, ls := range []struct {
		logic string
		seed  int64
	}{{"QF_LIA", 32}, {"QF_LRA", 39}} {
		suite, err := benchgen.Suite(ls.logic, 60, ls.seed)
		if err != nil {
			t.Fatal(err)
		}
		checks := 0
		for _, inst := range suite {
			cases, err := poly.DNFConstraint(inst.Constraint, 64)
			if err != nil {
				continue
			}
			for ci, dc := range cases {
				split, err := poly.SplitNe(dc, 256)
				if err != nil {
					continue
				}
				for si, cs := range split {
					if cs.MaxDegree() > 1 {
						continue
					}
					tw := newTwin()
					for _, a := range cs {
						tw.addAtom(t, a)
					}
					budget := 64
					branch(t, tw, fmt.Sprintf("%s/%s case %d.%d", ls.logic, inst.Name, ci, si), &budget)
					checks += tw.checks
				}
			}
		}
		if checks == 0 {
			t.Fatalf("%s: no linear case checked", ls.logic)
		}
	}
}

// branch is integer branch-and-bound steered by the reference's model.
func branch(t *testing.T, tw *twin, what string, budget *int) {
	t.Helper()
	if *budget <= 0 {
		return
	}
	*budget--
	if tw.check(t, what) != Sat {
		return
	}
	m := tw.ref.Model()
	names := tw.ref.VarNames()
	for _, name := range names {
		v := m[name]
		if v.IsInt() {
			continue
		}
		fl := new(big.Rat).SetInt(new(big.Int).Div(v.Num(), v.Denom()))
		left := tw.clone()
		left.assertUpper(t, name, fl)
		branch(t, left, what+" L", budget)
		tw.assertLower(t, name, fl.Add(fl, big.NewRat(1, 1)))
		branch(t, tw, what+" R", budget)
		return
	}
}

// TestInterruptedSimplex sets the interrupt from inside the first pivot:
// Check must return Unknown without starting another pivot.
func TestInterruptedSimplex(t *testing.T) {
	s := New()
	// A chain that needs several pivots: x1 + x2 >= 4, x2 + x3 >= 4, …
	for i := 0; i < 6; i++ {
		a := poly.Atom{P: poly.Const(big.NewRat(4, 1)), Rel: poly.RelLe}
		a.P.AddInPlace(poly.Var(fmt.Sprintf("x%d", i)), big.NewRat(-1, 1))
		a.P.AddInPlace(poly.Var(fmt.Sprintf("x%d", i+1)), big.NewRat(-1, 1))
		if err := s.AddAtom(a); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	s.Interrupt = &stop
	pivots, after := 0, 0
	s.onPivot = func(int, int) {
		if stop.Load() {
			after++
		}
		pivots++
		stop.Store(true)
	}
	if got := s.Check(); got != Unknown {
		t.Fatalf("interrupted Check = %v, want Unknown", got)
	}
	if pivots != 1 || after != 0 {
		t.Fatalf("%d pivots, %d after the interrupt was set; want 1 and 0", pivots, after)
	}

	// Unset, the same system is satisfiable and needs more than one
	// pivot, so the interrupt above really cut the search short.
	stop.Store(false)
	s.onPivot = func(int, int) { pivots++ }
	if got := s.Check(); got != Sat || pivots < 2 {
		t.Fatalf("resumed Check = %v after %d pivots in all, want Sat after ≥ 2", got, pivots)
	}

	// Set before Check, the interrupt stops it before any pivot.
	c := s.Clone()
	c.AssertLower(mustIndex(t, c, "x0"), Int(100))
	c.AssertUpper(mustIndex(t, c, "x1"), Int(-200))
	stop.Store(true)
	c.onPivot = func(int, int) { t.Fatal("pivot after the interrupt was set") }
	if got := c.Check(); got != Unknown {
		t.Fatalf("pre-interrupted Check = %v, want Unknown", got)
	}
}

// TestRatMatchesBigRat checks every rat operation against big.Rat on
// random operands, many of them near the int64 limits.
func TestRatMatchesBigRat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pick := func() *big.Rat {
		switch rng.Intn(4) {
		case 0:
			return big.NewRat(int64(rng.Intn(41)-20), int64(1+rng.Intn(12)))
		case 1:
			return big.NewRat(rng.Int63()-rng.Int63(), 1+rng.Int63n(1<<62))
		case 2:
			n := new(big.Int).Lsh(big.NewInt(int64(1+rng.Intn(1000))), uint(60+rng.Intn(10)))
			if rng.Intn(2) == 0 {
				n.Neg(n)
			}
			return new(big.Rat).SetFrac(n, big.NewInt(int64(1+rng.Intn(7))))
		default:
			return big.NewRat(1<<62+int64(rng.Intn(7))-3, int64(1+rng.Intn(3)))
		}
	}
	for i := 0; i < 20000; i++ {
		x, y := pick(), pick()
		rx, ry := ratOf(x), ratOf(y)
		want := map[string]*big.Rat{
			"add": new(big.Rat).Add(x, y),
			"sub": new(big.Rat).Sub(x, y),
			"mul": new(big.Rat).Mul(x, y),
			"neg": new(big.Rat).Neg(x),
		}
		got := map[string]rat{"add": rx.add(ry), "sub": rx.sub(ry), "mul": rx.mul(ry), "neg": rx.neg()}
		if y.Sign() != 0 {
			want["quo"] = new(big.Rat).Quo(x, y)
			got["quo"] = rx.quo(ry)
		}
		for op, w := range want {
			g := got[op]
			if g.toBig().Cmp(w) != 0 {
				t.Fatalf("%v %s %v = %v, want %v", x, op, y, g, w.RatString())
			}
			if _, small := smallOf(w); small != (g.big == nil) {
				t.Fatalf("%v %s %v: result %v not canonical", x, op, y, g)
			}
		}
		if g, w := rx.cmp(ry), x.Cmp(y); g != w {
			t.Fatalf("cmp(%v, %v) = %d, want %d", x, y, g, w)
		}
		if g, w := rx.floor().toBig(), new(big.Rat).SetInt(new(big.Int).Div(x.Num(), x.Denom())); g.Cmp(w) != 0 {
			t.Fatalf("floor(%v) = %v, want %v", x, g, w)
		}
		if rx.isInt() != x.IsInt() || rx.sign() != x.Sign() {
			t.Fatalf("isInt/sign(%v) disagree", x)
		}
	}
}
