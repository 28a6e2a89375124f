package main

import (
	"fmt"
	"math/rand"
	"strings"

	"staub/internal/benchgen"
	"staub/internal/harness"
	"staub/internal/smt"
	"staub/internal/termination"
)

// Every input the benchmark sends is generated here: fixed corpora from
// constant corpus seeds, put in order by the run's seed. The same seed
// yields byte-identical requests in the same order, and nothing is read
// from disk or the network.

// expectation is what an input's generator knows about its verdict.
type expectation int

const (
	expectNone  expectation = iota // no planted answer
	expectSat                      // a model was planted
	expectUnsat                    // the family is unsatisfiable by construction
)

// input is one constraint as sent on the wire.
type input struct {
	Name   string
	Src    string          // SMT-LIB script, the request's constraint
	C      *smt.Constraint // Src parsed, as the server parses it
	Expect expectation
}

func newInput(name, src string, exp expectation) (input, error) {
	c, err := smt.ParseScript(src)
	if err != nil {
		return input{}, fmt.Errorf("%s: generated script does not parse: %w", name, err)
	}
	return input{Name: name, Src: src, C: c, Expect: exp}, nil
}

// renamed returns in with every declared variable's name prefixed: a
// different script, and so a different cache key, with the same
// structure. Only whole tokens that name a declared variable change.
func renamed(in input, prefix string) (input, error) {
	if prefix == "" {
		return in, nil
	}
	vars := map[string]bool{}
	for _, v := range in.C.Vars {
		vars[v.Name] = true
	}
	var b strings.Builder
	src := in.Src
	for i := 0; i < len(src); {
		j := i
		for j < len(src) && !strings.ContainsRune("() \t\r\n", rune(src[j])) {
			j++
		}
		if j == i {
			b.WriteByte(src[i])
			i++
			continue
		}
		if vars[src[i:j]] {
			b.WriteString(prefix)
		}
		b.WriteString(src[i:j])
		i = j
	}
	return newInput(in.Name, b.String(), in.Expect)
}

// unsatFamilies are the benchgen families that are unsatisfiable by
// construction.
var unsatFamilies = map[string]bool{
	"lin-unsat": true, "parity-unsat": true, "lin-conflict": true,
	"mod4-unsat": true, "sign-unsat": true, "lra-unsat": true, "nra-unsat": true,
}

func benchgenInput(inst benchgen.Instance) (input, error) {
	exp := expectNone
	switch {
	case inst.PlantedSat:
		exp = expectSat
	case unsatFamilies[inst.Family]:
		exp = expectUnsat
	}
	return newInput(inst.Logic+"/"+inst.Name, inst.Constraint.Script(), exp)
}

// coldMix is the harness's default QF_NIA:QF_LIA:QF_NRA:QF_LRA instance
// mix, 100:60:48:24, reduced to one block of 58 requests.
var coldMix = []struct {
	logic  string
	weight int
}{{"QF_NIA", 25}, {"QF_LIA", 15}, {"QF_NRA", 12}, {"QF_LRA", 6}}

// coldInputs returns n distinct instances in request order: blocks of 58
// slots in the coldMix ratio, each block's slots shuffled by the seed.
// Duplicate scripts are skipped, so no request can hit the solve cache.
func coldInputs(seed int64, n int) ([]input, error) {
	block := 0
	for _, m := range coldMix {
		block += m.weight
	}
	blocks := (n + block - 1) / block
	streams := make(map[string][]benchgen.Instance, len(coldMix))
	for i, m := range coldMix {
		// Twice the share leaves room for skipped duplicates.
		suite, err := benchgen.Suite(m.logic, 2*blocks*m.weight+8, seed*31+int64(i))
		if err != nil {
			return nil, err
		}
		streams[m.logic] = suite
	}
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out []input
	for len(out) < n {
		var slots []string
		for _, m := range coldMix {
			for k := 0; k < m.weight; k++ {
				slots = append(slots, m.logic)
			}
		}
		rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		for _, logic := range slots {
			for {
				s := streams[logic]
				if len(s) == 0 {
					return nil, fmt.Errorf("cold inputs: %s stream exhausted after %d distinct instances", logic, len(out))
				}
				streams[logic] = s[1:]
				in, err := benchgenInput(s[0])
				if err != nil {
					return nil, err
				}
				if seen[in.Src] {
					continue
				}
				seen[in.Src] = true
				out = append(out, in)
				break
			}
			if len(out) == n {
				break
			}
		}
	}
	return out, nil
}

// hotSet is the hot-cache working set: distinct termination
// counterexample queries and, per program, the indexes of its queries
// (one /v1/batch request each).
type hotSet struct {
	queries  []input
	programs [][]int
}

// hotInputs draws hotPrograms programs from a generated termination
// corpus and collects every ranking-candidate counterexample query of
// each, deduplicated across programs.
func hotInputs(seed int64) (hotSet, error) {
	progs := termination.GeneratePrograms(4*hotPrograms, seed)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(progs), func(i, j int) { progs[i], progs[j] = progs[j], progs[i] })
	var hs hotSet
	index := map[string]int{}
	for _, p := range progs[:hotPrograms] {
		var batch []int
		for k, f := range termination.Candidates(p) {
			if len(batch) == maxBatch {
				break
			}
			c, err := termination.CounterexampleQuery(p, f)
			if err != nil {
				return hs, fmt.Errorf("%s: %w", p.Name, err)
			}
			src := c.Script()
			i, ok := index[src]
			if !ok {
				in, err := newInput(fmt.Sprintf("%s/f%d", p.Name, k), src, expectNone)
				if err != nil {
					return hs, err
				}
				i = len(hs.queries)
				index[src] = i
				hs.queries = append(hs.queries, in)
			}
			batch = append(batch, i)
		}
		hs.programs = append(hs.programs, batch)
	}
	return hs, nil
}

// hotRequest is one timed hot-cache request: a single query (program <
// 0) or a whole program's batch.
type hotRequest struct {
	query, program int
}

// hotRequestAt is the i-th request of the seeded hot-cache sequence:
// three single solves to one per-program batch, so the median falls
// among single solves and the tail among batches. It is a pure function
// of (seed, i), so the sequence needs no precomputed length.
func hotRequestAt(seed int64, i int64, hs hotSet) hotRequest {
	h := splitmix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(i))
	if h&3 != 0 {
		return hotRequest{query: int((h >> 2) % uint64(len(hs.queries))), program: -1}
	}
	return hotRequest{query: -1, program: int((h >> 2) % uint64(len(hs.programs)))}
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// opKind is one step of a session conversation.
type opKind int

const (
	opAssert opKind = iota
	opPush
	opPop
	opCheck
)

// sessionOp is one HTTP call of a conversation. Checks carry the flat
// script of the assertions visible at that point (the fresh replay's
// input) and what the generator knows about its verdict.
type sessionOp struct {
	Kind    opKind
	Body    string
	Visible string
	Expect  expectation
}

// conversation is one /v1/session lifetime: create, the ops, delete.
type conversation struct {
	Name string
	Ops  []sessionOp
}

// conversations builds n conversations from QF_NIA and QF_LIA instances
// (alternating): declarations, then each conjunct asserted with a check
// after it, with a push / tighten / check / pop / check excursion after
// every second conjunct.
func conversations(seed int64, n int) ([]conversation, error) {
	nia, err := benchgen.Suite("QF_NIA", (n+1)/2, seed*31+7)
	if err != nil {
		return nil, err
	}
	lia, err := benchgen.Suite("QF_LIA", n/2, seed*31+8)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0xc0ffee))
	out := make([]conversation, 0, n)
	for i := 0; i < n; i++ {
		inst := nia[i/2]
		if i%2 == 1 {
			inst = lia[i/2]
		}
		in, err := benchgenInput(inst)
		if err != nil {
			return nil, err
		}
		out = append(out, conversationFor(in, rng))
	}
	return out, nil
}

func conversationFor(in input, rng *rand.Rand) conversation {
	c := in.C
	var decls strings.Builder
	for _, v := range c.Vars {
		fmt.Fprintf(&decls, "(declare-fun %s () %s)\n", v.Name, v.Sort)
	}
	conv := conversation{Name: in.Name}
	conv.Ops = append(conv.Ops, sessionOp{Kind: opAssert, Body: decls.String()})
	visible := []string{}
	script := func(extra ...string) string {
		var b strings.Builder
		if c.Logic != "" {
			fmt.Fprintf(&b, "(set-logic %s)\n", c.Logic)
		}
		b.WriteString(decls.String())
		for _, a := range append(append([]string(nil), visible...), extra...) {
			b.WriteString(a)
		}
		b.WriteString("(check-sat)\n")
		return b.String()
	}
	for k, a := range c.Assertions {
		cmd := fmt.Sprintf("(assert %s)\n", a)
		visible = append(visible, cmd)
		exp := expectNone
		switch {
		case in.Expect == expectSat:
			exp = expectSat // every prefix of a planted-sat instance is sat
		case in.Expect == expectUnsat && k == len(c.Assertions)-1:
			exp = expectUnsat
		}
		conv.Ops = append(conv.Ops,
			sessionOp{Kind: opAssert, Body: cmd},
			sessionOp{Kind: opCheck, Visible: script(), Expect: exp})
		if k%2 == 1 && len(c.Vars) > 0 {
			v := c.Vars[rng.Intn(len(c.Vars))].Name
			k := fmt.Sprint(rng.Intn(21))
			if rng.Intn(2) == 0 {
				k = "(- " + k + ")"
			}
			tighten := fmt.Sprintf("(assert (%s %s %s))\n", []string{"<=", ">="}[rng.Intn(2)], v, k)
			conv.Ops = append(conv.Ops,
				sessionOp{Kind: opPush},
				sessionOp{Kind: opAssert, Body: tighten},
				sessionOp{Kind: opCheck, Visible: script(tighten)},
				sessionOp{Kind: opPop},
				// Re-checking the restored state, as a CEGAR loop does
				// after backtracking.
				sessionOp{Kind: opCheck, Visible: script(), Expect: exp})
		}
	}
	return conv
}

// deepRow is one bounded-deep request: a refinement-corpus instance at a
// fixed width, solved sequentially or by cube-and-conquer.
type deepRow struct {
	Name     string
	Width    int
	CubeVars int
	In       input
}

// Label names the row the way BENCH_6 and BENCH_8 do.
func (r deepRow) Label() string {
	mode := "seq"
	if r.CubeVars > 0 {
		mode = "cube"
	}
	return fmt.Sprintf("%s/w%d/%s", r.Name, r.Width, mode)
}

// deepWidths are the (instance, width) rows BENCH_6 and BENCH_8 record,
// minus the three whose sequential and cube solves both run out of
// budget (square-diff-201/w32, cubes-855/w16, cubes-855/w20): those
// measure only the budget, and their cube legs alone cost about ten
// seconds each.
var deepWidths = []struct {
	name  string
	width int
}{
	{"square-diff-201", 16}, {"square-diff-201", 20},
	{"legendre-2023", 16}, {"legendre-2023", 32},
	{"two-square-mod4", 32}, {"unsat-square-7", 32},
	{"cubes-855", 12},
}

// deepUnsat are the corpus instances with no integer solution:
// 2023 ≡ 7 (mod 8) is no sum of three squares, 1000003 ≡ 3 (mod 4) no
// sum of two, and 7 no square.
var deepUnsat = map[string]bool{"legendre-2023": true, "two-square-mod4": true, "unsat-square-7": true}

// deepPass returns every row twice (sequential and cube_vars=3) in the
// seeded order one pass sends them.
func deepPass(seed int64) ([]deepRow, error) {
	srcs := map[string]string{}
	for _, inst := range harness.RefinementCorpus() {
		srcs[inst.Name] = inst.Src
	}
	var rows []deepRow
	for _, w := range deepWidths {
		src, ok := srcs[w.name]
		if !ok {
			return nil, fmt.Errorf("refinement corpus has no instance %q", w.name)
		}
		exp := expectNone
		if deepUnsat[w.name] {
			exp = expectUnsat
		}
		in, err := newInput(w.name, src, exp)
		if err != nil {
			return nil, err
		}
		for _, cv := range []int{0, deepCubeVars} {
			rows = append(rows, deepRow{Name: w.name, Width: w.width, CubeVars: cv, In: in})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return rows, nil
}
