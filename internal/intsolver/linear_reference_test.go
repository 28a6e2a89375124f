package intsolver

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"staub/internal/benchgen"
	"staub/internal/eval"
)

// TestLinearSolveMatchesReference pins the QF_LIA leg to the results of
// the map-based big.Rat simplex it replaced (kept as the oracle in
// internal/simplex/reference_test.go): status, Stats.Nodes and model
// of every instance of benchgen.Suite("QF_LIA", 60, 32) at a 40000-node
// budget, recorded in testdata/linear_reference.txt. The suite opens
// with the 15 distinct QF_LIA instances of the perfbench portfolio-cold
// workload (benchgen.Suite("QF_LIA", 38, 32)). Same pivots give the same
// nodes, so any line that moves is a change in the search, not in speed.
func TestLinearSolveMatchesReference(t *testing.T) {
	want, err := os.ReadFile("testdata/linear_reference.txt")
	if err != nil {
		t.Fatal(err)
	}
	suite, err := benchgen.Suite("QF_LIA", 60, 32)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := benchgen.Suite("QF_LIA", 38, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		if cold[i].Constraint.Script() != suite[i].Constraint.Script() {
			t.Fatalf("instance %d differs from the portfolio-cold stream", i)
		}
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(suite) {
		t.Fatalf("%d reference lines for %d instances", len(wantLines), len(suite))
	}
	for i, inst := range suite {
		st, m, stats := Solve(inst.Constraint, Params{NodeBudget: 40000})
		got := fmt.Sprintf("%s/%s %s nodes=%d %s", inst.Logic, inst.Name, st, stats.Nodes, formatModel(m))
		if got != wantLines[i] {
			t.Errorf("got  %s\nwant %s", got, wantLines[i])
		}
	}
}

func formatModel(m eval.Assignment) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = n + "=" + m[n].String()
	}
	return strings.Join(parts, " ")
}
