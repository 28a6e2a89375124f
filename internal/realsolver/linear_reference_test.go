package realsolver

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"staub/internal/benchgen"
	"staub/internal/eval"
)

// TestLinearSolveMatchesReference pins the real leg to the results it
// had on the map-based big.Rat simplex (kept as the oracle in
// internal/simplex/reference_test.go): status, Stats.Nodes and model of
// every instance of benchgen.Suite("QF_LRA", 60, 39) and
// benchgen.Suite("QF_NRA", 60, 46) at a 40000-node budget, recorded in
// testdata/linear_reference.txt. The QF_NRA rows reach the simplex
// through the linear precheck and through their linear DNF cases.
func TestLinearSolveMatchesReference(t *testing.T) {
	want, err := os.ReadFile("testdata/linear_reference.txt")
	if err != nil {
		t.Fatal(err)
	}
	var suite []benchgen.Instance
	for _, ls := range []struct {
		logic string
		seed  int64
	}{{"QF_LRA", 39}, {"QF_NRA", 46}} {
		s, err := benchgen.Suite(ls.logic, 60, ls.seed)
		if err != nil {
			t.Fatal(err)
		}
		suite = append(suite, s...)
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
