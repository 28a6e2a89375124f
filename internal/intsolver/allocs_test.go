package intsolver

import (
	"testing"

	"staub/internal/benchgen"
)

// TestLinearBranchAndBoundAllocsFlat bounds the heap allocations per
// branch-and-bound node on knapsack-0000 (3416 nodes at a 40000-node
// budget). A node clones the tableau once for its left child and checks
// it on int64 fractions, so it allocates a handful of slices; the
// map-based big.Rat simplex allocated about 750 per node here.
func TestLinearBranchAndBoundAllocsFlat(t *testing.T) {
	suite, err := benchgen.Suite("QF_LIA", 1, 32)
	if err != nil {
		t.Fatal(err)
	}
	c := suite[0].Constraint
	_, _, stats := Solve(c, Params{NodeBudget: 40000})
	allocs := testing.AllocsPerRun(2, func() { Solve(c, Params{NodeBudget: 40000}) })
	perNode := allocs / float64(stats.Nodes)
	t.Logf("%s: %.0f allocations over %d nodes, %.2f per node", suite[0].Name, allocs, stats.Nodes, perNode)
	if perNode > 10 {
		t.Fatalf("%.2f allocations per branch-and-bound node, want ≤ 10", perNode)
	}
}
