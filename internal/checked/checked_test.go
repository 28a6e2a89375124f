package checked

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestAgainstBigInt checks Mul and Add against big.Int on random operands,
// many of them at the int64 limits.
func TestAgainstBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edges := []int64{0, 1, -1, 2, -2, math.MaxInt64, math.MinInt64, math.MinInt64 + 1, 1 << 31, -(1 << 31), 1 << 32, -(1 << 32), 3037000499, -3037000499, 3037000500}
	pick := func() int64 {
		switch rng.Intn(3) {
		case 0:
			return edges[rng.Intn(len(edges))]
		case 1:
			return rng.Int63n(1<<33) - 1<<32
		}
		return int64(rng.Uint64())
	}
	fits := func(z *big.Int) bool { return z.IsInt64() && z.Int64() != math.MinInt64 }
	for i := 0; i < 100000; i++ {
		a, b := pick(), pick()
		ba, bb := big.NewInt(a), big.NewInt(b)
		for _, op := range []struct {
			name string
			f    func(int64, int64) (int64, bool)
			want *big.Int
		}{
			{"Mul", Mul, new(big.Int).Mul(ba, bb)},
			{"Add", Add, new(big.Int).Add(ba, bb)},
		} {
			got, ok := op.f(a, b)
			if ok != fits(op.want) || ok && got != op.want.Int64() {
				t.Fatalf("%s(%d, %d) = %d, %v; want %v", op.name, a, b, got, ok, op.want)
			}
		}
		if got, want := Abs(a), new(big.Int).Abs(ba); new(big.Int).SetUint64(got).Cmp(want) != 0 {
			t.Fatalf("Abs(%d) = %d, want %v", a, got, want)
		}
	}
}
