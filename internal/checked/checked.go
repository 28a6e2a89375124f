// Package checked is int64 arithmetic that reports overflow instead of
// wrapping. A result is never math.MinInt64, so every result it returns
// can be negated safely.
package checked

import (
	"math"
	"math/bits"
)

// Mul returns a·b, or ok=false when the product leaves
// (math.MinInt64, math.MaxInt64].
func Mul(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(Abs(a), Abs(b))
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		return -int64(lo), true
	}
	return int64(lo), true
}

// Add returns a+b, or ok=false when the sum leaves
// (math.MinInt64, math.MaxInt64].
func Add(a, b int64) (int64, bool) {
	c := a + b
	if (a^c)&(b^c) < 0 {
		return 0, false
	}
	return c, c != math.MinInt64
}

// Abs returns |a|, exact for every int64 (|math.MinInt64| is 1<<63).
func Abs(a int64) uint64 {
	if a < 0 {
		return uint64(-a)
	}
	return uint64(a)
}
