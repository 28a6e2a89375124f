package simplex

import (
	"math"
	"math/big"
	"math/bits"

	"staub/internal/checked"
)

// rat is an exact rational. A value whose reduced numerator and
// denominator fit in an int64 is held as that fraction and its arithmetic
// allocates nothing; every operation checks for overflow and redoes the
// step in big.Rat when it would occur, so no value is ever approximated.
// The representation is canonical: a value that fits is always held
// small, and big is set only for values that do not fit.
type rat struct {
	num int64    // numerator; never math.MinInt64, so it negates safely
	dm1 int64    // denominator minus one: the zero value is 0/1
	big *big.Rat // non-nil when the value does not fit; never mutated
}

func ratInt(v int64) rat {
	if v == math.MinInt64 {
		return rat{big: new(big.Rat).SetInt64(v)}
	}
	return rat{num: v}
}

// ratOf returns x, copying it out of the caller's big.Rat.
func ratOf(x *big.Rat) rat {
	if r, ok := smallOf(x); ok {
		return r
	}
	return rat{big: new(big.Rat).Set(x)}
}

// ratOwn returns z, taking ownership of it when it does not fit.
func ratOwn(z *big.Rat) rat {
	if r, ok := smallOf(z); ok {
		return r
	}
	return rat{big: z}
}

func smallOf(x *big.Rat) (rat, bool) {
	n, d := x.Num(), x.Denom()
	if !n.IsInt64() || !d.IsInt64() {
		return rat{}, false
	}
	nv := n.Int64()
	if nv == math.MinInt64 {
		return rat{}, false
	}
	return rat{num: nv, dm1: d.Int64() - 1}, true
}

func (x rat) den() int64 { return x.dm1 + 1 }

// toBig returns x as a fresh big.Rat the caller may modify.
func (x rat) toBig() *big.Rat {
	if x.big != nil {
		return new(big.Rat).Set(x.big)
	}
	return big.NewRat(x.num, x.den())
}

// view returns x as a big.Rat operand the caller must not modify.
func (x rat) view() *big.Rat {
	if x.big != nil {
		return x.big
	}
	return big.NewRat(x.num, x.den())
}

func (x rat) sign() int {
	if x.big != nil {
		return x.big.Sign()
	}
	switch {
	case x.num > 0:
		return 1
	case x.num < 0:
		return -1
	}
	return 0
}

func (x rat) isInt() bool {
	if x.big != nil {
		return x.big.IsInt()
	}
	return x.dm1 == 0
}

func (x rat) neg() rat {
	if x.big != nil {
		return ratOwn(new(big.Rat).Neg(x.big))
	}
	return rat{num: -x.num, dm1: x.dm1}
}

func (x rat) cmp(y rat) int {
	if x.big != nil || y.big != nil {
		return x.view().Cmp(y.view())
	}
	if x.dm1 == y.dm1 {
		return cmp64(x.num, y.num)
	}
	sx, sy := x.sign(), y.sign()
	if sx != sy {
		return cmp64(int64(sx), int64(sy))
	}
	if sx == 0 {
		return 0
	}
	// Same nonzero sign: compare |x.num|·y.den with |y.num|·x.den in 128
	// bits, then flip the answer for negative values.
	xh, xl := bits.Mul64(checked.Abs(x.num), uint64(y.den()))
	yh, yl := bits.Mul64(checked.Abs(y.num), uint64(x.den()))
	if xh != yh {
		return cmpU64(xh, yh) * sx
	}
	return cmpU64(xl, yl) * sx
}

func (x rat) add(y rat) rat {
	if x.big == nil && y.big == nil {
		if y.num == 0 {
			return x
		}
		if x.num == 0 {
			return y
		}
		if z, ok := addSmall(x.num, x.den(), y.num, y.den()); ok {
			return z
		}
	}
	return ratOwn(new(big.Rat).Add(x.view(), y.view()))
}

func (x rat) sub(y rat) rat { return x.add(y.neg()) }

func (x rat) mul(y rat) rat {
	if x.big == nil && y.big == nil {
		if x.num == 0 || y.num == 0 {
			return rat{}
		}
		if z, ok := mulSmall(x.num, x.den(), y.num, y.den()); ok {
			return z
		}
	}
	return ratOwn(new(big.Rat).Mul(x.view(), y.view()))
}

// inv returns 1/x for nonzero x.
func (x rat) inv() rat {
	if x.big != nil {
		return ratOwn(new(big.Rat).Inv(x.big))
	}
	if x.num < 0 {
		return rat{num: -x.den(), dm1: -x.num - 1}
	}
	return rat{num: x.den(), dm1: x.num - 1}
}

func (x rat) quo(y rat) rat { return x.mul(y.inv()) }

// floor returns the greatest integer not above x.
func (x rat) floor() rat {
	if x.big != nil {
		return ratOwn(new(big.Rat).SetInt(new(big.Int).Div(x.big.Num(), x.big.Denom())))
	}
	if x.dm1 == 0 {
		return x
	}
	q := x.num / x.den()
	if x.num < 0 {
		q--
	}
	return rat{num: q}
}

func (x rat) String() string {
	if x.big != nil {
		return x.big.RatString()
	}
	return x.view().RatString()
}

// addSmall returns a/b + c/d reduced, or ok=false on int64 overflow.
func addSmall(a, b, c, d int64) (rat, bool) {
	if b == d {
		n, ok := checked.Add(a, c)
		if !ok {
			return rat{}, false
		}
		return reduce(n, b), true
	}
	g := int64(gcd(uint64(b), uint64(d)))
	bg, dg := b/g, d/g
	t1, ok1 := checked.Mul(a, dg)
	t2, ok2 := checked.Mul(c, bg)
	den, ok3 := checked.Mul(b, dg)
	if !ok1 || !ok2 || !ok3 {
		return rat{}, false
	}
	n, ok := checked.Add(t1, t2)
	if !ok {
		return rat{}, false
	}
	return reduce(n, den), true
}

// mulSmall returns (a/b)·(c/d) for reduced nonzero operands, cancelling
// across before multiplying, or ok=false on int64 overflow.
func mulSmall(a, b, c, d int64) (rat, bool) {
	if b == 1 && d == 1 {
		n, ok := checked.Mul(a, c)
		return rat{num: n}, ok
	}
	g1 := int64(gcd(checked.Abs(a), uint64(d)))
	g2 := int64(gcd(checked.Abs(c), uint64(b)))
	n, ok1 := checked.Mul(a/g1, c/g2)
	den, ok2 := checked.Mul(b/g2, d/g1)
	if !ok1 || !ok2 {
		return rat{}, false
	}
	return rat{num: n, dm1: den - 1}, true
}

// reduce returns n/d in lowest terms for d > 0.
func reduce(n, d int64) rat {
	if n == 0 {
		return rat{}
	}
	if g := int64(gcd(checked.Abs(n), uint64(d))); g > 1 {
		n, d = n/g, d/g
	}
	return rat{num: n, dm1: d - 1}
}

// gcd is binary GCD; gcd(0, b) = b.
func gcd(a, b uint64) uint64 {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	shift := bits.TrailingZeros64(a | b)
	a >>= bits.TrailingZeros64(a)
	for b != 0 {
		b >>= bits.TrailingZeros64(b)
		if a > b {
			a, b = b, a
		}
		b -= a
	}
	return a << shift
}

func cmp64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpU64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
