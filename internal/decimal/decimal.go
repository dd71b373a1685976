// Package decimal implements exact fixed-point decimal numbers with a finite
// number of decimal places.
//
// The paper's predicate-graph construction ("Matching Predicates", §3.3)
// extends Rosenkrantz & Hunt's integer-valued conjunctive-predicate graphs to
// "decimal values with a finite number of decimal places". Floating point
// would make edge-weight comparisons and the ≤/< rewriting unsound, so
// constants are represented as a scaled integer together with its scale
// (number of digits after the decimal point).
package decimal

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"strings"
)

// MaxScale bounds the number of decimal places. Predicate constants in
// WXQuery subscriptions come from query text, so a small bound is plenty and
// keeps unit arithmetic comfortably inside int64.
const MaxScale = 9

// ErrRange reports a parse or arithmetic result outside the representable
// range.
var ErrRange = errors.New("decimal: value out of range")

// ErrSyntax reports malformed decimal text.
var ErrSyntax = errors.New("decimal: invalid syntax")

var pow10 = [MaxScale + 1]int64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// D is an immutable fixed-point decimal: the represented value is
// units / 10^scale. The zero value is 0.
type D struct {
	units int64
	scale uint8
}

// New returns the decimal units/10^scale. It panics if scale exceeds
// MaxScale; use Parse for untrusted input.
func New(units int64, scale int) D {
	if scale < 0 || scale > MaxScale {
		panic(fmt.Sprintf("decimal: scale %d out of range", scale))
	}
	return D{units: units, scale: uint8(scale)}.normalize()
}

// FromInt returns the decimal with integer value n.
func FromInt(n int64) D { return D{units: n} }

// Parse converts decimal text such as "-49.0", "120", "1.3" into a D: an
// optional sign, digits, and optionally a point followed by at least one
// digit (the integer digits may be omitted: ".5"). More than MaxScale
// decimal places are out of range unless the excess is trailing zeros.
//
// It is one pass over the bytes: operators call it once per numeric leaf
// per item. The scan only records what it saw; which error a malformed
// input gets is decided afterwards, in a fixed order.
func Parse(s string) (D, error) {
	i := 0
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		i = 1
	}
	// Integer part: everything before the first point.
	const cutoff = math.MaxInt64 / 10
	var units int64
	intBad, intOver := false, false
	intStart := i
	for ; i < len(s) && s[i] != '.'; i++ {
		d := int64(s[i]) - '0'
		switch {
		case d < 0 || d > 9:
			intBad = true
		case units > cutoff || (units == cutoff && d > math.MaxInt64%10):
			intOver = true
		default:
			units = units*10 + d
		}
	}
	intLen := i - intStart
	// Fraction: the value of its first MaxScale digits, its length, and its
	// length without trailing zeros.
	var frac int64
	hasFrac := i < len(s)
	fracLen, fracDigits, trimmed := 0, 0, 0
	fracBad := false
	if hasFrac {
		i++
		fracLen = len(s) - i
		for j, c := range []byte(s[i:]) {
			if c != '0' {
				trimmed = j + 1
			}
			switch {
			case c < '0' || c > '9':
				fracBad = true
			case fracDigits < MaxScale:
				frac = frac*10 + int64(c-'0')
				fracDigits++
			}
		}
	}

	if fracLen == 0 && (intLen == 0 || hasFrac) {
		return D{}, ErrSyntax
	}
	scale := fracLen
	if fracLen > MaxScale {
		if trimmed > MaxScale {
			return D{}, ErrRange
		}
		scale = trimmed
	}
	switch {
	case intBad:
		return D{}, ErrSyntax
	case intOver:
		return D{}, ErrRange
	case fracBad:
		return D{}, ErrSyntax
	}
	// Digits of frac beyond scale are the trailing zeros just dropped.
	frac /= pow10[fracDigits-scale]
	u, ok := mulOK(units, pow10[scale])
	if !ok {
		return D{}, ErrRange
	}
	u, ok = addOK(u, frac)
	if !ok {
		return D{}, ErrRange
	}
	if neg {
		u = -u
	}
	return D{units: u, scale: uint8(scale)}.normalize(), nil
}

// MustParse is Parse for constants known to be valid; it panics on error.
func MustParse(s string) D {
	d, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return d
}

// normalize strips trailing zero digits so equal values have one
// representation ("1.30" == "1.3").
func (d D) normalize() D {
	for d.scale > 0 && d.units%10 == 0 {
		d.units /= 10
		d.scale--
	}
	return d
}

// Scale reports the number of decimal places of d's canonical form.
func (d D) Scale() int { return int(d.scale) }

// Units returns the scaled integer mantissa at scale s.
// It panics if s is smaller than d's scale or exceeds MaxScale.
func (d D) Units(s int) int64 {
	if s < int(d.scale) || s > MaxScale {
		panic(fmt.Sprintf("decimal: units at scale %d of %s", s, d))
	}
	u, ok := mulOK(d.units, pow10[s-int(d.scale)])
	if !ok {
		panic(ErrRange)
	}
	return u
}

// IsZero reports whether d == 0.
func (d D) IsZero() bool { return d.units == 0 }

// Sign returns -1, 0, or +1 according to the sign of d.
func (d D) Sign() int {
	switch {
	case d.units < 0:
		return -1
	case d.units > 0:
		return 1
	}
	return 0
}

// Neg returns -d.
func (d D) Neg() D { return D{units: -d.units, scale: d.scale} }

// align returns both mantissas at the common (max) scale.
func align(a, b D) (au, bu int64, scale int, ok bool) {
	scale = int(a.scale)
	if int(b.scale) > scale {
		scale = int(b.scale)
	}
	au, ok1 := mulOK(a.units, pow10[scale-int(a.scale)])
	bu, ok2 := mulOK(b.units, pow10[scale-int(b.scale)])
	return au, bu, scale, ok1 && ok2
}

// Cmp compares d and e exactly, returning -1, 0, or +1. Equal scales, the
// common case of a compiled bound, compare units directly; operands whose
// alignment leaves int64 are compared in math/big.
func (d D) Cmp(e D) int {
	if d.scale == e.scale {
		return cmpInt64(d.units, e.units)
	}
	if au, bu, _, ok := align(d, e); ok {
		return cmpInt64(au, bu)
	}
	s := max(d.scale, e.scale)
	return d.bigUnits(s).Cmp(e.bigUnits(s))
}

// CmpSum compares d with e + c exactly, returning -1, 0, or +1: where
// e.Add(c) overflows, the sum is formed in math/big, so a constraint
// d ≤ e + c is decided at the int64 boundary too.
func (d D) CmpSum(e, c D) int {
	if sum, err := e.Add(c); err == nil {
		return d.Cmp(sum)
	}
	s := max(d.scale, e.scale, c.scale)
	sum := e.bigUnits(s)
	return d.bigUnits(s).Cmp(sum.Add(sum, c.bigUnits(s)))
}

// bigUnits returns d's units at scale s, which is at least d's scale.
func (d D) bigUnits(s uint8) *big.Int {
	u := big.NewInt(d.units)
	return u.Mul(u, big.NewInt(pow10[s-d.scale]))
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Add returns d + e.
func (d D) Add(e D) (D, error) {
	au, bu, scale, ok := align(d, e)
	if !ok {
		return D{}, ErrRange
	}
	u, ok := addOK(au, bu)
	if !ok {
		return D{}, ErrRange
	}
	return D{units: u, scale: uint8(scale)}.normalize(), nil
}

// Sub returns d - e.
func (d D) Sub(e D) (D, error) {
	au, bu, scale, ok := align(d, e)
	if !ok {
		return D{}, ErrRange
	}
	u := au - bu
	if (au < bu) != (u < 0) {
		return D{}, ErrRange
	}
	return D{units: u, scale: uint8(scale)}.normalize(), nil
}

// DivisibleBy reports whether d is an exact integer multiple of e. It is
// used for the window-compatibility conditions ∆′ mod ∆ = 0, ∆ mod µ = 0,
// µ′ mod µ = 0 of MatchAggregations (§3.3). e must be nonzero.
func (d D) DivisibleBy(e D) bool {
	if e.IsZero() {
		panic("decimal: DivisibleBy zero")
	}
	au, bu, _, ok := align(d, e)
	if !ok {
		return false
	}
	return au%bu == 0
}

// Div returns the integer quotient d/e; d must be divisible by e.
func (d D) Div(e D) int64 {
	if !d.DivisibleBy(e) {
		panic(fmt.Sprintf("decimal: %s not divisible by %s", d, e))
	}
	au, bu, _, _ := align(d, e)
	return au / bu
}

// Mul returns d * n for an integer factor n.
func (d D) Mul(n int64) (D, error) {
	u, ok := mulOK(d.units, n)
	if !ok {
		return D{}, ErrRange
	}
	return D{units: u, scale: d.scale}.normalize(), nil
}

// Float returns the nearest float64; for reporting only, never for matching.
func (d D) Float() float64 { return float64(d.units) / float64(pow10[d.scale]) }

// String formats d in canonical decimal notation.
func (d D) String() string {
	u := magnitude(d.units)
	intPart := u / uint64(pow10[d.scale])
	frac := u % uint64(pow10[d.scale])
	var b strings.Builder
	if d.units < 0 {
		b.WriteByte('-')
	}
	b.WriteString(strconv.FormatUint(intPart, 10))
	if d.scale > 0 {
		b.WriteByte('.')
		fs := strconv.FormatUint(frac, 10)
		for i := len(fs); i < int(d.scale); i++ {
			b.WriteByte('0')
		}
		b.WriteString(fs)
	}
	return b.String()
}

func addOK(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s <= 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// mulOK returns a·b and whether it fits. Aligning two decimals of equal
// scale multiplies by one, the common case on the operators' hot path.
func mulOK(a, b int64) (int64, bool) {
	if b == 1 {
		return a, true
	}
	hi, lo := bits.Mul64(magnitude(a), magnitude(b))
	if hi != 0 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		if lo > 1<<63 {
			return 0, false
		}
		return -int64(lo), true // lo = 2⁶³ wraps to -2⁶³, which is right
	}
	if lo > math.MaxInt64 {
		return 0, false
	}
	return int64(lo), true
}

// magnitude returns |a|; the conversion wraps -2⁶³ to 2⁶³ as it should.
func magnitude(a int64) uint64 {
	if a < 0 {
		return -uint64(a)
	}
	return uint64(a)
}
