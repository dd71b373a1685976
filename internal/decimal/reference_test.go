package decimal

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"strconv"
	"strings"
	"testing"
)

// parseRef is the parser this package shipped before the single-pass one
// (strings.Cut, a digit loop and a strconv.ParseInt per part). It stays as
// the reference: Parse must accept and reject exactly what it does, with
// the same value and the same ErrSyntax/ErrRange split.
func parseRef(s string) (D, error) {
	if s == "" {
		return D{}, ErrSyntax
	}
	neg := false
	switch s[0] {
	case '+':
		s = s[1:]
	case '-':
		neg = true
		s = s[1:]
	}
	intPart, fracPart, hasFrac := strings.Cut(s, ".")
	if intPart == "" && fracPart == "" {
		return D{}, ErrSyntax
	}
	if intPart == "" {
		intPart = "0"
	}
	if hasFrac && fracPart == "" {
		return D{}, ErrSyntax
	}
	if len(fracPart) > MaxScale {
		// Trailing zeros beyond MaxScale are harmless; anything else is out
		// of range for the fixed-point representation.
		trimmed := strings.TrimRight(fracPart, "0")
		if len(trimmed) > MaxScale {
			return D{}, ErrRange
		}
		fracPart = trimmed
	}
	for _, c := range intPart {
		if c < '0' || c > '9' {
			return D{}, ErrSyntax
		}
	}
	units, err := strconv.ParseInt(intPart, 10, 64)
	if err != nil {
		return D{}, fmt.Errorf("decimal: parsing %q: %w", s, errKind(err))
	}
	scale := len(fracPart)
	for _, c := range fracPart {
		if c < '0' || c > '9' {
			return D{}, ErrSyntax
		}
	}
	var frac int64
	if scale > 0 {
		frac, err = strconv.ParseInt(fracPart, 10, 64)
		if err != nil {
			return D{}, fmt.Errorf("decimal: parsing %q: %w", s, errKind(err))
		}
	}
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

func errKind(err error) error {
	var ne *strconv.NumError
	if errors.As(err, &ne) {
		if errors.Is(ne.Err, strconv.ErrRange) {
			return ErrRange
		}
	}
	return ErrSyntax
}

// sameParse fails unless Parse and parseRef agree on src.
func sameParse(t *testing.T, src string) {
	t.Helper()
	got, gerr := Parse(src)
	want, werr := parseRef(src)
	switch {
	case werr == nil && (gerr != nil || got != want):
		t.Fatalf("Parse(%q) = %v, %v; reference %v", src, got, gerr, want)
	case errors.Is(werr, ErrRange) && !errors.Is(gerr, ErrRange),
		errors.Is(werr, ErrSyntax) && !errors.Is(gerr, ErrSyntax):
		t.Fatalf("Parse(%q) = %v, %v; reference error %v", src, got, gerr, werr)
	}
}

func TestParseMatchesReference(t *testing.T) {
	for _, src := range []string{
		"", "+", "-", ".", "+.", "-.5", ".5", "5.", "1..2", "1.2.3", "00.10", "-0", "-0.0",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"922337203685477580.7", "922337203685477580.8", "9223372036.854775807", "9223372036.854775808",
		"1.000000000", "1.0000000000", "1.0000000001", "1.5000000000", "9223372036854775.5000000000",
		"9223372036854775.500000000", "0000000000000000000000000000001.5",
		// Malformed in more than one way: the first rule that applies wins.
		"12a.0123456789", "12a.5", "1.abcdefghijkl", "1.0000000000x", "99999999999999999999.x",
		"99999999999999999999x", "1.2x", "x.0000000000", "1.\x80", "\x80", "1e5", " 1", "1 ", "1.5 ", "٣",
	} {
		sameParse(t, src)
	}
}

// bigOf returns d's mantissa at scale s as a big integer.
func bigOf(d D, s int) *big.Int {
	u := big.NewInt(d.units)
	return u.Mul(u, big.NewInt(pow10[s-int(d.scale)]))
}

// TestArithmeticMatchesBig checks Add, Sub, Mul, Cmp, CmpSum and Parse
// against math/big on every pair of boundary values: results are exact,
// comparisons included, and ErrRange is returned exactly when an aligned
// operand or the result does not fit an int64.
func TestArithmeticMatchesBig(t *testing.T) {
	units := []int64{
		math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 2, math.MinInt64 / 10, math.MinInt64/10 - 1,
		-1e9 - 1, -1e9, -11, -10, -2, -1, 0, 1, 2, 10, 11, 1e9, 1e9 + 1,
		math.MaxInt64/10 + 1, math.MaxInt64 / 10, math.MaxInt64 - 2, math.MaxInt64 - 1, math.MaxInt64,
		9223372037, 9223372036, -9223372037, 3037000499, 3037000500, -3037000500,
		// One unit off a value at scale 2 that overflows aligned to scale 0.
		math.MaxInt64/100 + 1, math.MinInt64/100 - 1,
	}
	var vals []D
	for _, u := range units {
		for _, s := range []uint8{0, 2, 9} {
			vals = append(vals, D{units: u, scale: s}.normalize())
		}
	}
	// The addends CmpSum is checked with, beside every pair.
	var addends []D
	for _, u := range []int64{math.MinInt64, -1, 0, 1, math.MaxInt64} {
		for _, s := range []uint8{0, 2, 9} {
			addends = append(addends, D{units: u, scale: s}.normalize())
		}
	}
	fits := func(b *big.Int) bool { return b.IsInt64() }
	for _, a := range vals {
		for _, b := range vals {
			s := max(int(a.scale), int(b.scale))
			ab, bb := bigOf(a, s), bigOf(b, s)
			if got, want := a.Cmp(b), ab.Cmp(bb); got != want {
				t.Errorf("%v.Cmp(%v) = %d, want %d", a, b, got, want)
			}
			for _, c := range addends {
				s := max(s, int(c.scale))
				sum := new(big.Int).Add(bigOf(b, s), bigOf(c, s))
				if got, want := a.CmpSum(b, c), bigOf(a, s).Cmp(sum); got != want {
					t.Errorf("%v.CmpSum(%v, %v) = %d, want %d", a, b, c, got, want)
				}
			}
			for _, op := range []struct {
				name string
				got  func(D) (D, error)
				want *big.Int
			}{
				{"Add", a.Add, new(big.Int).Add(ab, bb)},
				{"Sub", a.Sub, new(big.Int).Sub(ab, bb)},
			} {
				got, err := op.got(b)
				if !fits(ab) || !fits(bb) || !fits(op.want) {
					if !errors.Is(err, ErrRange) {
						t.Errorf("%v.%s(%v) = %v, %v; want ErrRange", a, op.name, b, got, err)
					}
					continue
				}
				if err != nil || bigOf(got, s).Cmp(op.want) != 0 {
					t.Errorf("%v.%s(%v) = %v, %v; want %v at scale %d", a, op.name, b, got, err, op.want, s)
				}
			}
		}
		for _, n := range units {
			want := new(big.Int).Mul(big.NewInt(a.units), big.NewInt(n))
			got, err := a.Mul(n)
			if !fits(want) {
				if !errors.Is(err, ErrRange) {
					t.Errorf("%v.Mul(%d) = %v, %v; want ErrRange", a, n, got, err)
				}
				continue
			}
			if err != nil || bigOf(got, int(a.scale)).Cmp(want) != 0 {
				t.Errorf("%v.Mul(%d) = %v, %v; want %v", a, n, got, err, want)
			}
		}
		// The canonical rendering parses back to the same value by both
		// parsers, except -2⁶³, whose magnitude no parser accepts.
		sameParse(t, a.String())
		if back, err := Parse(a.String()); a.units == math.MinInt64 {
			if !errors.Is(err, ErrRange) {
				t.Errorf("Parse(%q) = %v, %v; want ErrRange", a.String(), back, err)
			}
		} else if err != nil || back != a {
			t.Errorf("Parse(%q) = %v, %v", a.String(), back, err)
		}
	}
}
