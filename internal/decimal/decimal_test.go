package decimal

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestParseValid(t *testing.T) {
	cases := []struct {
		in    string
		units int64
		scale int
	}{
		{"0", 0, 0},
		{"1", 1, 0},
		{"-1", -1, 0},
		{"+7", 7, 0},
		{"120.0", 120, 0},
		{"138.0", 138, 0},
		{"-49.0", -49, 0},
		{"1.3", 13, 1},
		{"-48.25", -4825, 2},
		{"0.000000001", 1, 9},
		{".5", 5, 1},
		{"1.500", 15, 1},
		{"1.3000000000", 13, 1}, // trailing zeros beyond MaxScale are fine
	}
	for _, c := range cases {
		d, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if d.units != c.units || int(d.scale) != c.scale {
			t.Errorf("Parse(%q) = {%d,%d}, want {%d,%d}", c.in, d.units, d.scale, c.units, c.scale)
		}
	}
}

func TestParseInvalid(t *testing.T) {
	for _, in := range []string{"", ".", "-", "+", "1.", "a", "1.2a", "--3", "1..2", "1.2.3"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): expected error", in)
		}
	}
}

func TestParseRange(t *testing.T) {
	if _, err := Parse("0.0000000001"); !errors.Is(err, ErrRange) {
		t.Errorf("ten decimals: got %v, want ErrRange", err)
	}
	if _, err := Parse("99999999999999999999"); !errors.Is(err, ErrRange) {
		t.Errorf("huge integer: got %v, want ErrRange", err)
	}
	// Near the int64 limit the implied scaling must also be caught.
	if _, err := Parse("9223372036854775807.9"); !errors.Is(err, ErrRange) {
		t.Errorf("scaled overflow: got %v, want ErrRange", err)
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{"0", "1", "-1", "120", "1.3", "-49", "-48.25", "0.000000001", "10.01", "-0.5"} {
		d := MustParse(s)
		if got := d.String(); got != s {
			t.Errorf("MustParse(%q).String() = %q", s, got)
		}
		again, err := Parse(d.String())
		if err != nil || again.Cmp(d) != 0 {
			t.Errorf("round trip %q -> %q failed: %v", s, d, err)
		}
	}
}

func TestNormalization(t *testing.T) {
	a := MustParse("1.30")
	b := MustParse("1.3")
	if a != b {
		t.Errorf("1.30 and 1.3 should normalize to the same representation: %v vs %v", a, b)
	}
	if a.Scale() != 1 {
		t.Errorf("scale of 1.30 = %d, want 1", a.Scale())
	}
}

func TestCmp(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"1", "2", -1},
		{"2", "1", 1},
		{"1.3", "1.3", 0},
		{"1.3", "1.30", 0},
		{"-49", "-48.999999999", -1},
		{"0.1", "0.09", 1},
		{"-1", "1", -1},
		{"0", "0.000000001", -1},
	}
	for _, c := range cases {
		if got := MustParse(c.a).Cmp(MustParse(c.b)); got != c.want {
			t.Errorf("Cmp(%s,%s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestCmpAtInt64Boundary decides comparisons whose aligned operands or sum
// leave int64. The first two rows are the selections
// where $p/a <= 92233720368547758.07 (a = 92233720368547759), which a float
// fallback let through, and where $p/a <= $p/b + 1 (a = 1, b = 2⁶³−1), which
// an overflowing Add rejected.
func TestCmpAtInt64Boundary(t *testing.T) {
	maxU, minU := D{units: math.MaxInt64}, D{units: math.MinInt64}
	cases := []struct {
		name    string
		d, e, c D
		want    int // sign of d − (e + c)
	}{
		{"scales 0 and 2, one ulp apart", MustParse("92233720368547759"), MustParse("92233720368547758.07"), D{}, 1},
		{"sum past 2⁶³−1", MustParse("1"), maxU, MustParse("1"), -1},
		{"sum at 2⁶³−1", maxU, MustParse("9223372036854775806"), MustParse("1"), 0},
		{"sum below −2⁶³", minU, minU, MustParse("-1"), 1},
		{"scales 0 and 9, past the aligned range", MustParse("9223372037"), D{units: math.MaxInt64, scale: 9}, D{}, 1},
		{"scales 9 and 0, past the aligned range", D{units: math.MaxInt64, scale: 9}, MustParse("9223372037"), D{}, -1},
		{"negative, scales 0 and 2", MustParse("-92233720368547759"), MustParse("-92233720368547758.07"), D{}, -1},
		{"mixed scales in the sum", MustParse("0.5"), maxU, D{units: math.MinInt64, scale: 9}, -1},
	}
	for _, c := range cases {
		if got := c.d.CmpSum(c.e, c.c); got != c.want {
			t.Errorf("%s: %v.CmpSum(%v, %v) = %d, want %d", c.name, c.d, c.e, c.c, got, c.want)
		}
		if c.c.IsZero() {
			if got := c.d.Cmp(c.e); got != c.want {
				t.Errorf("%s: %v.Cmp(%v) = %d, want %d", c.name, c.d, c.e, got, c.want)
			}
		}
	}
}

func TestAddSub(t *testing.T) {
	sum, err := MustParse("1.3").Add(MustParse("0.7"))
	if err != nil || sum.Cmp(FromInt(2)) != 0 {
		t.Errorf("1.3+0.7 = %v (%v), want 2", sum, err)
	}
	diff, err := MustParse("120").Sub(MustParse("138"))
	if err != nil || diff.Cmp(FromInt(-18)) != 0 {
		t.Errorf("120-138 = %v (%v), want -18", diff, err)
	}
	if _, err := New(math.MaxInt64, 0).Add(FromInt(1)); !errors.Is(err, ErrRange) {
		t.Errorf("overflow add: got %v, want ErrRange", err)
	}
}

func TestUnits(t *testing.T) {
	d := MustParse("1.3")
	if got := d.Units(3); got != 1300 {
		t.Errorf("Units(3) of 1.3 = %d, want 1300", got)
	}
	if got := d.Units(1); got != 13 {
		t.Errorf("Units(1) of 1.3 = %d, want 13", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Units below own scale should panic")
		}
	}()
	d.Units(0)
}

func TestNegSign(t *testing.T) {
	d := MustParse("-48.25")
	if d.Sign() != -1 || d.Neg().Sign() != 1 || !FromInt(0).IsZero() {
		t.Error("sign bookkeeping broken")
	}
	if d.Neg().String() != "48.25" {
		t.Errorf("Neg = %s", d.Neg())
	}
}

func TestDivisibleByAndDiv(t *testing.T) {
	cases := []struct {
		a, b string
		div  bool
		q    int64
	}{
		{"60", "20", true, 3},
		{"60", "40", false, 0},
		{"1.5", "0.5", true, 3},
		{"20", "0.5", true, 40},
		{"0.3", "0.1", true, 3},
		{"1", "0.3", false, 0},
		{"0", "7", true, 0},
		{"-60", "20", true, -3},
	}
	for _, c := range cases {
		a, b := MustParse(c.a), MustParse(c.b)
		if got := a.DivisibleBy(b); got != c.div {
			t.Errorf("%s divisible by %s = %v, want %v", c.a, c.b, got, c.div)
			continue
		}
		if c.div {
			if got := a.Div(b); got != c.q {
				t.Errorf("%s / %s = %d, want %d", c.a, c.b, got, c.q)
			}
		}
	}
	expectPanic(t, "DivisibleBy zero", func() { MustParse("1").DivisibleBy(D{}) })
	expectPanic(t, "Div non-divisible", func() { MustParse("1").Div(MustParse("0.3")) })
}

func TestMul(t *testing.T) {
	p, err := MustParse("1.5").Mul(4)
	if err != nil || p.String() != "6" {
		t.Errorf("1.5*4 = %v (%v)", p, err)
	}
	n, err := MustParse("-0.5").Mul(3)
	if err != nil || n.String() != "-1.5" {
		t.Errorf("-0.5*3 = %v (%v)", n, err)
	}
	z, err := MustParse("7").Mul(0)
	if err != nil || !z.IsZero() {
		t.Errorf("7*0 = %v (%v)", z, err)
	}
	if _, err := New(math.MaxInt64, 0).Mul(2); !errors.Is(err, ErrRange) {
		t.Errorf("overflow mul: %v", err)
	}
}

func TestNewPanicsOnBadScale(t *testing.T) {
	expectPanic(t, "negative scale", func() { New(1, -1) })
	expectPanic(t, "huge scale", func() { New(1, MaxScale+1) })
}

func TestUnitsOverflowPanics(t *testing.T) {
	expectPanic(t, "units overflow", func() { New(math.MaxInt64, 0).Units(MaxScale) })
}

func expectPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// Property: DivisibleBy agrees with Div round trip.
func TestQuickDivRoundTrip(t *testing.T) {
	f := func(a int16, b int8, s uint8) bool {
		if b == 0 {
			return true
		}
		d := New(int64(a), int(s%4))
		e := New(int64(b), int(s%4))
		if !d.DivisibleBy(e) {
			return true
		}
		q := d.Div(e)
		back, err := e.Mul(q)
		return err == nil && back.Cmp(d) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: addition commutes and Cmp is consistent with subtraction sign.
func TestQuickAddCmp(t *testing.T) {
	f := func(au, bu int32, as, bs uint8) bool {
		a := New(int64(au), int(as%5))
		b := New(int64(bu), int(bs%5))
		ab, err1 := a.Add(b)
		ba, err2 := b.Add(a)
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		if ab.Cmp(ba) != 0 {
			return false
		}
		d, err := a.Sub(b)
		if err != nil {
			return true
		}
		return a.Cmp(b) == d.Sign()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: String/Parse round-trips for arbitrary small-scale decimals.
func TestQuickStringRoundTrip(t *testing.T) {
	f := func(u int32, s uint8) bool {
		d := New(int64(u), int(s%(MaxScale+1)))
		back, err := Parse(d.String())
		return err == nil && back == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Cmp agrees with float comparison for moderate values.
func TestQuickCmpFloat(t *testing.T) {
	f := func(au, bu int16, as, bs uint8) bool {
		a := New(int64(au), int(as%4))
		b := New(int64(bu), int(bs%4))
		fc := 0
		switch {
		case a.Float() < b.Float():
			fc = -1
		case a.Float() > b.Float():
			fc = 1
		}
		return a.Cmp(b) == fc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
