package decimal

import "testing"

// FuzzParse asserts the decimal parser never panics, agrees with the
// reference parser on what it accepts, returns and rejects (and as which
// kind of error), and that every accepted value round-trips through its
// canonical rendering.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"0", "-0", "1.3", "-49.0", "120", "0.000000001", "9223372036854775807",
		".", "-", "1..2", "+1.5", "1e5", " 1", "00.10", ".5", "5.",
		"1.0000000000", "1.0000000001", "12a.0123456789", "99999999999999999999.x",
		"9223372036854775.5000000000", "9223372036854775.500000000",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sameParse(t, src)
		d, err := Parse(src)
		if err != nil {
			return
		}
		back, err := Parse(d.String())
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", d, src, err)
		}
		if back != d {
			t.Fatalf("round trip changed value: %q → %q → %q", src, d, back)
		}
	})
}
