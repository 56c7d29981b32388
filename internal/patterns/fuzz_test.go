package patterns

import (
	"errors"
	"testing"

	"repro/internal/matrix"
	"repro/internal/rng"
)

// FuzzParseApply feeds arbitrary pipeline strings to the DSL. A string
// either fails with a *ParseError or parses into a pattern that fills
// an 8×8 matrix of every datatype without panicking, and whose
// canonical spelling is a fixed point of Canonicalize. The corpus seeds
// include the non-finite arguments that once reached the transforms.
func FuzzParseApply(f *testing.F) {
	for _, s := range []string{
		"gaussian(default)",
		"gaussian(mean=0, std=210) | sort(rows, 50%) | sparsify(30%)",
		"gaussian(0,1)|sort(rows,nan)",
		"gaussian(default)|sparsify(nan)",
		"constant(random)|flip(nan)",
		"gaussian(mean=nan)",
		"constant(inf)",
		"gaussian(default)|sort(cols, frac=-inf)",
		"set(n=4, mean=0, std=210) | flip(0.1)",
		"set(n=1e12)",
		"uniform(0, 1) | randlsb(3) | zeromsb(2)",
		"constant(7) | sort(withinrows, frac=0.5) | randmsb(40)",
		"constant(random, mean=1, std=2) | zerolsb(1)",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Parse(%q) error %v is not a *ParseError", s, err)
			}
			return
		}
		for _, dt := range matrix.ExtendedDTypes {
			p.Apply(matrix.New(dt, 8, 8), rng.New(1))
		}
		c1, err := Canonicalize(s)
		if err != nil {
			t.Fatalf("Canonicalize(%q): %v after a successful Parse", s, err)
		}
		c2, err := Canonicalize(c1)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not parse: %v", c1, s, err)
		}
		if c1 != c2 {
			t.Fatalf("Canonicalize not idempotent: %q → %q → %q", s, c1, c2)
		}
	})
}
