package main

import (
	"math"
	"testing"
)

// On 0, 1, ..., n-1 the Harrell–Davis estimate is close to the
// interpolated quantile, and on a constant sample it is that constant.
func TestHDQuantile(t *testing.T) {
	const n = 400
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - 1 - i)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99} {
		want := q * (n - 1)
		if got := hdQuantile(xs, q); math.Abs(got-want) > 1 {
			t.Errorf("q=%g: got %.3f, want about %.3f", q, got, want)
		}
	}
	same := []float64{7, 7, 7, 7, 7}
	if got := hdQuantile(same, 0.99); math.Abs(got-7) > 1e-9 {
		t.Errorf("constant sample: got %v, want 7", got)
	}
	if got := hdQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: got %v, want 0", got)
	}
}
