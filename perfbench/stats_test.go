package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending, so the helper must sort
	}
	return out
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0 = refused
	}{
		{99, 90, 0},   // rank 90, only 9 beyond
		{100, 90, 90}, // rank 90, 10 beyond
		{19, 50, 0},   // rank 10, 9 beyond
		{20, 50, 10},
		{1000, 99, 990},
		{0, 50, 0},
	} {
		got, err := percentile(ramp(c.n), c.p)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %v, want a refusal", c.p, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("empty median %v", got)
	}
}
