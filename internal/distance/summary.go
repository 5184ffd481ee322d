package distance

import (
	"fmt"
	"math"
)

// Summary is the minimal sufficient statistic for the cluster-level
// measures: the tuple count N, per-dimension linear sum LS and the scalar
// sum of squared norms SS = Σ‖t‖². Both CF and ACF projections
// (internal/cf) satisfy this shape, so every measure below applies to a
// cluster *image* C[Y] exactly as Section 5 requires.
type Summary struct {
	N  int64
	LS []float64
	SS float64
}

// Centroid returns X0 = LS/N (Eq. 4). It returns nil for an empty summary.
func (s Summary) Centroid() []float64 {
	if s.N == 0 {
		return nil
	}
	c := make([]float64, len(s.LS))
	for i, v := range s.LS {
		c[i] = v / float64(s.N)
	}
	return c
}

// Diameter returns the cluster diameter of Dfn 4.1 in the closed form
// BIRCH derives from clustering features:
//
//	D² = Σ_i Σ_j ‖t_i − t_j‖² / (N(N−1)) = (2N·SS − 2‖LS‖²) / (N(N−1))
//
// i.e. the square root of the *average squared* pairwise Euclidean
// distance. The paper's Dfn 4.1 is the average pairwise distance itself,
// which is not derivable from summaries; since the paper's own substrate
// (BIRCH) and Theorem 6.1 require summary-only computation, this closed
// form is the operative definition throughout (see DESIGN.md). Clusters of
// fewer than two points have diameter 0 by convention.
func (s Summary) Diameter() float64 {
	if s.N < 2 {
		return 0
	}
	n := float64(s.N)
	num := 2*n*s.SS - 2*dot(s.LS, s.LS)
	d2 := num / (n * (n - 1))
	if d2 < 0 {
		// Numerical cancellation on near-identical points.
		return 0
	}
	return math.Sqrt(d2)
}

// Radius returns the BIRCH radius R = sqrt(SS/N − ‖LS/N‖²), the RMS
// distance of members to the centroid. Zero for empty clusters.
func (s Summary) Radius() float64 {
	if s.N == 0 {
		return 0
	}
	n := float64(s.N)
	r2 := s.SS/n - dot(s.LS, s.LS)/(n*n)
	if r2 < 0 {
		return 0
	}
	return math.Sqrt(r2)
}

// Merge returns the summary of the union of two disjoint clusters
// (the CF Additivity Theorem).
func (s Summary) Merge(o Summary) Summary {
	out := Summary{N: s.N + o.N, SS: s.SS + o.SS, LS: make([]float64, len(s.LS))}
	for i := range s.LS {
		out.LS[i] = s.LS[i] + o.LS[i]
	}
	return out
}

// MergedDiameter returns the diameter the union of the two clusters would
// have, without materializing the merged summary's LS slice when avoidable.
// It is the leaf-admission test of the ACF-tree (Section 4.3.1: "the point
// is added to the closest cluster, if the diameter of the augmented cluster
// does not exceed a threshold").
func MergedDiameter(a, b Summary) float64 {
	return MergedDiameterRaw(a.N, a.LS, a.SS, b.N, b.LS, b.SS)
}

// MergedDiameterRaw is MergedDiameter on the unpacked summary components.
// The insert hot path of the ACF-tree calls it with fields read straight
// out of an ACF, skipping the construction and by-value copies of two
// Summary structs; keeping the single computation here keeps the two
// entry points bit-identical by construction.
func MergedDiameterRaw(n1 int64, ls1 []float64, ss1 float64, n2 int64, ls2 []float64, ss2 float64) float64 {
	n := float64(n1 + n2)
	if n < 2 {
		return 0
	}
	var lsq float64
	for i := range ls1 {
		v := ls1[i] + ls2[i]
		lsq += v * v
	}
	d2 := (2*n*(ss1+ss2) - 2*lsq) / (n * (n - 1))
	if d2 < 0 {
		return 0
	}
	return math.Sqrt(d2)
}

// ClusterMetric identifies one of the cluster-to-cluster distance measures
// of Section 5 / [ZRL96]. All are computable from Summary pairs.
type ClusterMetric int

const (
	// D0 is the Euclidean distance between centroids.
	D0 ClusterMetric = iota
	// D1 is the Manhattan distance between centroids (Eq. 5).
	D1
	// D2 is the average inter-cluster distance (Eq. 6), in BIRCH closed
	// form: D2² = SS1/N1 + SS2/N2 − 2·X01·X02.
	D2
	// D3 is the average intra-cluster distance (diameter) of the merged
	// cluster.
	D3
	// D4 is the variance-increase distance of BIRCH: the growth in total
	// squared deviation from centroids caused by merging.
	D4
)

// String returns the conventional name ("D0".."D4").
func (m ClusterMetric) String() string {
	names := [...]string{"D0", "D1", "D2", "D3", "D4"}
	if m >= 0 && int(m) < len(names) {
		return names[m]
	}
	return "D?"
}

// ParseClusterMetric converts a name like "D2" (case-sensitive) to the
// metric. Used by CLI flags.
func ParseClusterMetric(s string) (ClusterMetric, bool) {
	for m := D0; m <= D4; m++ {
		if m.String() == s {
			return m, true
		}
	}
	return 0, false
}

// MarshalText renders the metric by name, so JSON documents carry
// "D2" rather than a bare enum value.
func (m ClusterMetric) MarshalText() ([]byte, error) {
	if m < D0 || m > D4 {
		return nil, fmt.Errorf("distance: unknown cluster metric %d", int(m))
	}
	return []byte(m.String()), nil
}

// UnmarshalText parses a metric name with ParseClusterMetric.
func (m *ClusterMetric) UnmarshalText(text []byte) error {
	v, ok := ParseClusterMetric(string(text))
	if !ok {
		return fmt.Errorf("unknown metric %q (want D0, D1, D2, D3 or D4)", text)
	}
	*m = v
	return nil
}

// Between returns the metric's distance between the two cluster summaries.
// Empty summaries yield +Inf: an empty image can never satisfy a
// closeness constraint.
func (m ClusterMetric) Between(a, b Summary) float64 {
	if a.N == 0 || b.N == 0 {
		return math.Inf(1)
	}
	switch m {
	case D0:
		return Euclidean{}.Dist(a.Centroid(), b.Centroid())
	case D1:
		return Manhattan{}.Dist(a.Centroid(), b.Centroid())
	case D2:
		n1, n2 := float64(a.N), float64(b.N)
		d2 := a.SS/n1 + b.SS/n2 - 2*dot(a.LS, b.LS)/(n1*n2)
		if d2 < 0 {
			return 0
		}
		return math.Sqrt(d2)
	case D3:
		return a.Merge(b).Diameter()
	case D4:
		// Sum of squared deviations from the centroid is SS − ‖LS‖²/N.
		dev := func(s Summary) float64 { return s.SS - dot(s.LS, s.LS)/float64(s.N) }
		inc := dev(a.Merge(b)) - dev(a) - dev(b)
		if inc < 0 {
			return 0
		}
		return math.Sqrt(inc)
	default:
		return math.Inf(1)
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
