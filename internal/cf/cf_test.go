package cf

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/distance"
)

func TestCFAddPoint(t *testing.T) {
	c := NewCF(2)
	if c.Dims() != 2 || c.N != 0 {
		t.Fatalf("new CF = %+v", c)
	}
	c.AddPoint([]float64{1, 2})
	c.AddPoint([]float64{3, 4})
	if c.N != 2 {
		t.Errorf("N = %d", c.N)
	}
	if !reflect.DeepEqual(c.LS, []float64{4, 6}) {
		t.Errorf("LS = %v", c.LS)
	}
	if c.SS != 1+4+9+16 {
		t.Errorf("SS = %v", c.SS)
	}
	if got := c.Centroid(); !reflect.DeepEqual(got, []float64{2, 3}) {
		t.Errorf("Centroid = %v", got)
	}
}

func TestCFAddPointPanicsOnDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on dim mismatch")
		}
	}()
	NewCF(2).AddPoint([]float64{1})
}

func TestCFMergeAdditivity(t *testing.T) {
	a, b, all := NewCF(2), NewCF(2), NewCF(2)
	pts := [][]float64{{1, 1}, {2, 2}, {3, 3}, {10, -1}}
	for i, p := range pts {
		if i < 2 {
			a.AddPoint(p)
		} else {
			b.AddPoint(p)
		}
		all.AddPoint(p)
	}
	a.Merge(b)
	if a.N != all.N || a.SS != all.SS || !reflect.DeepEqual(a.LS, all.LS) {
		t.Errorf("merged = %+v, want %+v", a, all)
	}
}

func TestCFMergePanicsOnDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on dim mismatch")
		}
	}()
	NewCF(2).Merge(NewCF(3))
}

func TestCFCloneAndReset(t *testing.T) {
	c := NewCF(1)
	c.AddPoint([]float64{5})
	cl := c.Clone()
	cl.AddPoint([]float64{7})
	if c.N != 1 || cl.N != 2 {
		t.Errorf("clone not independent: %d %d", c.N, cl.N)
	}
	c.Reset()
	if c.N != 0 || c.SS != 0 || c.LS[0] != 0 {
		t.Errorf("reset CF = %+v", c)
	}
}

func TestCFDiameterViaSummary(t *testing.T) {
	c := NewCF(1)
	c.AddPoint([]float64{0})
	c.AddPoint([]float64{6})
	if got := c.Diameter(); math.Abs(got-6) > 1e-12 {
		t.Errorf("Diameter = %v, want 6", got)
	}
}

func TestCFBytesGrowsWithDims(t *testing.T) {
	if NewCF(10).Bytes() <= NewCF(1).Bytes() {
		t.Error("Bytes does not grow with dims")
	}
}

// ---- ACF ----

func sampleShape() Shape { return Shape{2, 1, 3} }

func randProj(rng *rand.Rand, shape Shape) [][]float64 {
	proj := make([][]float64, len(shape))
	for g, d := range shape {
		p := make([]float64, d)
		for i := range p {
			p[i] = (rng.Float64() - 0.5) * 10
		}
		proj[g] = p
	}
	return proj
}

func TestNewACFValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on bad own group")
		}
	}()
	NewACF(sampleShape(), 3)
}

func TestACFAddTuple(t *testing.T) {
	a := NewACF(Shape{1, 2}, 0)
	if a.Groups() != 2 {
		t.Fatalf("Groups = %d", a.Groups())
	}
	a.AddTuple([][]float64{{3}, {1, 2}})
	a.AddTuple([][]float64{{5}, {3, 4}})
	if a.N != 2 {
		t.Errorf("N = %d", a.N)
	}
	own := a.OwnSummary()
	if own.N != 2 || own.LS[0] != 8 || own.SS != 9+25 {
		t.Errorf("own summary = %+v", own)
	}
	img := a.Image(1)
	if !reflect.DeepEqual(img.LS, []float64{4, 6}) || img.SS != 1+4+9+16 {
		t.Errorf("image 1 = %+v", img)
	}
	if got := a.Centroid(); !reflect.DeepEqual(got, []float64{4}) {
		t.Errorf("Centroid = %v", got)
	}
}

func TestACFAddTuplePanics(t *testing.T) {
	a := NewACF(Shape{1, 1}, 0)
	for _, proj := range [][][]float64{
		{{1}},         // wrong group count
		{{1}, {1, 2}}, // wrong dims in group 1
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %v", proj)
				}
			}()
			a.AddTuple(proj)
		}()
	}
}

func TestACFMergePanics(t *testing.T) {
	shape := Shape{1, 1}
	a := NewACF(shape, 0)
	b := NewACF(shape, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic merging different own groups")
			}
		}()
		a.Merge(b)
	}()
	c := NewACF(Shape{1}, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic merging different shapes")
			}
		}()
		a.Merge(c)
	}()
	d := NewACF(Shape{1, 2}, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic merging equal group counts of different dims")
			}
		}()
		a.Merge(d)
	}()
}

// ACF additivity (the extension of the Additivity Theorem claimed in §6.1):
// building an ACF from all tuples equals merging ACFs of a partition of the
// tuples, across every group projection.
func TestACFAdditivityProperty(t *testing.T) {
	shape := sampleShape()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 2
		split := rng.Intn(n-1) + 1
		a := NewACF(shape, 1)
		b := NewACF(shape, 1)
		all := NewACF(shape, 1)
		for i := 0; i < n; i++ {
			proj := randProj(rng, shape)
			if i < split {
				a.AddTuple(proj)
			} else {
				b.AddTuple(proj)
			}
			all.AddTuple(proj)
		}
		a.Merge(b)
		if a.N != all.N {
			return false
		}
		for g := range shape {
			if math.Abs(a.SS[g]-all.SS[g]) > 1e-9 {
				return false
			}
			for i := range a.LS[g] {
				if math.Abs(a.LS[g][i]-all.LS[g][i]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Theorem 6.1 substrate: every image summary of an ACF equals the summary
// of the projected tuple set, so any cluster metric computed from ACFs
// matches the metric computed from the data.
func TestACFImageMatchesDirectSummary(t *testing.T) {
	shape := Shape{2, 1}
	rng := rand.New(rand.NewSource(3))
	a := NewACF(shape, 0)
	var g0, g1 [][]float64
	for i := 0; i < 10; i++ {
		proj := randProj(rng, shape)
		a.AddTuple(proj)
		g0 = append(g0, append([]float64(nil), proj[0]...))
		g1 = append(g1, append([]float64(nil), proj[1]...))
	}
	for g, pts := range [][][]float64{g0, g1} {
		want := distance.Summarize(pts)
		got := a.Image(g)
		if got.N != want.N || math.Abs(got.SS-want.SS) > 1e-9 {
			t.Errorf("group %d: summary = %+v, want %+v", g, got, want)
		}
		for i := range want.LS {
			if math.Abs(got.LS[i]-want.LS[i]) > 1e-9 {
				t.Errorf("group %d LS[%d] = %v, want %v", g, i, got.LS[i], want.LS[i])
			}
		}
	}
}

func TestACFCloneIndependent(t *testing.T) {
	a := NewACF(Shape{1, 1}, 0)
	a.AddTuple([][]float64{{1}, {2}})
	c := a.Clone()
	c.AddTuple([][]float64{{1}, {2}})
	if a.N != 1 || c.N != 2 {
		t.Errorf("clone not independent: %d %d", a.N, c.N)
	}
	if a.LS[0][0] != 1 || c.LS[0][0] != 2 {
		t.Errorf("clone shares LS: %v %v", a.LS, c.LS)
	}
}

func TestACFOwnCF(t *testing.T) {
	a := NewACF(Shape{2, 1}, 0)
	a.AddTuple([][]float64{{1, 2}, {9}})
	cf := a.OwnCF()
	if cf.N != 1 || !reflect.DeepEqual(cf.LS, []float64{1, 2}) || cf.SS != 5 {
		t.Errorf("OwnCF = %+v", cf)
	}
	// Mutating the extracted CF must not alter the ACF.
	cf.LS[0] = 100
	if a.LS[0][0] != 1 {
		t.Error("OwnCF shares storage with ACF")
	}
}

func TestACFBytes(t *testing.T) {
	small := NewACF(Shape{1}, 0)
	big := NewACF(Shape{10, 10, 10}, 0)
	if big.Bytes() <= small.Bytes() {
		t.Error("Bytes does not grow with shape")
	}
}

func TestNomKeyRoundTrip(t *testing.T) {
	vals := []float64{0, -1.5, 3.25, 1e308}
	key := EncodeNomKey(vals)
	got, ok := DecodeNomKey(key, len(vals))
	if !ok || !reflect.DeepEqual(got, vals) {
		t.Fatalf("round trip = %v, %v", got, ok)
	}
	if _, ok := DecodeNomKey(key, len(vals)+1); ok {
		t.Error("DecodeNomKey accepted wrong dimensionality")
	}
	if EncodeNomKey([]float64{1}) == EncodeNomKey([]float64{2}) {
		t.Error("distinct values collide")
	}
}

func TestACFTrackedHistograms(t *testing.T) {
	track := []bool{false, true}
	a := NewACFTracked(Shape{1, 1}, 0, track)
	b := NewACFTracked(Shape{1, 1}, 0, track)
	a.AddTuple([][]float64{{1}, {7}})
	a.AddTuple([][]float64{{2}, {7}})
	b.AddTuple([][]float64{{3}, {8}})

	if a.Tracked(0) || !a.Tracked(1) {
		t.Fatalf("Tracked = %v, %v", a.Tracked(0), a.Tracked(1))
	}
	if n := a.NomCount(1, EncodeNomKey([]float64{7})); n != 2 {
		t.Errorf("NomCount(7) = %d, want 2", n)
	}
	if n := a.NomCount(0, EncodeNomKey([]float64{1})); n != 0 {
		t.Errorf("untracked group NomCount = %d, want 0", n)
	}

	// Additivity: Merge adds histograms key-wise.
	c := a.Clone()
	c.Merge(b)
	if n := c.NomCount(1, EncodeNomKey([]float64{7})); n != 2 {
		t.Errorf("merged NomCount(7) = %d, want 2", n)
	}
	if n := c.NomCount(1, EncodeNomKey([]float64{8})); n != 1 {
		t.Errorf("merged NomCount(8) = %d, want 1", n)
	}
	// Clone independence.
	if n := a.NomCount(1, EncodeNomKey([]float64{8})); n != 0 {
		t.Errorf("Merge mutated the clone source: NomCount(8) = %d", n)
	}

	// Merging an untracked ACF into a tracked one must panic, not drop.
	defer func() {
		if recover() == nil {
			t.Error("Merge of untracked into tracked did not panic")
		}
	}()
	c.Merge(NewACF(Shape{1, 1}, 0))
}

func TestACFOwnNomKey(t *testing.T) {
	track := []bool{true, false}
	a := NewACFTracked(Shape{1, 1}, 0, track)
	a.AddTuple([][]float64{{4}, {1}})
	a.AddTuple([][]float64{{4}, {2}})
	if got := a.OwnNomKey(); got != EncodeNomKey([]float64{4}) {
		t.Errorf("single-valued OwnNomKey = %q", got)
	}
	// Untracked ACFs fall back to the centroid encoding.
	u := NewACF(Shape{1, 1}, 0)
	u.AddTuple([][]float64{{4}, {1}})
	if got := u.OwnNomKey(); got != EncodeNomKey([]float64{4}) {
		t.Errorf("fallback OwnNomKey = %q", got)
	}
}

func TestACFBytesTracksHistograms(t *testing.T) {
	plain := NewACF(Shape{1}, 0)
	tracked := NewACFTracked(Shape{1}, 0, []bool{true})
	tracked.AddTuple([][]float64{{1}})
	if tracked.Bytes() <= plain.Bytes() {
		t.Error("Bytes ignores histogram footprint")
	}
}

func TestACFAddRowMatchesAddTuple(t *testing.T) {
	shape := sampleShape()
	rng := rand.New(rand.NewSource(11))
	track := []bool{false, true, false}
	byTuple := NewACFTracked(shape, 1, track)
	byRow := NewACFTracked(shape, 1, track)
	it := NewInterner()
	for i := 0; i < 50; i++ {
		proj := randProj(rng, shape)
		var row []float64
		for _, p := range proj {
			row = append(row, p...)
		}
		byTuple.AddTuple(proj)
		byRow.AddRow(row, it)
	}
	if byRow.N != byTuple.N {
		t.Fatalf("N = %d, want %d", byRow.N, byTuple.N)
	}
	for g := range shape {
		if byRow.SS[g] != byTuple.SS[g] {
			t.Errorf("SS[%d] = %v, want %v", g, byRow.SS[g], byTuple.SS[g])
		}
		if !reflect.DeepEqual(byRow.LS[g], byTuple.LS[g]) {
			t.Errorf("LS[%d] = %v, want %v", g, byRow.LS[g], byTuple.LS[g])
		}
	}
	if !reflect.DeepEqual(byRow.NomCounts[1], byTuple.NomCounts[1]) {
		t.Errorf("NomCounts = %v, want %v", byRow.NomCounts[1], byTuple.NomCounts[1])
	}
	if it.Len() != len(byTuple.NomCounts[1]) {
		t.Errorf("interner holds %d keys, histogram %d", it.Len(), len(byTuple.NomCounts[1]))
	}
}

// Bytes must be a function of the logical shape only — the rebuild
// schedule (entryBytes) and the .acfsum goldens depend on it. The pinned
// figure is the formula's value for shape {2,1,3}: 88 bytes of header,
// 24+8·dims per group projection, 8 per square sum.
func TestACFBytesLayoutIndependent(t *testing.T) {
	a := NewACF(sampleShape(), 0)
	if got := a.Bytes(); got != 232 {
		t.Errorf("NewACF Bytes = %d, want 232", got)
	}
	if got := a.Clone().Bytes(); got != 232 {
		t.Errorf("Clone Bytes = %d, want 232", got)
	}
}

func TestInternerKeyCanonical(t *testing.T) {
	it := NewInterner()
	k1 := it.Key([]float64{1, 2})
	k2 := it.Key([]float64{1, 2})
	if k1 != k2 || k1 != EncodeNomKey([]float64{1, 2}) {
		t.Fatalf("interned keys diverge: %q %q", k1, k2)
	}
	if it.Len() != 1 {
		t.Errorf("Len = %d, want 1", it.Len())
	}
	if allocs := testing.AllocsPerRun(100, func() { it.Key([]float64{1, 2}) }); allocs != 0 {
		t.Errorf("interned Key allocates %v per run, want 0", allocs)
	}
}

func BenchmarkEncodeNomKey(b *testing.B) {
	vals := []float64{1.5, -2.25, 3e7, 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EncodeNomKey(vals)
	}
}

func BenchmarkDecodeNomKey(b *testing.B) {
	key := EncodeNomKey([]float64{1.5, -2.25, 3e7, 4})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := DecodeNomKey(key, 4); !ok {
			b.Fatal("decode failed")
		}
	}
}

func BenchmarkInternerKey(b *testing.B) {
	it := NewInterner()
	vals := []float64{1.5, -2.25, 3e7, 4}
	it.Key(vals)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = it.Key(vals)
	}
}

// The split-row kernels must compose to exactly AddRow: AddRowOwn folds
// the own group (plus N and histograms) eagerly, AddRows applies the
// deferred cross-group sums of a whole run, and every float cell ends up
// bit-identical to the fused per-row path — across uniform and
// non-uniform shapes, tracked groups included, and for run lengths above
// one.
func TestACFSplitRowMatchesAddRow(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shape Shape
		own   int
	}{
		{"non-uniform", Shape{2, 1, 3}, 1},
		{"uniform", Shape{1, 1, 1, 1}, 2},
		{"own-first", Shape{2, 2}, 0},
		{"own-last", Shape{1, 2}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			track := make([]bool, len(tc.shape))
			track[tc.own] = true
			fused := NewACFTracked(tc.shape, tc.own, track)
			split := NewACFTracked(tc.shape, tc.own, track)
			stride := tc.shape.Dims()
			itF, itS := NewInterner(), NewInterner()
			// Three runs of different lengths, each applied per-row to the
			// fused ACF and own-then-batched to the split ones.
			for _, run := range []int{1, 3, 5} {
				rows := make([]float64, 0, run*stride)
				for r := 0; r < run; r++ {
					for _, p := range randProj(rng, tc.shape) {
						rows = append(rows, p...)
					}
				}
				for r := 0; r < run; r++ {
					row := rows[r*stride : (r+1)*stride]
					fused.AddRow(row, itF)
					split.AddRowOwn(row, itS)
				}
				split.AddRows(rows, stride, run)
			}
			if split.N != fused.N {
				t.Fatalf("N = %d, want %d", split.N, fused.N)
			}
			for g := range tc.shape {
				if split.SS[g] != fused.SS[g] {
					t.Errorf("SS[%d] = %v, want %v", g, split.SS[g], fused.SS[g])
				}
				if !reflect.DeepEqual(split.LS[g], fused.LS[g]) {
					t.Errorf("LS[%d] = %v, want %v", g, split.LS[g], fused.LS[g])
				}
			}
			if !reflect.DeepEqual(split.NomCounts[tc.own], fused.NomCounts[tc.own]) {
				t.Errorf("NomCounts = %v, want %v", split.NomCounts[tc.own], fused.NomCounts[tc.own])
			}
		})
	}
}

// The batch kernel itself must not allocate: it walks the flat backing
// in place.
func TestACFAddRowsZeroAllocs(t *testing.T) {
	shape := Shape{1, 1, 1, 1}
	a := NewACF(shape, 1)
	rows := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	for i := 0; i < 3; i++ {
		a.AddRowOwn(rows[i*4:(i+1)*4], nil)
	}
	if allocs := testing.AllocsPerRun(100, func() { a.AddRows(rows, 4, 3) }); allocs != 0 {
		t.Errorf("AddRows allocates %v per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { a.AddRowOwn(rows[:4], nil) }); allocs != 0 {
		t.Errorf("AddRowOwn allocates %v per run, want 0", allocs)
	}
}

func BenchmarkACFAddRow(b *testing.B) {
	shape := sampleShape()
	a := NewACF(shape, 0)
	row := []float64{1, 2, 3, 4, 5, 6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.AddRow(row, nil)
	}
}

// BenchmarkACFAddRows measures the batched cross-group kernel against
// the per-row loop it replaces: one op is a 64-row run.
func BenchmarkACFAddRows(b *testing.B) {
	shape := Shape{1, 1, 1, 1, 1, 1, 1, 1, 1}
	stride := shape.Dims()
	const run = 64
	rows := make([]float64, run*stride)
	for i := range rows {
		rows[i] = float64(i%97) * 0.5
	}
	a := NewACF(shape, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.AddRows(rows, stride, run)
	}
}
