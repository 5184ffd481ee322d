package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestBasicOperations(t *testing.T) {
	g := New(4)
	if g.N() != 4 || g.Edges() != 0 {
		t.Fatalf("new graph: N=%d E=%d", g.N(), g.Edges())
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate
	g.AddEdge(2, 2) // self loop
	if g.Edges() != 1 {
		t.Errorf("Edges = %d, want 1", g.Edges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge not symmetric")
	}
	if g.HasEdge(2, 2) || g.HasEdge(0, 2) {
		t.Error("phantom edge")
	}
	if g.Degree(0) != 1 || g.Degree(3) != 0 {
		t.Errorf("degrees: %d %d", g.Degree(0), g.Degree(3))
	}
	g.AddEdge(0, 2)
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("Neighbors(0) = %v", got)
	}
}

func TestVertexBoundsPanics(t *testing.T) {
	g := New(2)
	for _, fn := range []func(){
		func() { g.AddEdge(0, 2) },
		func() { g.HasEdge(-1, 0) },
		func() { g.Degree(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic on out-of-range vertex")
				}
			}()
			fn()
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestMaximalCliquesTriangle(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3 attached to 2, plus isolated 4.
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	got := g.MaximalCliques()
	want := [][]int{{0, 1, 2}, {2, 3}, {4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cliques = %v, want %v", got, want)
	}
}

func TestMaximalCliquesComplete(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(i, j)
		}
	}
	got := g.MaximalCliques()
	if len(got) != 1 || !reflect.DeepEqual(got[0], []int{0, 1, 2, 3}) {
		t.Errorf("cliques = %v", got)
	}
}

func TestMaximalCliquesEmptyGraph(t *testing.T) {
	got := New(3).MaximalCliques()
	want := [][]int{{0}, {1}, {2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cliques = %v, want %v", got, want)
	}
	if got := New(0).MaximalCliques(); len(got) != 0 {
		t.Errorf("zero-vertex cliques = %v", got)
	}
}

// bruteForceCliques enumerates maximal cliques by testing all vertex
// subsets — the oracle for the property test (n <= 12).
func bruteForceCliques(g *Undirected) [][]int {
	n := g.N()
	isClique := func(mask int) bool {
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			for j := i + 1; j < n; j++ {
				if mask&(1<<j) == 0 {
					continue
				}
				if !g.HasEdge(i, j) {
					return false
				}
			}
		}
		return true
	}
	var cliques []int
	for mask := 1; mask < 1<<n; mask++ {
		if isClique(mask) {
			cliques = append(cliques, mask)
		}
	}
	var out [][]int
	for _, m := range cliques {
		maximal := true
		for _, m2 := range cliques {
			if m != m2 && m&m2 == m {
				maximal = false
				break
			}
		}
		if maximal {
			var c []int
			for i := 0; i < n; i++ {
				if m&(1<<i) != 0 {
					c = append(c, i)
				}
			}
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return lessIntSlices(out[i], out[j]) })
	return out
}

func TestMaximalCliquesMatchBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(9) + 1
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					g.AddEdge(i, j)
				}
			}
		}
		return reflect.DeepEqual(g.MaximalCliques(), bruteForceCliques(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Every vertex must appear in at least one maximal clique, and every
// emitted clique must actually be a clique and maximal.
func TestCliqueCoverageProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 1
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.25 {
					g.AddEdge(i, j)
				}
			}
		}
		covered := make([]bool, n)
		for _, c := range g.MaximalCliques() {
			for i, u := range c {
				covered[u] = true
				for _, v := range c[i+1:] {
					if !g.HasEdge(u, v) {
						return false // not a clique
					}
				}
			}
			// Maximality: no outside vertex adjacent to all members.
			for v := 0; v < n; v++ {
				inC := false
				for _, u := range c {
					if u == v {
						inC = true
						break
					}
				}
				if inC {
					continue
				}
				all := true
				for _, u := range c {
					if !g.HasEdge(u, v) {
						all = false
						break
					}
				}
				if all {
					return false // not maximal
				}
			}
		}
		for _, ok := range covered {
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestDegeneracyOrderCoversAll(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(3, 4)
	order := g.degeneracyOrder()
	if len(order) != 5 {
		t.Fatalf("order = %v", order)
	}
	seen := map[int]bool{}
	for _, v := range order {
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("order repeats vertices: %v", order)
	}
}
