// Package graph provides the undirected clustering graph of Dfn 6.1 and
// maximal-clique enumeration (Bron–Kerbosch with pivoting), the skeleton
// of Phase II: cliques of mutually close clusters "correspond to large
// itemsets for DARs" (Section 6.2).
package graph

import (
	"fmt"
	"sort"
)

// Undirected is a simple undirected graph over vertices 0..n-1.
type Undirected struct {
	n     int
	adj   []map[int]struct{}
	edges int
}

// New returns an empty graph with n vertices.
func New(n int) *Undirected {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	g := &Undirected{n: n, adj: make([]map[int]struct{}, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]struct{})
	}
	return g
}

// N returns the number of vertices.
func (g *Undirected) N() int { return g.n }

// Edges returns the number of edges.
func (g *Undirected) Edges() int { return g.edges }

// AddEdge inserts the edge {u, v}. Self-loops and duplicates are ignored.
func (g *Undirected) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	if u == v {
		return
	}
	if _, ok := g.adj[u][v]; ok {
		return
	}
	g.adj[u][v] = struct{}{}
	g.adj[v][u] = struct{}{}
	g.edges++
}

// HasEdge reports whether {u, v} is an edge.
func (g *Undirected) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	_, ok := g.adj[u][v]
	return ok
}

// Degree returns the number of neighbours of u.
func (g *Undirected) Degree(u int) int {
	g.check(u)
	return len(g.adj[u])
}

// Neighbors returns the sorted neighbours of u.
func (g *Undirected) Neighbors(u int) []int {
	g.check(u)
	out := make([]int, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func (g *Undirected) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: vertex %d outside [0,%d)", u, g.n))
	}
}

// MaximalCliques enumerates all maximal cliques using Bron–Kerbosch with
// pivoting over a degeneracy ordering of the outer level — near-optimal in
// practice for the sparse clustering graphs of Section 7.2 ("the number of
// edges in the graph [is] only a small constant times the number of
// nodes"). Every vertex appears in at least one clique (isolated vertices
// form trivial 1-cliques, which the paper counts as cliques by definition).
// Cliques and their members are returned in sorted order.
func (g *Undirected) MaximalCliques() [][]int {
	order := g.degeneracyOrder()
	pos := make([]int, g.n)
	for i, v := range order {
		pos[v] = i
	}
	var out [][]int
	r := make([]int, 0, g.n)
	for _, v := range order {
		p, x := g.splitNeighbors(v, pos)
		r = append(r[:0], v)
		out = g.bronKerbosch(r, p, x, out)
	}
	sort.Slice(out, func(i, j int) bool { return lessIntSlices(out[i], out[j]) })
	return out
}

// splitNeighbors partitions v's neighbours into the Bron–Kerbosch
// candidate set P (later in the degeneracy order) and excluded set X
// (earlier), both sorted ascending so the recursion — and therefore the
// order cliques are found in — never inherits Go's randomized
// map-iteration order.
func (g *Undirected) splitNeighbors(v int, pos []int) (p, x []int) {
	for u := range g.adj[v] {
		if pos[u] > pos[v] {
			p = append(p, u)
		} else {
			x = append(x, u)
		}
	}
	sort.Ints(p)
	sort.Ints(x)
	return p, x
}

// bronKerbosch is the pivoted recursion. r is the current clique, p the
// candidates, x the excluded set. It appends every maximal clique found,
// members sorted, to out and returns it.
func (g *Undirected) bronKerbosch(r, p, x []int, out [][]int) [][]int {
	if len(p) == 0 && len(x) == 0 {
		c := append([]int(nil), r...)
		sort.Ints(c)
		return append(out, c)
	}
	// Pivot: the vertex of P ∪ X with most neighbours in P.
	pivot, best := -1, -1
	for _, cand := range [][]int{p, x} {
		for _, u := range cand {
			cnt := 0
			for _, w := range p {
				if _, ok := g.adj[u][w]; ok {
					cnt++
				}
			}
			if cnt > best {
				pivot, best = u, cnt
			}
		}
	}
	// Iterate over P \ N(pivot).
	cands := make([]int, 0, len(p))
	for _, v := range p {
		if _, ok := g.adj[pivot][v]; !ok {
			cands = append(cands, v)
		}
	}
	for _, v := range cands {
		var np, nx []int
		for _, w := range p {
			if _, ok := g.adj[v][w]; ok {
				np = append(np, w)
			}
		}
		for _, w := range x {
			if _, ok := g.adj[v][w]; ok {
				nx = append(nx, w)
			}
		}
		out = g.bronKerbosch(append(r, v), np, nx, out)
		// Move v from P to X with an order-preserving delete: rebuilding
		// P through a scratch set would reintroduce map-iteration order
		// into the recursion.
		keep := p[:0]
		for _, w := range p {
			if w != v {
				keep = append(keep, w)
			}
		}
		p = keep
		x = append(x, v)
	}
	return out
}

// degeneracyOrder returns vertices in degeneracy order (repeatedly remove
// the minimum-degree vertex), which bounds the outer Bron–Kerbosch level.
func (g *Undirected) degeneracyOrder() []int {
	deg := make([]int, g.n)
	removed := make([]bool, g.n)
	// Bucket queue over degrees.
	buckets := make([]map[int]struct{}, g.n+1)
	for v := 0; v < g.n; v++ {
		d := len(g.adj[v])
		deg[v] = d
		if buckets[d] == nil {
			buckets[d] = make(map[int]struct{})
		}
		buckets[d][v] = struct{}{}
	}
	order := make([]int, 0, g.n)
	cur := 0
	for len(order) < g.n {
		for cur < len(buckets) && (buckets[cur] == nil || len(buckets[cur]) == 0) {
			cur++
		}
		if cur == len(buckets) {
			break
		}
		// Take the smallest vertex in the bucket rather than an arbitrary
		// one: map iteration order would otherwise leak into the
		// degeneracy order and hence into the order cliques are found.
		v := -1
		for u := range buckets[cur] {
			if v < 0 || u < v {
				v = u
			}
		}
		delete(buckets[cur], v)
		removed[v] = true
		order = append(order, v)
		for u := range g.adj[v] {
			if removed[u] {
				continue
			}
			d := deg[u]
			delete(buckets[d], u)
			deg[u] = d - 1
			if buckets[d-1] == nil {
				buckets[d-1] = make(map[int]struct{})
			}
			buckets[d-1][u] = struct{}{}
			if d-1 < cur {
				cur = d - 1
			}
		}
	}
	return order
}

func lessIntSlices(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
