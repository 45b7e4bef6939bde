// Package graph implements the undirected network graph model of the paper:
// nodes are vertices, an edge {u,v} means u and v are within communication
// range of each other. Edges are undirected (the paper assumes link-level
// acknowledgements make links symmetric).
//
// The representation is a compact adjacency list with sorted neighbor
// slices. Node IDs are dense integers in [0, N). The package also provides
// the degree statistics the algorithms consume: per-node degree δ_v, global
// minimum degree δ and maximum degree Δ, and the two-hop minimum degree
// δ²_v = min_{u ∈ N+[v]} δ_u that Algorithm 1 computes with one message
// exchange.
package graph

import (
	"fmt"
	"sort"
)

// Graph is an undirected simple graph over nodes 0..N()-1. The zero value is
// an empty graph; use New or a builder from package gen.
type Graph struct {
	adj [][]int32 // sorted neighbor lists
	m   int       // number of edges
}

// New returns an empty graph with n isolated nodes. It panics if n < 0.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{adj: make([][]int32, n)}
}

// NewFromEdges builds a graph in O(n + m log Δ): it buckets all edges per
// node first and sorts each adjacency list once, instead of the O(Δ) insert
// per edge that AddEdge pays. Self-loops and duplicate edges are rejected
// with a panic, matching AddEdge's contract. Generators use this fast path.
func NewFromEdges(n int, edges [][2]int) *Graph {
	g := New(n)
	deg := make([]int, n)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			panic(fmt.Sprintf("graph: self-loop at node %d", u))
		}
		g.checkNode(u)
		g.checkNode(v)
		deg[u]++
		deg[v]++
	}
	for v, d := range deg {
		g.adj[v] = make([]int32, 0, d)
	}
	for _, e := range edges {
		g.adj[e[0]] = append(g.adj[e[0]], int32(e[1]))
		g.adj[e[1]] = append(g.adj[e[1]], int32(e[0]))
	}
	for v := range g.adj {
		s := g.adj[v]
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		for i := 1; i < len(s); i++ {
			if s[i] == s[i-1] {
				panic(fmt.Sprintf("graph: duplicate edge {%d, %d}", v, s[i]))
			}
		}
	}
	g.m = len(edges)
	return g
}

// PackEdge packs the undirected edge {u, v} into one word, the smaller
// endpoint in the high half: uint64(min)<<32 | uint64(max). Packed edges
// sort in the order Edges visits them, which is what NewFromSortedPairs and
// Hasher.EdgePairs rely on. Both endpoints must lie in [0, 1<<31).
func PackEdge(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// UnpackEdge is the inverse of PackEdge: it returns the endpoints u <= v.
func UnpackEdge(p uint64) (u, v int) {
	return int(p >> 32), int(uint32(p))
}

// NewFromSortedPairs builds a graph from edges that are already canonical:
// packed by PackEdge, strictly ascending (so distinct), without self-loops
// and with endpoints in [0, n). Visiting the pairs in order appends every
// neighbor list in ascending order, so unlike NewFromEdges it sorts
// nothing, and all neighbor lists share one backing array. A pair that
// breaks the contract panics, matching NewFromEdges.
func NewFromSortedPairs(n int, pairs []uint64) *Graph {
	g := New(n)
	deg := make([]int, n)
	for i, p := range pairs {
		u, v := UnpackEdge(p)
		if u == v {
			panic(fmt.Sprintf("graph: self-loop at node %d", u))
		}
		if u > v {
			panic(fmt.Sprintf("graph: pair %d is not packed by PackEdge", i))
		}
		g.checkNode(v)
		if i > 0 && pairs[i-1] >= p {
			panic(fmt.Sprintf("graph: edge pairs not strictly ascending at %d", i))
		}
		deg[u]++
		deg[v]++
	}
	backing := make([]int32, 2*len(pairs))
	off := 0
	for v, d := range deg {
		// The capacity cap keeps AddEdge's append from writing into the
		// next node's list.
		g.adj[v] = backing[off : off : off+d]
		off += d
	}
	for _, p := range pairs {
		u, v := UnpackEdge(p)
		g.adj[u] = append(g.adj[u], int32(v))
		g.adj[v] = append(g.adj[v], int32(u))
	}
	g.m = len(pairs)
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicate edges
// are rejected with a panic: the network model is a simple graph and silent
// deduplication would hide generator bugs.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	g.checkNode(u)
	g.checkNode(v)
	if g.HasEdge(u, v) {
		panic(fmt.Sprintf("graph: duplicate edge {%d, %d}", u, v))
	}
	g.adj[u] = insertSorted(g.adj[u], int32(v))
	g.adj[v] = insertSorted(g.adj[v], int32(u))
	g.m++
}

// AddEdgeIfAbsent inserts {u, v} unless it already exists or u == v.
// It reports whether the edge was added. Generators that may propose the
// same pair twice (e.g. G(n,m) sampling) use this instead of AddEdge.
func (g *Graph) AddEdgeIfAbsent(u, v int) bool {
	if u == v {
		return false
	}
	g.checkNode(u)
	g.checkNode(v)
	if g.HasEdge(u, v) {
		return false
	}
	g.adj[u] = insertSorted(g.adj[u], int32(v))
	g.adj[v] = insertSorted(g.adj[v], int32(u))
	g.m++
	return true
}

func (g *Graph) checkNode(v int) {
	if v < 0 || v >= len(g.adj) {
		panic(fmt.Sprintf("graph: node %d out of range [0, %d)", v, len(g.adj)))
	}
}

func insertSorted(s []int32, v int32) []int32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.checkNode(u)
	g.checkNode(v)
	s := g.adj[u]
	i := sort.Search(len(s), func(i int) bool { return s[i] >= int32(v) })
	return i < len(s) && s[i] == int32(v)
}

// Neighbors returns the sorted open neighborhood N(v). The returned slice is
// shared with the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	g.checkNode(v)
	return g.adj[v]
}

// Degree returns δ_v = |N(v)|.
func (g *Graph) Degree(v int) int {
	g.checkNode(v)
	return len(g.adj[v])
}

// MinDegree returns δ = min_v δ_v, or 0 for the empty graph.
func (g *Graph) MinDegree() int {
	if len(g.adj) == 0 {
		return 0
	}
	min := len(g.adj[0])
	for _, nbrs := range g.adj[1:] {
		if len(nbrs) < min {
			min = len(nbrs)
		}
	}
	return min
}

// MaxDegree returns Δ = max_v δ_v, or 0 for the empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for _, nbrs := range g.adj {
		if len(nbrs) > max {
			max = len(nbrs)
		}
	}
	return max
}

// TwoHopMinDegree returns δ²_v = min_{u ∈ N+[v]} δ_u for every node: the
// quantity each node learns after a single exchange of degrees with its
// neighbors (line 3 of Algorithm 1 in the paper).
func (g *Graph) TwoHopMinDegree() []int {
	out := make([]int, len(g.adj))
	for v, nbrs := range g.adj {
		min := len(nbrs)
		for _, u := range nbrs {
			if d := len(g.adj[u]); d < min {
				min = d
			}
		}
		out[v] = min
	}
	return out
}

// ClosedNeighborhood returns N+[v] = N(v) ∪ {v} as a sorted fresh slice.
func (g *Graph) ClosedNeighborhood(v int) []int32 {
	g.checkNode(v)
	out := make([]int32, 0, len(g.adj[v])+1)
	inserted := false
	for _, u := range g.adj[v] {
		if !inserted && int32(v) < u {
			out = append(out, int32(v))
			inserted = true
		}
		out = append(out, u)
	}
	if !inserted {
		out = append(out, int32(v))
	}
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]int32, len(g.adj)), m: g.m}
	for v, nbrs := range g.adj {
		c.adj[v] = append([]int32(nil), nbrs...)
	}
	return c
}

// Edges calls fn once per undirected edge with u < v.
func (g *Graph) Edges(fn func(u, v int)) {
	for u, nbrs := range g.adj {
		for _, w := range nbrs {
			if int32(u) < w {
				fn(u, int(w))
			}
		}
	}
}

// InducedSubgraph returns the subgraph induced by the given nodes together
// with the mapping from new IDs to original IDs. Duplicate nodes panic.
func (g *Graph) InducedSubgraph(nodes []int) (*Graph, []int) {
	idx := make(map[int]int, len(nodes))
	orig := make([]int, len(nodes))
	for i, v := range nodes {
		g.checkNode(v)
		if _, dup := idx[v]; dup {
			panic(fmt.Sprintf("graph: duplicate node %d in induced subgraph", v))
		}
		idx[v] = i
		orig[i] = v
	}
	sub := New(len(nodes))
	for i, v := range nodes {
		for _, u := range g.adj[v] {
			if j, ok := idx[int(u)]; ok && i < j {
				sub.AddEdge(i, j)
			}
		}
	}
	return sub, orig
}

// RemoveNodes returns a copy of g with the given nodes (and incident edges)
// deleted, plus the new-ID → old-ID mapping. Used by failure injection.
func (g *Graph) RemoveNodes(dead []int) (*Graph, []int) {
	isDead := make([]bool, len(g.adj))
	for _, v := range dead {
		g.checkNode(v)
		isDead[v] = true
	}
	keep := make([]int, 0, len(g.adj))
	for v := range g.adj {
		if !isDead[v] {
			keep = append(keep, v)
		}
	}
	return g.InducedSubgraph(keep)
}

// BFS runs a breadth-first search from src and returns the distance slice
// (-1 for unreachable nodes).
func (g *Graph) BFS(src int) []int {
	g.checkNode(src)
	dist := make([]int, len(g.adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.adj[v] {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, int(u))
			}
		}
	}
	return dist
}

// Connected reports whether g is connected. The empty graph and the
// single-node graph are connected.
func (g *Graph) Connected() bool {
	if len(g.adj) <= 1 {
		return true
	}
	for _, d := range g.BFS(0) {
		if d == -1 {
			return false
		}
	}
	return true
}

// Components returns the connected components as slices of node IDs, each
// sorted, in order of smallest member.
func (g *Graph) Components() [][]int {
	seen := make([]bool, len(g.adj))
	var comps [][]int
	for s := range g.adj {
		if seen[s] {
			continue
		}
		comp := []int{s}
		seen[s] = true
		for i := 0; i < len(comp); i++ {
			for _, u := range g.adj[comp[i]] {
				if !seen[u] {
					seen[u] = true
					comp = append(comp, int(u))
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Validate checks internal invariants (sorted, symmetric, simple adjacency)
// and returns an error describing the first violation. Generators call this
// in tests.
func (g *Graph) Validate() error {
	count := 0
	for v, nbrs := range g.adj {
		for i, u := range nbrs {
			if int(u) < 0 || int(u) >= len(g.adj) {
				return fmt.Errorf("node %d: neighbor %d out of range", v, u)
			}
			if int(u) == v {
				return fmt.Errorf("node %d: self-loop", v)
			}
			if i > 0 && nbrs[i-1] >= u {
				return fmt.Errorf("node %d: neighbors not strictly sorted at %d", v, i)
			}
			if !g.HasEdge(int(u), v) {
				return fmt.Errorf("edge {%d,%d} not symmetric", v, u)
			}
			count++
		}
	}
	if count != 2*g.m {
		return fmt.Errorf("edge count %d does not match adjacency size %d", g.m, count)
	}
	return nil
}

// DegreeHistogram returns hist where hist[d] is the number of nodes of
// degree d, for d up to Δ.
func (g *Graph) DegreeHistogram() []int {
	hist := make([]int, g.MaxDegree()+1)
	for _, nbrs := range g.adj {
		hist[len(nbrs)]++
	}
	return hist
}

// AverageDegree returns 2M/N, or 0 for the empty graph.
func (g *Graph) AverageDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(len(g.adj))
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d δ=%d Δ=%d}", g.N(), g.M(), g.MinDegree(), g.MaxDegree())
}
