package main

import (
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// netGraph is one generated network: the edge list the benchmark sends, its
// pre-encoded wire form, and (built on first use by the output check) the
// benchmark's own adjacency lists.
type netGraph struct {
	n     int
	edges [][2]int
	wire  []byte // {"n":…,"edges":[[u,v],…]}
	adj   [][]int32
}

func newNetGraph(n int, edges [][2]int) *netGraph {
	b := make([]byte, 0, 16+12*len(edges))
	b = append(b, `{"n":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, `,"edges":[`...)
	for i, e := range edges {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(e[0]), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(e[1]), 10)
		b = append(b, ']')
	}
	b = append(b, "]}"...)
	return &netGraph{n: n, edges: edges, wire: b}
}

func fromGraph(g *graph.Graph) *netGraph {
	edges := make([][2]int, 0, g.M())
	g.Edges(func(u, v int) { edges = append(edges, [2]int{u, v}) })
	return newNetGraph(g.N(), edges)
}

// adjacency returns the benchmark's own adjacency lists of the graph, built
// from the edge list it sent rather than from the program's graph type.
func (ng *netGraph) adjacency() [][]int32 {
	if ng.adj == nil {
		adj := make([][]int32, ng.n)
		for _, e := range ng.edges {
			adj[e[0]] = append(adj[e[0]], int32(e[1]))
			adj[e[1]] = append(adj[e[1]], int32(e[0]))
		}
		ng.adj = adj
	}
	return ng.adj
}

// gnp draws G(n, p) with expected average degree deg.
func gnp(n int, deg float64, src *rng.Source) *netGraph {
	return fromGraph(gen.GNP(n, deg/float64(n-1), src))
}

// udg scatters n nodes in the unit square with the radius that gives an
// expected average degree of about deg away from the border.
func udg(n int, deg float64, src *rng.Source) *netGraph {
	g, _ := gen.RandomUDG(n, 1, math.Sqrt(deg/(math.Pi*float64(n))), src)
	return fromGraph(g)
}

// relabeledGrid is a rows×cols grid under a random node relabeling, so every
// copy has a distinct wire form and fingerprint while the structure the
// auto portfolio certifies stays the same.
func relabeledGrid(rows, cols int, src *rng.Source) *netGraph {
	perm := src.Perm(rows * cols)
	var edges [][2]int
	gen.Grid(rows, cols).Edges(func(u, v int) {
		edges = append(edges, [2]int{perm[u], perm[v]})
	})
	return newNetGraph(rows*cols, edges)
}

func batteries(n, lo, hi int, src *rng.Source) []int {
	b := make([]int, n)
	for v := range b {
		b[v] = lo + src.Intn(hi-lo+1)
	}
	return b
}

// schedReq is one POST /v1/schedule request as the benchmark generated it.
// The output check and the lifetime bound read the instance from here, not
// from anything the server returns.
type schedReq struct {
	g         *netGraph
	alg       string
	refine    string
	battery   int   // uniform budget when batteries is nil
	batteries []int // per-node budgets
	k         int
	tries     int
	budget    int
	shards    int
	seed      uint64
}

// appendBody encodes the request as the service's JSON wire form.
func (r *schedReq) appendBody(b []byte) []byte {
	b = append(b, `{"seed":`...)
	b = strconv.AppendUint(b, r.seed, 10)
	b = append(b, `,"algorithm":"`...)
	b = append(b, r.alg...)
	b = append(b, '"')
	if r.refine != "" {
		b = append(b, `,"refine":"`...)
		b = append(b, r.refine...)
		b = append(b, '"')
	}
	b = appendIntField(b, "k", r.k)
	b = appendIntField(b, "tries", r.tries)
	b = appendIntField(b, "budget", r.budget)
	b = appendIntField(b, "shards", r.shards)
	if r.batteries != nil {
		b = append(b, `,"batteries":[`...)
		for i, x := range r.batteries {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(x), 10)
		}
		b = append(b, ']')
	} else {
		b = appendIntField(b, "battery", r.battery)
	}
	b = append(b, `,"graph":`...)
	b = append(b, r.g.wire...)
	return append(b, '}')
}

func appendIntField(b []byte, name string, v int) []byte {
	if v == 0 {
		return b
	}
	b = append(b, `,"`...)
	b = append(b, name...)
	b = append(b, `":`...)
	return strconv.AppendInt(b, int64(v), 10)
}

func (r *schedReq) tolerance() int {
	if r.k < 1 {
		return 1
	}
	return r.k
}

func (r *schedReq) budgets() []int {
	if r.batteries != nil {
		return r.batteries
	}
	b := make([]int, r.g.n)
	for v := range b {
		b[v] = r.battery
	}
	return b
}

// bound is the certified upper bound on the optimal lifetime of the
// request's instance: Lemma 6.1 for k > 1, Lemma 5.1 for per-node budgets,
// Lemma 4.1 for a uniform battery.
func (r *schedReq) bound() int {
	g := graph.NewFromEdges(r.g.n, r.g.edges)
	switch {
	case r.tolerance() > 1:
		return core.KTolerantUpperBound(g, r.battery, r.tolerance())
	case r.batteries != nil:
		return core.GeneralUpperBound(g, r.batteries)
	}
	return core.UniformUpperBound(g, r.battery)
}

// mix64 is the splitmix64 finalizer: a fixed bijection used to derive
// per-request values from the workload seed and the request index.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
