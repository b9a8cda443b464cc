// Package graphx provides the weighted graph type used by the unsupervised
// DarkVec stage (§7.1): a directed graph whose vertices are embedding rows,
// with each vertex linked to its k′ nearest neighbours, edge weight = cosine
// similarity.
package graphx

import (
	"fmt"

	"github.com/darkvec/darkvec/internal/embed"
)

// Edge is one directed, weighted edge.
type Edge struct {
	To     int
	Weight float64
}

// Graph is an adjacency-list directed graph with float64 weights.
type Graph struct {
	Out [][]Edge
}

// New returns an empty graph with n vertices.
func New(n int) *Graph { return &Graph{Out: make([][]Edge, n)} }

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.Out) }

// AddEdge appends a directed edge u→v. It panics on out-of-range vertices;
// negative weights are rejected because modularity is undefined for them.
func (g *Graph) AddEdge(u, v int, w float64) {
	if u < 0 || u >= len(g.Out) || v < 0 || v >= len(g.Out) {
		panic(fmt.Sprintf("graphx: edge (%d,%d) out of range [0,%d)", u, v, len(g.Out)))
	}
	if w < 0 {
		panic("graphx: negative edge weight")
	}
	g.Out[u] = append(g.Out[u], Edge{To: v, Weight: w})
}

// Undirected collapses the graph to a symmetric weighted graph: the weight
// between u and v is the sum of both directed weights. Self-loops are kept.
// Community detection operates on this view.
func (g *Graph) Undirected() *Graph {
	und := New(g.N())
	acc := make(map[int64]float64)
	key := func(u, v int) int64 {
		if u > v {
			u, v = v, u
		}
		return int64(u)<<32 | int64(v)
	}
	for u, es := range g.Out {
		for _, e := range es {
			acc[key(u, e.To)] += e.Weight
		}
	}
	for k, w := range acc {
		u, v := int(k>>32), int(k&0xffffffff)
		und.Out[u] = append(und.Out[u], Edge{To: v, Weight: w})
		if u != v {
			und.Out[v] = append(und.Out[v], Edge{To: u, Weight: w})
		}
	}
	return und
}

// KNNGraph builds the paper's k′-NN graph over an embedding space: vertex i
// has a directed edge to each of its kPrime nearest neighbours, weighted by
// cosine similarity. Negative cosines are clamped to a tiny positive weight
// so the edge survives (the neighbour relation is what matters) without
// breaking modularity. The neighbour lists come from one batched AllKNN
// pass, so the search fans out across the space's Parallelism() workers;
// the resulting graph is identical for any worker count.
func KNNGraph(s *embed.Space, kPrime int) *Graph {
	g := New(s.Len())
	for i, nn := range s.AllKNN(kPrime) {
		for _, n := range nn {
			w := n.Sim
			if w <= 0 {
				w = 1e-9
			}
			g.AddEdge(i, n.Row, w)
		}
	}
	return g
}
