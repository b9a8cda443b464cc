// Package graphx provides the weighted graph type used by the unsupervised
// DarkVec stage (§7.1): a directed graph whose vertices are embedding rows,
// with each vertex linked to its k′ nearest neighbours, edge weight = cosine
// similarity.
package graphx

import (
	"fmt"
	"slices"

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
// Every adjacency list is in ascending To, so every sum over it — and the
// modularity community detection computes on this view — runs in one order.
func (g *Graph) Undirected() *Graph {
	acc := make(map[int64]float64)
	for u, es := range g.Out {
		for _, e := range es {
			acc[PairKey(u, e.To)] += e.Weight
		}
	}
	return FromPairs(g.N(), acc)
}

// PairKey packs the unordered vertex pair {u, v} into one map key.
func PairKey(u, v int) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)<<32 | int64(v)
}

// FromPairs builds the symmetric graph whose edge {u, v} weighs
// acc[PairKey(u, v)]. Keys are visited in ascending order, which leaves
// every adjacency list in ascending To.
func FromPairs(n int, acc map[int64]float64) *Graph {
	keys := make([]int64, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	g := New(n)
	for _, k := range keys {
		u, v, w := int(k>>32), int(k&0xffffffff), acc[k]
		g.Out[u] = append(g.Out[u], Edge{To: v, Weight: w})
		if u != v {
			g.Out[v] = append(g.Out[v], Edge{To: u, Weight: w})
		}
	}
	return g
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
