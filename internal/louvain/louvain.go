// Package louvain implements the Louvain community detection algorithm
// (Blondel et al. 2008) from scratch: repeated local modularity-gain moves
// followed by graph aggregation, until modularity stops improving. DarkVec
// uses it to extract clusters from the k′-NN similarity graph (§7.1).
package louvain

import (
	"sort"

	"github.com/darkvec/darkvec/internal/graphx"
	"github.com/darkvec/darkvec/internal/netutil"
)

// Result is a completed community assignment.
type Result struct {
	// Community[v] is the community id of vertex v; ids are compacted to
	// 0..Communities-1 ordered by decreasing community size.
	Community   []int
	Communities int
	Modularity  float64
}

// Options tune the algorithm.
type Options struct {
	Seed uint64 // vertex visiting order shuffle seed; 0 means 1
}

// Run detects communities on the undirected view of g.
func Run(g *graphx.Graph, opts Options) Result {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	und := g.Undirected()
	n := und.N()
	// node2final[v] tracks the running assignment of original vertices.
	node2final := make([]int, n)
	for i := range node2final {
		node2final[i] = i
	}
	cur := und
	level := 0
	rng := netutil.NewRand(opts.Seed)
	for {
		comm, improved := onePass(cur, rng)
		if !improved && level > 0 {
			break
		}
		// Renumber communities compactly.
		renum := map[int]int{}
		for _, c := range comm {
			if _, ok := renum[c]; !ok {
				renum[c] = len(renum)
			}
		}
		for v := range comm {
			comm[v] = renum[comm[v]]
		}
		for v := range node2final {
			node2final[v] = comm[node2final[v]]
		}
		if !improved {
			break
		}
		cur = aggregate(cur, comm, len(renum))
		level++
		if cur.N() == len(renum) && cur.N() == 1 {
			break
		}
	}
	return finalize(und, node2final)
}

// onePass runs local move optimisation on g, returning the community of
// each vertex and whether any move improved modularity.
func onePass(g *graphx.Graph, rng *netutil.Rand) ([]int, bool) {
	n := g.N()
	comm := make([]int, n)
	degree := make([]float64, n)   // weighted degree incl. self-loops counted twice
	selfLoop := make([]float64, n) // self-loop weight
	var m2 float64                 // 2m: total of degrees
	for v := 0; v < n; v++ {
		comm[v] = v
		for _, e := range g.Out[v] {
			if e.To == v {
				selfLoop[v] += e.Weight
				degree[v] += 2 * e.Weight
			} else {
				degree[v] += e.Weight
			}
		}
		m2 += degree[v]
	}
	if m2 == 0 {
		return comm, false
	}
	commTot := append([]float64(nil), degree...) // Σtot per community
	order := rng.Perm(n)
	improvedEver := false
	for iter := 0; iter < 64; iter++ {
		moves := 0
		for _, v := range order {
			// Weights from v to each neighbouring community.
			links := map[int]float64{}
			for _, e := range g.Out[v] {
				if e.To == v {
					continue
				}
				links[comm[e.To]] += e.Weight
			}
			old := comm[v]
			commTot[old] -= degree[v]
			// Gain of moving v into community c:
			//   k_{v,in}(c) - Σtot(c)·k_v / 2m
			best, bestGain := old, links[old]-commTot[old]*degree[v]/m2
			cands := make([]int, 0, len(links))
			for c := range links {
				cands = append(cands, c)
			}
			sort.Ints(cands) // deterministic tie-breaking
			for _, c := range cands {
				gain := links[c] - commTot[c]*degree[v]/m2
				if gain > bestGain+1e-12 {
					best, bestGain = c, gain
				}
			}
			comm[v] = best
			commTot[best] += degree[v]
			if best != old {
				moves++
				improvedEver = true
			}
		}
		if moves == 0 {
			break
		}
	}
	return comm, improvedEver
}

// aggregate builds the community-level graph: one vertex per community,
// edge weights summed, intra-community weight becoming self-loops, every
// adjacency list in ascending To.
func aggregate(g *graphx.Graph, comm []int, k int) *graphx.Graph {
	acc := map[int64]float64{}
	for v, es := range g.Out {
		for _, e := range es {
			// Undirected view stores u≠v edges in both directions; halve to
			// avoid double counting, keep self-loops as-is.
			w := e.Weight
			if e.To != v {
				w /= 2
			}
			acc[graphx.PairKey(comm[v], comm[e.To])] += w
		}
	}
	return graphx.FromPairs(k, acc)
}

// finalize compacts community ids by decreasing size and computes the final
// modularity on the original undirected graph.
func finalize(und *graphx.Graph, comm []int) Result {
	sizes := map[int]int{}
	for _, c := range comm {
		sizes[c]++
	}
	ids := make([]int, 0, len(sizes))
	for c := range sizes {
		ids = append(ids, c)
	}
	sort.Slice(ids, func(i, j int) bool {
		if sizes[ids[i]] != sizes[ids[j]] {
			return sizes[ids[i]] > sizes[ids[j]]
		}
		return ids[i] < ids[j]
	})
	renum := make(map[int]int, len(ids))
	for i, c := range ids {
		renum[c] = i
	}
	out := make([]int, len(comm))
	for v, c := range comm {
		out[v] = renum[c]
	}
	return Result{
		Community:   out,
		Communities: len(ids),
		Modularity:  Modularity(und, out),
	}
}

// Modularity computes Newman modularity of an assignment on the undirected
// view of g (pass an already-undirected graph to avoid re-symmetrising).
func Modularity(g *graphx.Graph, comm []int) float64 {
	n := g.N()
	ids := 0
	for _, c := range comm {
		ids = max(ids, c+1)
	}
	degree := make([]float64, n)
	var m2 float64
	// Per-community sums in slices, so the totals below run in id order.
	inWeight := make([]float64, ids)
	totWeight := make([]float64, ids)
	for v := 0; v < n; v++ {
		for _, e := range g.Out[v] {
			if e.To == v {
				degree[v] += 2 * e.Weight
				inWeight[comm[v]] += 2 * e.Weight
			} else {
				degree[v] += e.Weight
				if comm[e.To] == comm[v] {
					inWeight[comm[v]] += e.Weight
				}
			}
		}
		m2 += degree[v]
	}
	if m2 == 0 {
		return 0
	}
	for v := 0; v < n; v++ {
		totWeight[comm[v]] += degree[v]
	}
	var q float64
	for _, in := range inWeight {
		q += in / m2
	}
	for _, tot := range totWeight {
		q -= (tot / m2) * (tot / m2)
	}
	// Communities with no internal weight still contribute the -Σtot² term,
	// handled above since totWeight covers all communities.
	return q
}
