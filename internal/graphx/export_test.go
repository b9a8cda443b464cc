package graphx

// Methods and functions only tests call live here, so the package
// exports nothing that production code does not use.

// Edges returns the total number of directed edges.
func (g *Graph) Edges() int {
	n := 0
	for _, es := range g.Out {
		n += len(es)
	}
	return n
}

// TotalWeight returns the sum of all directed edge weights.
func (g *Graph) TotalWeight() float64 {
	var s float64
	for _, es := range g.Out {
		for _, e := range es {
			s += e.Weight
		}
	}
	return s
}

// ConnectedComponents labels vertices of the undirected view of g with
// component ids (0-based, ordered by first-seen vertex).
func (g *Graph) ConnectedComponents() []int {
	und := g.Undirected()
	comp := make([]int, und.N())
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	var stack []int
	for v := range comp {
		if comp[v] != -1 {
			continue
		}
		stack = append(stack[:0], v)
		comp[v] = next
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range und.Out[u] {
				if comp[e.To] == -1 {
					comp[e.To] = next
					stack = append(stack, e.To)
				}
			}
		}
		next++
	}
	return comp
}
