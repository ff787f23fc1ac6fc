package graph

import (
	"math/rand"
)

// RandomAverageDegree generates the synthetic workload of §6.1: a graph on n
// nodes where each edge appears independently with probability
// avgdeg/(n−1), so the expected average degree is avgdeg.
func RandomAverageDegree(rng *rand.Rand, n int, avgdeg float64) *Graph {
	if n <= 1 {
		return New(max(n, 0))
	}
	p := avgdeg / float64(n-1)
	if p > 1 {
		p = 1
	}
	return RandomGNP(rng, n, p)
}

// RandomGNP generates an Erdős–Rényi G(n, p) graph.
func RandomGNP(rng *rand.Rand, n int, p float64) *Graph {
	g := New(n)
	if p <= 0 {
		return g
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// RandomGNM generates a uniform random graph with exactly m edges (capped at
// the complete-graph count).
func RandomGNM(rng *rand.Rand, n, m int) *Graph {
	g := New(n)
	maxEdges := n * (n - 1) / 2
	if m > maxEdges {
		m = maxEdges
	}
	for g.NumEdges() < m {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// RandomClustered generates a graph with a controllable triangle density: it
// starts from G(n, m·(1−triadFraction)) and then repeatedly performs triadic
// closures (connecting two neighbors of a random node) until m edges exist.
// triadFraction in [0,1] steers the share of closure edges; higher values
// give collaboration-network-like triangle counts, low values power-grid-like
// ones. This is the stand-in generator for the paper's real datasets (see
// DESIGN.md, substitutions).
func RandomClustered(rng *rand.Rand, n, m int, triadFraction float64) *Graph {
	if triadFraction < 0 {
		triadFraction = 0
	}
	if triadFraction > 1 {
		triadFraction = 1
	}
	maxEdges := n * (n - 1) / 2
	if m > maxEdges {
		m = maxEdges
	}
	base := int(float64(m) * (1 - triadFraction))
	if base < 1 && m > 0 {
		base = 1
	}
	g := RandomGNM(rng, n, base)
	attempts := 0
	for g.NumEdges() < m && attempts < 200*m+1000 {
		attempts++
		w := rng.Intn(n)
		nbrs := g.Neighbors(w)
		if len(nbrs) < 2 {
			// Fall back to a random edge so sparse starts still make progress.
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
			continue
		}
		i := rng.Intn(len(nbrs))
		j := rng.Intn(len(nbrs))
		if i != j {
			g.AddEdge(nbrs[i], nbrs[j])
		}
	}
	// Top up with random edges if closures saturated.
	for g.NumEdges() < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}
