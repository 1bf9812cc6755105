// Package graph provides the conflict-graph substrate for the holiday
// gathering problem: an immutable adjacency-list graph, a mutable builder,
// a dynamic (edge insert/delete) variant, a zoo of generators used by the
// experiment harness, and structural property checks.
//
// A Graph made from an edge list (most generators, NewFromEdges,
// ReadEdgeList, and the serving layer's creates and restores) comes out of
// a Builder, which collects the edges in a slice and builds by counting
// degrees into one shared neighbor array, each list clipped to its length.
//
// Nodes are dense integers 0..N()-1. In the paper's terminology a node is a
// parent and an edge joins two parents whose children are married to each
// other (a "couple").
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is an immutable undirected simple graph with nodes 0..n-1.
// Neighbor lists are sorted, deduplicated, and free of self-loops.
//
// The zero value is the empty graph with no nodes.
type Graph struct {
	adj [][]int
	m   int
}

// Edge is an undirected edge between two nodes. Canonical form has U < V.
type Edge struct {
	U, V int
}

// Canon returns e with endpoints ordered so that U <= V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// NewFromEdges builds a graph with n nodes from the given edge list.
// Self-loops are rejected; duplicate edges (in either orientation) are
// collapsed. Endpoints must lie in [0, n).
func NewFromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative node count %d", n)
	}
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdgeErr(e.U, e.V); err != nil {
			return nil, err
		}
	}
	return b.Graph(), nil
}

// MustFromEdges is NewFromEdges but panics on error. Intended for tests and
// examples with literal edge lists.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := NewFromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of (undirected) edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the sorted neighbor list of v. The returned slice is
// shared with the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// Adjacent reports whether nodes u and v share an edge.
func (g *Graph) Adjacent(u, v int) bool {
	a := g.adj[u]
	i := sort.SearchInts(a, v)
	return i < len(a) && a[i] == v
}

// Edges returns all edges in canonical (U < V) order, sorted
// lexicographically.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if u < v {
				es = append(es, Edge{u, v})
			}
		}
	}
	return es
}

// EdgePairs returns the edges of Edges as [u, v] pairs, the form the
// serving layer's create records and community states carry.
func (g *Graph) EdgePairs() [][2]int {
	ps := make([][2]int, 0, g.m)
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if u < v {
				ps = append(ps, [2]int{u, v})
			}
		}
	}
	return ps
}

// Degrees returns the degree sequence indexed by node.
func (g *Graph) Degrees() []int {
	d := make([]int, g.N())
	for v := range g.adj {
		d[v] = len(g.adj[v])
	}
	return d
}

// MaxDegree returns Δ(G), the maximum degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := range g.adj {
		if len(g.adj[v]) > max {
			max = len(g.adj[v])
		}
	}
	return max
}

// MinDegree returns the minimum degree, or 0 for a graph with no nodes.
func (g *Graph) MinDegree() int {
	if g.N() == 0 {
		return 0
	}
	min := len(g.adj[0])
	for v := range g.adj {
		if len(g.adj[v]) < min {
			min = len(g.adj[v])
		}
	}
	return min
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	adj := make([][]int, len(g.adj))
	for v := range g.adj {
		adj[v] = append([]int(nil), g.adj[v]...)
	}
	return &Graph{adj: adj, m: g.m}
}

// IsIndependent reports whether set (a list of node ids, possibly with
// duplicates) induces no edge of g.
func (g *Graph) IsIndependent(set []int) bool {
	in := make(map[int]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	for v := range in {
		for _, u := range g.adj[v] {
			if in[u] {
				return false
			}
		}
	}
	return true
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d Δ=%d}", g.N(), g.M(), g.MaxDegree())
}

// Builder accumulates edges and produces an immutable Graph. The node count
// grows automatically to cover every referenced endpoint.
//
// It keeps each AddEdge call's edge, repeats included, as one 16-byte
// canonical Edge for as long as it lives, and Graph builds by counting:
// one pass counts each node's degree, a second places every neighbor in
// one array shared by all the lists, in the order the edges were added,
// and each list is then sorted (only if out of order) and its repeats
// dropped. Edges added in canonical order, as a restore adds them, leave
// every list sorted, so that build is O(n + m) and hashes nothing.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a builder with an initial node count of n.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v}, growing the node count if
// needed. Self-loops panic; use AddEdgeErr for error-returning validation.
func (b *Builder) AddEdge(u, v int) {
	if err := b.addEdge(u, v, true); err != nil {
		panic(err)
	}
}

// AddEdgeErr records the undirected edge {u, v} without growing the node
// count; endpoints outside [0, n) and self-loops are errors.
func (b *Builder) AddEdgeErr(u, v int) error {
	return b.addEdge(u, v, false)
}

func (b *Builder) addEdge(u, v int, grow bool) error {
	if u < 0 || v < 0 {
		return fmt.Errorf("graph: negative node id (%d, %d)", u, v)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at node %d", u)
	}
	if grow {
		if u >= b.n {
			b.n = u + 1
		}
		if v >= b.n {
			b.n = v + 1
		}
	} else if u >= b.n || v >= b.n {
		return fmt.Errorf("graph: edge (%d, %d) outside node range [0, %d)", u, v, b.n)
	}
	b.edges = append(b.edges, Edge{u, v}.Canon())
	return nil
}

// Grow ensures the builder covers at least n nodes.
func (b *Builder) Grow(n int) {
	if n > b.n {
		b.n = n
	}
}

// Graph freezes the builder into an immutable Graph, leaving the builder
// usable. The neighbor lists share one array, each clipped to its length
// so that an append copies it; a node with no edge has a nil list.
func (b *Builder) Graph() *Graph {
	// end[v] counts v's neighbors, then is where v's next one goes, so
	// after the fill it is where v's list ends in nbr.
	end := make([]int, b.n)
	for _, e := range b.edges {
		end[e.U]++
		end[e.V]++
	}
	start := 0
	for v, d := range end {
		end[v] = start
		start += d
	}
	nbr := make([]int, start)
	for _, e := range b.edges {
		nbr[end[e.U]] = e.V
		end[e.U]++
		nbr[end[e.V]] = e.U
		end[e.V]++
	}
	adj := make([][]int, b.n)
	degSum, lo := 0, 0
	for v, hi := range end {
		ns := nbr[lo:hi]
		lo = hi
		if len(ns) == 0 {
			continue
		}
		if !slices.IsSorted(ns) {
			slices.Sort(ns)
		}
		ns = slices.Compact(ns)
		adj[v] = ns[:len(ns):len(ns)]
		degSum += len(ns)
	}
	return &Graph{adj: adj, m: degSum / 2}
}
