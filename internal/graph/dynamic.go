package graph

import (
	"fmt"
	"sort"
)

// Dynamic is a mutable undirected simple graph supporting edge insertion and
// deletion, used for the paper's §6 dynamic setting (marriages and divorces
// arriving online). It is not safe for concurrent mutation.
//
// Adjacency is stored as plain neighbor slices rather than per-node hash
// sets: conflict graphs are sparse (average degree stays small even in the
// mega scenarios), so a linear membership scan beats hashing while using a
// fraction of the memory — per-node hash sets cost hundreds of bytes per
// node at 10⁵–10⁶ nodes, which is what used to make million-node
// communities unloadable.
type Dynamic struct {
	adj [][]int
	m   int
}

// NewDynamic returns a dynamic graph with n isolated nodes.
func NewDynamic(n int) *Dynamic {
	return &Dynamic{adj: make([][]int, n)}
}

// DynamicFrom copies a static graph into a dynamic one.
func DynamicFrom(g *Graph) *Dynamic {
	d := &Dynamic{adj: make([][]int, g.N()), m: g.M()}
	for v := range d.adj {
		if ns := g.Neighbors(v); len(ns) > 0 {
			d.adj[v] = append([]int(nil), ns...)
		}
	}
	return d
}

// N returns the number of nodes.
func (d *Dynamic) N() int { return len(d.adj) }

// M returns the number of edges.
func (d *Dynamic) M() int { return d.m }

// Degree returns the current degree of v.
func (d *Dynamic) Degree(v int) int { return len(d.adj[v]) }

// Adjacent reports whether u and v currently share an edge.
func (d *Dynamic) Adjacent(u, v int) bool {
	// Scan the shorter list: checks during churn usually involve one
	// low-degree endpoint.
	a, b := d.adj[u], d.adj[v]
	if len(b) < len(a) {
		a, b = b, a
		u, v = v, u
	}
	for _, w := range a {
		if w == v {
			return true
		}
	}
	return false
}

// AddNode appends an isolated node and returns its id.
func (d *Dynamic) AddNode() int {
	d.adj = append(d.adj, nil)
	return len(d.adj) - 1
}

// AddEdge inserts the undirected edge {u, v}. It reports whether the edge was
// newly inserted (false if it already existed). Self-loops panic.
func (d *Dynamic) AddEdge(u, v int) bool {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	if d.Adjacent(u, v) {
		return false
	}
	d.adj[u] = append(d.adj[u], v)
	d.adj[v] = append(d.adj[v], u)
	d.m++
	return true
}

// RemoveEdge deletes the undirected edge {u, v}, reporting whether it was
// present.
func (d *Dynamic) RemoveEdge(u, v int) bool {
	if !d.removeHalf(u, v) {
		return false
	}
	d.removeHalf(v, u)
	d.m--
	return true
}

// removeHalf deletes v from u's neighbor list by swap-remove, reporting
// whether it was present. Neighbor lists are unordered, so order need not be
// preserved.
func (d *Dynamic) removeHalf(u, v int) bool {
	a := d.adj[u]
	for i, w := range a {
		if w == v {
			a[i] = a[len(a)-1]
			d.adj[u] = a[:len(a)-1]
			return true
		}
	}
	return false
}

// Neighbors returns the unordered neighbor list of v. The returned slice is
// shared with the graph: it is valid only until the next mutation and must
// not be modified.
func (d *Dynamic) Neighbors(v int) []int { return d.adj[v] }

// Snapshot freezes the current edge set into an immutable Graph. A
// Dynamic never holds a duplicate edge or a self-loop, so copying and
// sorting each neighbor list yields the Graph a Builder would, in
// O(n + m log Δ) with no edge map.
func (d *Dynamic) Snapshot() *Graph {
	adj := make([][]int, len(d.adj))
	for v, ns := range d.adj {
		adj[v] = append([]int(nil), ns...)
		sort.Ints(adj[v])
	}
	return &Graph{adj: adj, m: d.m}
}
