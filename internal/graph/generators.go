package graph

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// rng returns a deterministic generator for the given seed. All generators in
// this package are reproducible given (parameters, seed).
func rng(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
}

// Empty returns the graph with n nodes and no edges.
func Empty(n int) *Graph { return NewBuilder(n).Graph() }

// Clique returns the complete graph K_n.
func Clique(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Graph()
}

// Path returns the path 0-1-...-(n-1).
func Path(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v-1, v)
	}
	return b.Graph()
}

// Cycle returns the cycle C_n (requires n >= 3).
func Cycle(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: cycle needs n >= 3, got %d", n))
	}
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v-1, v)
	}
	b.AddEdge(n-1, 0)
	return b.Graph()
}

// Star returns the star with center 0 and n-1 leaves.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.Graph()
}

// Grid returns the rows x cols grid graph.
func Grid(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Graph()
}

// CompleteBipartite returns K_{a,b} with the first a nodes on one side.
func CompleteBipartite(a, b int) *Graph {
	bl := NewBuilder(a + b)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			bl.AddEdge(u, v)
		}
	}
	return bl.Graph()
}

// CompleteKPartite returns the complete multipartite graph with the given
// part sizes: every pair of nodes in different parts is joined.
func CompleteKPartite(sizes ...int) *Graph {
	total := 0
	starts := make([]int, len(sizes))
	for i, s := range sizes {
		starts[i] = total
		total += s
	}
	b := NewBuilder(total)
	for i := range sizes {
		for j := i + 1; j < len(sizes); j++ {
			for u := starts[i]; u < starts[i]+sizes[i]; u++ {
				for v := starts[j]; v < starts[j]+sizes[j]; v++ {
					b.AddEdge(u, v)
				}
			}
		}
	}
	return b.Graph()
}

// GNP returns an Erdős–Rényi G(n, p) random graph.
func GNP(n int, p float64, seed uint64) *Graph {
	r := rng(seed)
	b := NewBuilder(n)
	if p <= 0 {
		return b.Graph()
	}
	if p >= 1 {
		return Clique(n)
	}
	// Geometric skipping over the linearized pair index: only present edges
	// are visited, so expected work is O(p * n^2) = O(m).
	logq := math.Log1p(-p)
	total := n * (n - 1) / 2
	u := 0          // current row
	rowEnd := n - 1 // first linear index beyond row u
	idx := -1
	for {
		skip := int(math.Floor(math.Log(1-r.Float64()) / logq))
		if skip < 0 {
			skip = 0
		}
		idx += 1 + skip
		if idx >= total {
			break
		}
		for idx >= rowEnd {
			u++
			rowEnd += n - 1 - u
		}
		v := u + 1 + (idx - (rowEnd - (n - 1 - u)))
		b.AddEdge(u, v)
	}
	return b.Graph()
}

// RandomBipartite returns a bipartite random graph on parts of size a and b
// where each cross pair is an edge independently with probability p.
func RandomBipartite(a, b int, p float64, seed uint64) *Graph {
	r := rng(seed)
	bl := NewBuilder(a + b)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			if r.Float64() < p {
				bl.AddEdge(u, v)
			}
		}
	}
	return bl.Graph()
}

// RandomTree returns a uniformly random labeled tree on n nodes via a random
// Prüfer sequence.
func RandomTree(n int, seed uint64) *Graph {
	if n <= 1 {
		return Empty(n)
	}
	if n == 2 {
		return MustFromEdges(2, []Edge{{0, 1}})
	}
	r := rng(seed)
	prufer := make([]int, n-2)
	deg := make([]int, n)
	for i := range deg {
		deg[i] = 1
	}
	for i := range prufer {
		prufer[i] = r.IntN(n)
		deg[prufer[i]]++
	}
	b := NewBuilder(n)
	// Standard Prüfer decoding with a scan pointer and a "current leaf".
	ptr := 0
	for deg[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for _, v := range prufer {
		b.AddEdge(leaf, v)
		deg[v]--
		if deg[v] == 1 && v < ptr {
			leaf = v
		} else {
			ptr++
			for deg[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	b.AddEdge(leaf, n-1)
	return b.Graph()
}

// RandomRegular returns a random d-regular graph on n nodes. It starts from
// a deterministic circulant d-regular graph and applies many random
// degree-preserving double-edge swaps (the standard switch-chain sampler,
// which unlike the raw pairing model never rejects). Requires n*d even and
// d < n.
func RandomRegular(n, d int, seed uint64) *Graph {
	if d >= n || n*d%2 != 0 {
		panic(fmt.Sprintf("graph: invalid regular parameters n=%d d=%d", n, d))
	}
	if d == 0 {
		return Empty(n)
	}
	// Circulant base: connect i to i±1, …, i±⌊d/2⌋; if d is odd (then n is
	// even) also to the antipode i+n/2.
	dyn := NewDynamic(n)
	for v := 0; v < n; v++ {
		for k := 1; k <= d/2; k++ {
			dyn.AddEdge(v, (v+k)%n)
		}
		if d%2 == 1 {
			dyn.AddEdge(v, (v+n/2)%n)
		}
	}
	r := rng(seed)
	edges := dyn.Snapshot().Edges()
	swaps := 20 * len(edges)
	for s := 0; s < swaps; s++ {
		i, j := r.IntN(len(edges)), r.IntN(len(edges))
		a, b := edges[i].U, edges[i].V
		c, e := edges[j].U, edges[j].V
		if r.IntN(2) == 1 {
			c, e = e, c
		}
		// Swap (a,b),(c,e) -> (a,c),(b,e) when it keeps the graph simple.
		if a == c || a == e || b == c || b == e {
			continue
		}
		if dyn.Adjacent(a, c) || dyn.Adjacent(b, e) {
			continue
		}
		dyn.RemoveEdge(a, b)
		dyn.RemoveEdge(c, e)
		dyn.AddEdge(a, c)
		dyn.AddEdge(b, e)
		edges[i] = Edge{U: a, V: c}.Canon()
		edges[j] = Edge{U: b, V: e}.Canon()
	}
	return dyn.Snapshot()
}

// PreferentialAttachment returns a Barabási–Albert style power-law graph:
// starting from a clique on m+1 nodes, each new node attaches to m distinct
// existing nodes chosen proportionally to their degree. The result has a
// heavy-tailed degree distribution, the workload the paper's locality goal
// (per-node rather than Δ bounds) is designed for.
// The generator is built for the mega benchmark scenarios: it assembles
// adjacency directly (every edge is unique by construction, so the
// Builder's edge list and dedupe would only burn memory at 10⁵–10⁶
// nodes), dedups targets with a linear scan over at most m candidates, and
// preallocates the repeated-endpoint sampling list at its exact final
// size. It is also fully deterministic: an earlier version iterated the
// per-node target set as a map, which let Go's randomized map order change
// the sampling list — and therefore the generated graph — between runs of
// the same seed.
func PreferentialAttachment(n, m int, seed uint64) *Graph {
	if m < 1 || n < m+1 {
		panic(fmt.Sprintf("graph: invalid preferential attachment parameters n=%d m=%d", n, m))
	}
	r := rng(seed)
	total := m*(m+1)/2 + (n-m-1)*m
	adj := make([][]int, n)
	// Repeated-endpoint list: node v appears deg(v) times, so sampling a
	// uniform element samples proportionally to degree.
	chosenFrom := make([]int, 0, 2*total)
	// Seed clique on nodes 0..m. The loop order leaves every adjacency row
	// sorted ascending, matching the Graph contract.
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
			chosenFrom = append(chosenFrom, u, v)
		}
	}
	targets := make([]int, 0, m)
	for v := m + 1; v < n; v++ {
		targets = targets[:0]
		for len(targets) < m {
			t := chosenFrom[r.IntN(len(chosenFrom))]
			dup := false
			for _, seen := range targets {
				if seen == t {
					dup = true
					break
				}
			}
			if !dup {
				targets = append(targets, t)
			}
		}
		sort.Ints(targets)
		// Each target t is < v and receives v exactly once (only round v
		// can add it), and v itself is new, so rows stay sorted and
		// duplicate-free without a membership check.
		for _, t := range targets {
			adj[t] = append(adj[t], v)
			chosenFrom = append(chosenFrom, v, t)
		}
		adj[v] = append(adj[v], targets...)
	}
	return &Graph{adj: adj, m: total}
}

// Point is a position in the unit square, used by the unit-disk generator
// and the radio application.
type Point struct{ X, Y float64 }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// UnitDisk places n points uniformly in the unit square and joins every pair
// within the given radius: the standard interference model for the paper's
// cellular-radio application. It returns the conflict graph and the points.
func UnitDisk(n int, radius float64, seed uint64) (*Graph, []Point) {
	r := rng(seed)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{r.Float64(), r.Float64()}
	}
	b := NewBuilder(n)
	// Grid-bucket the points so the expected work is near-linear.
	cell := radius
	if cell <= 0 {
		return b.Graph(), pts
	}
	cols := int(1/cell) + 1
	buckets := make(map[[2]int][]int)
	key := func(p Point) [2]int {
		cx, cy := int(p.X/cell), int(p.Y/cell)
		if cx >= cols {
			cx = cols - 1
		}
		if cy >= cols {
			cy = cols - 1
		}
		return [2]int{cx, cy}
	}
	for i, p := range pts {
		buckets[key(p)] = append(buckets[key(p)], i)
	}
	for i, p := range pts {
		k := key(p)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range buckets[[2]int{k[0] + dx, k[1] + dy}] {
					if j > i && p.Dist(pts[j]) <= radius {
						b.AddEdge(i, j)
					}
				}
			}
		}
	}
	return b.Graph(), pts
}
