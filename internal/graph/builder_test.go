package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// modelGraph is the graph a Builder fed edges must return, built the
// obvious way: a set of canonical edges, each appended to both endpoints'
// lists, every list sorted. A node with no edge keeps a nil list.
func modelGraph(n int, edges []Edge) *Graph {
	set := make(map[Edge]bool)
	for _, e := range edges {
		set[e.Canon()] = true
	}
	adj := make([][]int, n)
	for e := range set {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	for v := range adj {
		sort.Ints(adj[v])
	}
	return &Graph{adj: adj, m: len(set)}
}

// randomEdges draws k edges over [0, n) in random orientation, about a
// third of them repeats of an earlier edge, half of those reversed.
func randomEdges(seed uint64, n, k int) []Edge {
	r := rng(seed)
	var es []Edge
	for len(es) < k && n >= 2 {
		if len(es) > 0 && r.IntN(3) == 0 {
			e := es[r.IntN(len(es))]
			if r.IntN(2) == 0 {
				e = Edge{e.V, e.U}
			}
			es = append(es, e)
			continue
		}
		u, v := r.IntN(n), r.IntN(n)
		if u != v {
			es = append(es, Edge{u, v})
		}
	}
	return es
}

// TestBuilderMatchesModelQuick holds Builder.Graph to modelGraph on random
// edge lists with repeats in both orientations, n from 0 to 47 (so n = 0
// and 1, and isolated nodes), built either within a fixed n through
// AddEdgeErr or grown through AddEdge and Grow, then built again after
// more edges. Seeds 0–95 take every n both ways.
func TestBuilderMatchesModelQuick(t *testing.T) {
	check := func(seed uint64) bool {
		n := int(seed % 48)
		es := randomEdges(seed, n, int(seed%7)*n/2)
		more := randomEdges(seed+1, n, n)
		grow := seed/48%2 == 1
		b := NewBuilder(n)
		if grow {
			b = NewBuilder(0)
		}
		add := func(es []Edge) {
			for _, e := range es {
				if grow {
					b.AddEdge(e.U, e.V)
				} else if err := b.AddEdgeErr(e.U, e.V); err != nil {
					t.Fatal(err)
				}
			}
			b.Grow(n)
		}
		add(es)
		first := b.Graph()
		if !reflect.DeepEqual(first, modelGraph(n, es)) {
			t.Logf("seed %d: first build differs", seed)
			return false
		}
		add(more)
		all := append(append([]Edge(nil), es...), more...)
		if !reflect.DeepEqual(b.Graph(), modelGraph(n, all)) {
			t.Logf("seed %d: second build differs", seed)
			return false
		}
		if !reflect.DeepEqual(first, modelGraph(n, es)) {
			t.Logf("seed %d: the second build changed the first graph", seed)
			return false
		}
		return true
	}
	for seed := uint64(0); seed < 96; seed++ {
		if !check(seed) {
			t.FailNow()
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBuilderClipsNeighborLists: the built lists share one array, so each
// is clipped to its length, and appending to one copies instead of writing
// over the next node's list.
func TestBuilderClipsNeighborLists(t *testing.T) {
	for _, g := range []*Graph{
		MustFromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}}),
		MustFromEdges(4, []Edge{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 3}}),
		Clique(5),
	} {
		for v := 0; v+1 < g.N(); v++ {
			ns := g.Neighbors(v)
			if cap(ns) != len(ns) {
				t.Fatalf("%v: node %d's list has len %d cap %d", g, v, len(ns), cap(ns))
			}
			next := append([]int(nil), g.Neighbors(v+1)...)
			_ = append(ns, -1)
			if !reflect.DeepEqual(g.Neighbors(v+1), next) {
				t.Fatalf("%v: appending to node %d's list changed node %d's to %v", g, v, v+1, g.Neighbors(v+1))
			}
		}
	}
}

// adjacencyDigest hashes a graph's node count, edge count and every
// node's neighbor list in order.
func adjacencyDigest(gs ...*Graph) string {
	var buf []byte
	for _, g := range gs {
		buf = binary.AppendUvarint(buf, uint64(g.N()))
		buf = binary.AppendUvarint(buf, uint64(g.M()))
		for v := 0; v < g.N(); v++ {
			ns := g.Neighbors(v)
			buf = binary.AppendUvarint(buf, uint64(len(ns)))
			for _, u := range ns {
				buf = binary.AppendUvarint(buf, uint64(u))
			}
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// benchSets are the community specs of the benchkit scenarios behind
// holidaybench's four workloads (read, churn, mixed and poly). The
// benchmark builds community i of a set at seed 1+i.
var benchSets = []struct {
	name  string
	specs []string
}{
	{"read", []string{"gnp:n=1024,p=0.01", "cycle:n=512", "clique:n=32"}},
	{"churn", []string{"gnp:n=512,p=0.02", "cycle:n=256", "clique:n=24"}},
	{"mixed", []string{"gnp:n=256,p=0.03", "gnp:n=4096,p=0.002", "cycle:n=2048", "clique:n=48"}},
	{"poly", []string{"gnp:n=512,p=0.02", "cycle:n=256", "clique:n=24"}},
}

// TestGeneratorDigests pins the adjacency every ParseSpec family generates
// at seeds 1–4, and that of every community spec holidaybench builds, so a
// change to how graphs are built cannot change the graphs. The digests
// were recorded with the map-based Builder the counting build replaced.
func TestGeneratorDigests(t *testing.T) {
	want := map[string]string{
		"clique:n=12":               "ae7e269459ab9e7e",
		"cycle:n=17":                "ea0595c524d1dd67",
		"path:n=9":                  "a7cf3af006a431b3",
		"star:n=16":                 "fe6995b13b83b741",
		"empty:n=5":                 "97b9fa93fbaf3dd9",
		"grid:r=5,c=6":              "556b4195f2451901",
		"tree:n=50":                 "c43cd6aa2d7c8161",
		"gnp:n=100,p=0.05":          "3bd7181d72df24f4",
		"regular:n=64,d=4":          "194ad5ba90a2157b",
		"powerlaw:n=100,m=3":        "c4bb6e8587705b0e",
		"bipartite:a=10,b=12,p=0.2": "f4f3b4bd4f1f4ab4",
		"completebipartite:a=3,b=4": "01d7efc1adccc354",
		"unitdisk:n=100,r=0.1":      "156434c235e6de70",
		"gnp:n=128,p=0.05":          "ccc4e9a94f5f1f75",
		"cycle:n=64":                "559f4c4a70d516b5",
		"clique:n=16":               "d267d5d88c685d72",
		"gnp:n=1024,p=0.01":         "1a1df9625f257743",
		"cycle:n=512":               "cd307134f049fd05",
		"clique:n=32":               "d149549ee889395c",
		"gnp:n=512,p=0.02":          "802759de29367bed",
		"cycle:n=256":               "c89ba0548399d15e",
		"clique:n=24":               "364af6db9344dca5",
		"gnp:n=256,p=0.03":          "d199714a34953bea",
		"gnp:n=4096,p=0.002":        "f2605002274ca72b",
		"cycle:n=2048":              "4ca61d084f14d14c",
		"clique:n=48":               "92c97a61a00778b3",
	}
	for _, set := range benchSets {
		for _, spec := range set.specs {
			if _, ok := want[spec]; !ok {
				t.Errorf("holidaybench spec %q has no digest", spec)
			}
		}
	}
	specs := make([]string, 0, len(want))
	for spec := range want {
		specs = append(specs, spec)
	}
	sort.Strings(specs)
	for _, spec := range specs {
		var gs []*Graph
		for seed := uint64(1); seed <= 4; seed++ {
			g, err := ParseSpec(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			gs = append(gs, g)
		}
		if got := adjacencyDigest(gs...); got != want[spec] {
			t.Errorf("%q: digest %s, want %s", spec, got, want[spec])
		}
	}
}

// BenchmarkBuilder builds each holidaybench scenario's community set
// through ParseSpec, and 600k canonical edges, the export of
// powerlaw:n=200000,m=3, through AddEdgeErr and Graph as a restore does.
func BenchmarkBuilder(b *testing.B) {
	for _, set := range benchSets {
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, spec := range set.specs {
					if _, err := ParseSpec(spec, uint64(1+j)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	g, err := ParseSpec("powerlaw:n=200000,m=3", 1)
	if err != nil {
		b.Fatal(err)
	}
	pairs := g.EdgePairs()
	b.Run(fmt.Sprintf("pairs=%dk", (len(pairs)+500)/1000), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bl := NewBuilder(g.N())
			for _, p := range pairs {
				if err := bl.AddEdgeErr(p[0], p[1]); err != nil {
					b.Fatal(err)
				}
			}
			if bl.Graph().M() != g.M() {
				b.Fatal("rebuilt graph lost edges")
			}
		}
	})
}
