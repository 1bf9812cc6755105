package graph

import (
	"testing"
	"testing/quick"
)

func TestNewFromEdgesBasics(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {1, 0}})
	if g.N() != 4 {
		t.Fatalf("N = %d, want 4", g.N())
	}
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3 (duplicate edge must collapse)", g.M())
	}
	if !g.Adjacent(0, 1) || !g.Adjacent(1, 0) {
		t.Error("expected 0-1 adjacency in both directions")
	}
	if g.Adjacent(0, 2) {
		t.Error("0 and 2 must not be adjacent")
	}
	if d := g.Degree(1); d != 2 {
		t.Errorf("Degree(1) = %d, want 2", d)
	}
}

func TestNewFromEdgesRejectsSelfLoop(t *testing.T) {
	if _, err := NewFromEdges(3, []Edge{{1, 1}}); err == nil {
		t.Fatal("self-loop must be rejected")
	}
}

func TestNewFromEdgesRejectsOutOfRange(t *testing.T) {
	if _, err := NewFromEdges(3, []Edge{{0, 3}}); err == nil {
		t.Fatal("out-of-range endpoint must be rejected")
	}
	if _, err := NewFromEdges(3, []Edge{{-1, 0}}); err == nil {
		t.Fatal("negative endpoint must be rejected")
	}
}

func TestNewFromEdgesNegativeN(t *testing.T) {
	if _, err := NewFromEdges(-1, nil); err == nil {
		t.Fatal("negative node count must be rejected")
	}
}

func TestBuilderGrows(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(5, 2)
	g := b.Graph()
	if g.N() != 6 {
		t.Fatalf("N = %d, want 6 after adding edge (5,2)", g.N())
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
}

func TestEdgesCanonicalSorted(t *testing.T) {
	g := MustFromEdges(4, []Edge{{3, 2}, {1, 0}, {2, 0}})
	es := g.Edges()
	want := []Edge{{0, 1}, {0, 2}, {2, 3}}
	if len(es) != len(want) {
		t.Fatalf("got %d edges, want %d", len(es), len(want))
	}
	ps := g.EdgePairs()
	if len(ps) != len(want) || cap(ps) != len(want) {
		t.Fatalf("EdgePairs: len %d cap %d, want %d", len(ps), cap(ps), len(want))
	}
	for i := range want {
		if es[i] != want[i] {
			t.Errorf("edge %d = %v, want %v", i, es[i], want[i])
		}
		if ps[i] != [2]int{want[i].U, want[i].V} {
			t.Errorf("pair %d = %v, want %v", i, ps[i], want[i])
		}
	}
}

func TestDegreesMaxMin(t *testing.T) {
	g := Star(5)
	if g.MaxDegree() != 4 {
		t.Errorf("star max degree = %d, want 4", g.MaxDegree())
	}
	if g.MinDegree() != 1 {
		t.Errorf("star min degree = %d, want 1", g.MinDegree())
	}
	d := g.Degrees()
	if d[0] != 4 {
		t.Errorf("center degree = %d, want 4", d[0])
	}
	for v := 1; v < 5; v++ {
		if d[v] != 1 {
			t.Errorf("leaf %d degree = %d, want 1", v, d[v])
		}
	}
}

func TestEmptyGraphProperties(t *testing.T) {
	g := Empty(0)
	if g.MaxDegree() != 0 || g.MinDegree() != 0 {
		t.Error("empty graph degrees must be 0")
	}
	if !g.IsConnected() {
		t.Error("empty graph is connected by convention")
	}
	if !g.IsIndependent(nil) {
		t.Error("empty set is independent")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := Cycle(5)
	c := g.Clone()
	c.adj[0][0] = 99
	if g.adj[0][0] == 99 {
		t.Fatal("Clone must deep-copy adjacency")
	}
	if c.M() != g.M() || c.N() != g.N() {
		t.Fatal("Clone must preserve size")
	}
}

func TestIsIndependent(t *testing.T) {
	g := Cycle(6)
	if !g.IsIndependent([]int{0, 2, 4}) {
		t.Error("{0,2,4} is independent in C6")
	}
	if g.IsIndependent([]int{0, 1}) {
		t.Error("{0,1} is not independent in C6")
	}
	if !g.IsIndependent([]int{3, 3}) {
		t.Error("duplicates of one node remain independent")
	}
}

func TestEdgeCanon(t *testing.T) {
	if (Edge{5, 2}).Canon() != (Edge{2, 5}) {
		t.Error("Canon must order endpoints")
	}
	if (Edge{2, 5}).Canon() != (Edge{2, 5}) {
		t.Error("Canon must be identity on ordered edges")
	}
}

// Property: adjacency is symmetric and degree sums equal 2M on random graphs.
func TestGraphInvariantsQuick(t *testing.T) {
	check := func(seed uint64) bool {
		n := 2 + int(seed%40)
		g := GNP(n, 0.3, seed)
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Degree(v)
			for _, u := range g.Neighbors(v) {
				if !g.Adjacent(u, v) || !g.Adjacent(v, u) {
					return false
				}
				if u == v {
					return false
				}
			}
		}
		es, ps := g.Edges(), g.EdgePairs()
		if len(ps) != g.M() || len(es) != g.M() {
			return false
		}
		for i, e := range es {
			if ps[i] != [2]int{e.U, e.V} {
				return false
			}
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStringSummary(t *testing.T) {
	got := Clique(3).String()
	want := "graph{n=3 m=3 Δ=2}"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
