package graph

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestIsConnected(t *testing.T) {
	if !Cycle(5).IsConnected() {
		t.Error("cycle is connected")
	}
	g := MustFromEdges(4, []Edge{{0, 1}, {2, 3}})
	if g.IsConnected() {
		t.Error("two disjoint edges are not connected")
	}
	if !Empty(1).IsConnected() {
		t.Error("single node is connected")
	}
	if Empty(2).IsConnected() {
		t.Error("two isolated nodes are not connected")
	}
}

func TestComponents(t *testing.T) {
	g := MustFromEdges(6, []Edge{{0, 1}, {1, 2}, {4, 5}})
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	want := [][]int{{0, 1, 2}, {3}, {4, 5}}
	for i := range want {
		if len(comps[i]) != len(want[i]) {
			t.Fatalf("component %d = %v, want %v", i, comps[i], want[i])
		}
		for j := range want[i] {
			if comps[i][j] != want[i][j] {
				t.Fatalf("component %d = %v, want %v", i, comps[i], want[i])
			}
		}
	}
}

func TestBipartition(t *testing.T) {
	side, ok := Cycle(6).Bipartition()
	if !ok {
		t.Fatal("even cycle is bipartite")
	}
	g := Cycle(6)
	for _, e := range g.Edges() {
		if side[e.U] == side[e.V] {
			t.Fatal("bipartition must separate every edge")
		}
	}
	if _, ok := Cycle(5).Bipartition(); ok {
		t.Error("odd cycle is not bipartite")
	}
	if _, ok := Clique(4).Bipartition(); ok {
		t.Error("K4 is not bipartite")
	}
	if _, ok := Empty(3).Bipartition(); !ok {
		t.Error("edgeless graph is bipartite")
	}
}

func TestDegreeHistogram(t *testing.T) {
	h := Star(5).DegreeHistogram()
	if h[1] != 4 || h[4] != 1 {
		t.Errorf("star(5) histogram = %v, want 4 leaves and 1 center", h)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Cycle(6)
	sub, orig := g.InducedSubgraph([]int{0, 1, 2, 4})
	if sub.N() != 4 {
		t.Fatalf("sub N = %d, want 4", sub.N())
	}
	// Edges among {0,1,2,4} in C6: 0-1, 1-2. Node 4 is isolated here.
	if sub.M() != 2 {
		t.Fatalf("sub M = %d, want 2", sub.M())
	}
	if orig[0] != 0 || orig[3] != 4 {
		t.Errorf("orig mapping = %v", orig)
	}
	// Duplicates collapse.
	sub2, orig2 := g.InducedSubgraph([]int{3, 3, 3})
	if sub2.N() != 1 || len(orig2) != 1 {
		t.Error("duplicate nodes must collapse in induced subgraph")
	}
}

func TestDynamicBasics(t *testing.T) {
	d := NewDynamic(4)
	if !d.AddEdge(0, 1) {
		t.Fatal("first insert returns true")
	}
	if d.AddEdge(1, 0) {
		t.Fatal("duplicate insert returns false")
	}
	if d.M() != 1 {
		t.Fatalf("M = %d, want 1", d.M())
	}
	if !d.Adjacent(0, 1) || !d.Adjacent(1, 0) {
		t.Error("adjacency must be symmetric")
	}
	if !d.RemoveEdge(0, 1) {
		t.Fatal("remove existing edge returns true")
	}
	if d.RemoveEdge(0, 1) {
		t.Fatal("remove missing edge returns false")
	}
	if d.M() != 0 {
		t.Fatalf("M = %d, want 0 after removal", d.M())
	}
}

func TestDynamicSnapshotAndFrom(t *testing.T) {
	g := Cycle(5)
	d := DynamicFrom(g)
	if d.M() != 5 {
		t.Fatalf("dynamic copy M = %d, want 5", d.M())
	}
	d.RemoveEdge(0, 1)
	s := d.Snapshot()
	if s.M() != 4 {
		t.Fatalf("snapshot M = %d, want 4", s.M())
	}
	if s.Adjacent(0, 1) {
		t.Error("snapshot must reflect removal")
	}
	if g.M() != 5 {
		t.Error("original graph must be untouched")
	}
}

// Property: after random inserts and swap-removing deletes, Snapshot
// deep-equals the Builder graph of the same edges, and editing the Dynamic
// afterwards leaves the snapshot as it was.
func TestDynamicSnapshotMatchesBuilderQuick(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng(seed)
		n := 1 + int(seed%40)
		d := NewDynamic(n)
		model := map[Edge]bool{}
		for i := 0; i < 6*n; i++ {
			e := Edge{r.IntN(n), r.IntN(n)}.Canon()
			if e.U == e.V {
				continue
			}
			if r.IntN(3) == 0 {
				d.RemoveEdge(e.V, e.U)
				delete(model, e)
			} else {
				d.AddEdge(e.U, e.V)
				model[e] = true
			}
		}
		b := NewBuilder(n)
		for e := range model {
			b.AddEdge(e.U, e.V)
		}
		want := b.Graph()
		s := d.Snapshot()
		if !reflect.DeepEqual(s, want) {
			return false
		}
		for e := range model {
			d.RemoveEdge(e.U, e.V)
		}
		for v := 1; v < n; v++ {
			d.AddEdge(0, v)
		}
		return reflect.DeepEqual(s, want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDynamicAddNode(t *testing.T) {
	d := NewDynamic(2)
	id := d.AddNode()
	if id != 2 || d.N() != 3 {
		t.Fatalf("AddNode gave id %d (N=%d), want 2 (N=3)", id, d.N())
	}
	d.AddEdge(2, 0)
	if d.Degree(2) != 1 {
		t.Error("new node must accept edges")
	}
}

func TestDynamicSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop must panic")
		}
	}()
	NewDynamic(3).AddEdge(1, 1)
}
