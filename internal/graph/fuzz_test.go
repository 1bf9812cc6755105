package graph

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadEdgeList checks the parser never panics and that every
// successfully parsed graph is well-formed and round-trips through
// WriteEdgeList.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("3 2\n0 1\n1 2\n")
	f.Add("# comment\n\n2 1\n0 1\n")
	f.Add("")
	f.Add("1 0\n")
	f.Add("3 1\n1 1\n")
	f.Add("-1 0\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Degree(v)
			for _, u := range g.Neighbors(v) {
				if u == v {
					t.Fatal("parsed graph contains a self-loop")
				}
				if !g.Adjacent(u, v) {
					t.Fatal("asymmetric adjacency")
				}
			}
		}
		if sum != 2*g.M() {
			t.Fatalf("degree sum %d != 2m = %d", sum, 2*g.M())
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-parse of our own output failed: %v", err)
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Fatal("write/read round trip changed the graph")
		}
	})
}

// FuzzParseSpec checks the spec parser never panics, that CheckSpec agrees
// with it, and that produced graphs are well-formed.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"clique:n=5", "gnp:n=10,p=0.5", "grid:r=2,c=3", "star", "x",
		"regular:n=8,d=3", "cycle:n=0", "unitdisk:n=5,r=0.5", "tree:n=-1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if len(spec) > 64 {
			return // keep generator sizes sane
		}
		// Skip specs with long digit runs: a 4+-digit size would let one
		// input build a graph of well over a million edges.
		digits := 0
		for i := 0; i < len(spec); i++ {
			if spec[i] >= '0' && spec[i] <= '9' {
				digits++
				if digits > 3 {
					return
				}
			} else {
				digits = 0
			}
		}
		g, err := ParseSpec(spec, 3)
		if cerr := CheckSpec(spec); (cerr == nil) != (err == nil) {
			t.Fatalf("spec %q: ParseSpec error %v, CheckSpec error %v", spec, err, cerr)
		}
		if err != nil {
			return
		}
		for v := 0; v < g.N(); v++ {
			for _, u := range g.Neighbors(v) {
				if u == v || !g.Adjacent(u, v) {
					t.Fatalf("spec %q produced a malformed graph", spec)
				}
			}
		}
	})
}

// FuzzBuilder holds Builder.Graph to modelGraph on edge lists read from
// the fuzz bytes: data[0] % 17 is the initial node count, then each byte
// pair is an edge between nodes below 32. A pair whose first byte has its
// top bit set goes through AddEdge, growing the node count (skipped if a
// self-loop, on which AddEdge panics); any other through AddEdgeErr, which
// must refuse exactly the self-loops and the edges outside the current
// count. The graph is built halfway through and at the end, and each build
// must match the model of the edges so far.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{4, 0, 1, 1, 0, 1, 2, 2, 1, 0, 1})
	f.Add([]byte{3, 0x80, 9, 0x85, 2, 2, 0, 1, 1})
	f.Add([]byte{16, 5, 3, 3, 5, 15, 0, 0, 15, 7, 7, 4, 16, 0x8f, 31, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0] % 17)
		b := NewBuilder(n)
		var edges []Edge
		check := func(when string) {
			if g := b.Graph(); !reflect.DeepEqual(g, modelGraph(n, edges)) {
				t.Fatalf("%s: Graph %v differs from the model over %v", when, g.adj, edges)
			}
		}
		pairs := data[1:]
		for i := 0; i+1 < len(pairs); i += 2 {
			if i == len(pairs)/4*2 {
				check("halfway")
			}
			u, v := int(pairs[i]&0x1f), int(pairs[i+1]&0x1f)
			if pairs[i]&0x80 != 0 {
				if u == v {
					continue
				}
				b.AddEdge(u, v)
				n = max(n, u+1, v+1)
			} else {
				err := b.AddEdgeErr(u, v)
				if want := u != v && u < n && v < n; (err == nil) != want {
					t.Fatalf("AddEdgeErr(%d, %d) with n=%d: err %v", u, v, n, err)
				}
				if err != nil {
					continue
				}
			}
			edges = append(edges, Edge{u, v})
		}
		check("at the end")
	})
}
