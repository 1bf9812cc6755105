package graph

import (
	"bytes"
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
