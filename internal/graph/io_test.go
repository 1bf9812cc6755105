package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestEdgeListRoundtrip(t *testing.T) {
	g := GNP(40, 0.2, 13)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != g.N() || got.M() != g.M() {
		t.Fatalf("roundtrip size mismatch: got (%d,%d), want (%d,%d)", got.N(), got.M(), g.N(), g.M())
	}
	ea, eb := g.Edges(), got.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d: got %v, want %v", i, eb[i], ea[i])
		}
	}
}

func TestReadEdgeListCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\n3 2\n0 1\n\n# another\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("got (%d,%d), want (3,2)", g.N(), g.M())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",                // missing header
		"3 2\n0 1\n",      // wrong edge count
		"3 1\n0 9\n",      // out of range
		"3 1\nzero one\n", // malformed edge
		"three two\n",     // malformed header
		"3 1\n1 1\n",      // self loop
		"-1 0\n",          // negative node count
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := MustFromEdges(3, []Edge{{0, 1}})
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, "fam"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph fam {", "0 -- 1;", "2;"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}
