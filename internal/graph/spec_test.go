package graph

import "testing"

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec  string
		n, m  int
		skipM bool
	}{
		{"clique:n=5", 5, 10, false},
		{"cycle:n=7", 7, 7, false},
		{"path:n=4", 4, 3, false},
		{"star:n=9", 9, 8, false},
		{"empty:n=3", 3, 0, false},
		{"grid:r=3,c=4", 12, 17, false},
		{"tree:n=20", 20, 19, false},
		{"gnp:n=50,p=0.1", 50, 0, true},
		{"gnp:n=10,p=2", 10, 45, false}, // a probability past 1 is a clique
		{"regular:n=16,d=4", 16, 32, false},
		{"powerlaw:n=30,m=2", 30, 0, true},
		{"bipartite:a=5,b=6,p=0.5", 11, 0, true},
		{"completebipartite:a=3,b=4", 7, 12, false},
		{"unitdisk:n=25,r=0.3", 25, 0, true},
	}
	for _, tc := range cases {
		if err := CheckSpec(tc.spec); err != nil {
			t.Fatalf("CheckSpec(%s): %v", tc.spec, err)
		}
		g, err := ParseSpec(tc.spec, 7)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if g.N() != tc.n {
			t.Errorf("%s: n = %d, want %d", tc.spec, g.N(), tc.n)
		}
		if !tc.skipM && g.M() != tc.m {
			t.Errorf("%s: m = %d, want %d", tc.spec, g.M(), tc.m)
		}
	}
}

func TestParseSpecDefaults(t *testing.T) {
	g, err := ParseSpec("clique", 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 32 {
		t.Errorf("default n = %d, want 32", g.N())
	}
}

// TestParseSpecErrors: malformed specs and parameters a generator cannot
// build are errors from both ParseSpec and CheckSpec, never panics.
func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"moon", "gnp:p", "gnp:n=abc", "grid:r=x,c=2", "gnp:p=zz",
		// Parameters that made a generator panic.
		"regular:n=5,d=3", "regular:n=4,d=4", "cycle:n=2", "cycle:n=-3",
		"clique:n=-1", "empty:n=-1", "tree:n=-1", "unitdisk:n=-1",
		"grid:r=-1,c=2", "gnp:n=-2", "powerlaw:n=10,m=20", "powerlaw:n=-1",
		// Negative part sizes that generated a graph of the wrong size.
		"bipartite:a=-1,b=2", "completebipartite:a=-1",
	} {
		if _, err := ParseSpec(spec, 1); err == nil {
			t.Errorf("spec %q must error", spec)
		}
		if err := CheckSpec(spec); err == nil {
			t.Errorf("CheckSpec(%q) must error", spec)
		}
	}
}

func TestParseSpecSeedReproducible(t *testing.T) {
	a, _ := ParseSpec("gnp:n=40,p=0.2", 5)
	b, _ := ParseSpec("gnp:n=40,p=0.2", 5)
	if a.M() != b.M() {
		t.Error("same seed must give the same graph")
	}
}
