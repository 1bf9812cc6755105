package graph

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseSpec builds a generator graph from a compact textual description of
// the form "family:key=value,key=value", e.g.
//
//	clique:n=8            cycle:n=12          path:n=9
//	star:n=16             grid:r=5,c=6        tree:n=50
//	gnp:n=100,p=0.05      regular:n=64,d=4    powerlaw:n=100,m=3
//	bipartite:a=10,b=10,p=0.2                 unitdisk:n=100,r=0.1
//
// The seed drives all randomized families. A spec whose parameters the
// family's generator cannot build (a negative size, cycle:n=2,
// regular:n=5,d=3, powerlaw:n=3,m=3) is an error, never a panic. Used by
// cmd/holiday, cmd/graphgen, cmd/holidayd and benchkit.
func ParseSpec(spec string, seed uint64) (*Graph, error) {
	gen, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	return gen(seed), nil
}

// CheckSpec returns the error ParseSpec would return for spec without
// generating the graph, so a command line can be rejected before any work
// that depends on it.
func CheckSpec(spec string) error {
	_, err := parseSpec(spec)
	return err
}

// parseSpec is the one parse step behind ParseSpec and CheckSpec: it reads
// the family and its parameters, range-checks them, and returns the
// generator. The checks reject exactly the values that would make the
// generator panic or a size negative; anything else the generator accepts
// (gnp:n=10,p=2 is a clique) still generates.
func parseSpec(spec string) (func(seed uint64) *Graph, error) {
	name, params, _ := strings.Cut(spec, ":")
	kv := map[string]string{}
	if params != "" {
		for _, part := range strings.Split(params, ",") {
			k, v, ok := strings.Cut(part, "=")
			if !ok {
				return nil, fmt.Errorf("graph: bad parameter %q in spec %q", part, spec)
			}
			kv[strings.TrimSpace(k)] = strings.TrimSpace(v)
		}
	}
	var err error   // the first parameter that does not parse
	var rule string // the first range rule the parameters break
	getInt := func(key string, def int) int {
		s, ok := kv[key]
		if !ok {
			return def
		}
		v, perr := strconv.Atoi(s)
		if perr != nil && err == nil {
			err = fmt.Errorf("graph: spec %q: %s: %w", spec, key, perr)
		}
		return v
	}
	getFloat := func(key string, def float64) float64 {
		s, ok := kv[key]
		if !ok {
			return def
		}
		v, perr := strconv.ParseFloat(s, 64)
		if perr != nil && err == nil {
			err = fmt.Errorf("graph: spec %q: %s: %w", spec, key, perr)
		}
		return v
	}
	check := func(ok bool, r string) {
		if !ok && rule == "" {
			rule = r
		}
	}
	n := getInt("n", 32)
	switch name {
	case "clique", "path", "star", "empty", "tree", "gnp", "unitdisk":
		check(n >= 0, "n ≥ 0")
	}
	var gen func(seed uint64) *Graph
	switch name {
	case "clique":
		gen = func(uint64) *Graph { return Clique(n) }
	case "cycle":
		check(n >= 3, "n ≥ 3")
		gen = func(uint64) *Graph { return Cycle(n) }
	case "path":
		gen = func(uint64) *Graph { return Path(n) }
	case "star":
		gen = func(uint64) *Graph { return Star(n) }
	case "empty":
		gen = func(uint64) *Graph { return Empty(n) }
	case "grid":
		r, c := getInt("r", 8), getInt("c", 8)
		check(r >= 0 && c >= 0, "r ≥ 0 and c ≥ 0")
		gen = func(uint64) *Graph { return Grid(r, c) }
	case "tree":
		gen = func(seed uint64) *Graph { return RandomTree(n, seed) }
	case "gnp":
		p := getFloat("p", 0.05)
		gen = func(seed uint64) *Graph { return GNP(n, p, seed) }
	case "regular":
		d := getInt("d", 4)
		check(0 <= d && d < n, "0 ≤ d < n")
		check(n*d%2 == 0, "n·d even")
		gen = func(seed uint64) *Graph { return RandomRegular(n, d, seed) }
	case "powerlaw":
		m := getInt("m", 3)
		check(1 <= m && m < n, "1 ≤ m < n")
		gen = func(seed uint64) *Graph { return PreferentialAttachment(n, m, seed) }
	case "bipartite":
		a, b, p := getInt("a", 16), getInt("b", 16), getFloat("p", 0.2)
		check(a >= 0 && b >= 0, "a ≥ 0 and b ≥ 0")
		gen = func(seed uint64) *Graph { return RandomBipartite(a, b, p, seed) }
	case "completebipartite":
		a, b := getInt("a", 8), getInt("b", 8)
		check(a >= 0 && b >= 0, "a ≥ 0 and b ≥ 0")
		gen = func(uint64) *Graph { return CompleteBipartite(a, b) }
	case "unitdisk":
		r := getFloat("r", 0.1)
		gen = func(seed uint64) *Graph {
			g, _ := UnitDisk(n, r, seed)
			return g
		}
	default:
		if err == nil {
			err = fmt.Errorf("graph: unknown family %q (see ParseSpec doc for choices)", name)
		}
	}
	if err == nil && rule != "" {
		err = fmt.Errorf("graph: spec %q: want %s", spec, rule)
	}
	if err != nil {
		return nil, err
	}
	return gen, nil
}
