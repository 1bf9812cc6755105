package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteEdgeList writes g in a simple text format: a header line "n m"
// followed by one "u v" line per edge in canonical order.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N(), g.M()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the format written by WriteEdgeList. Blank lines and
// lines starting with '#' are ignored.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var n, m int
	header := false
	b := (*Builder)(nil)
	edges := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !header {
			if _, err := fmt.Sscanf(line, "%d %d", &n, &m); err != nil {
				return nil, fmt.Errorf("graph: bad header %q: %w", line, err)
			}
			if n < 0 {
				return nil, fmt.Errorf("graph: negative node count %d", n)
			}
			header = true
			b = NewBuilder(n)
			continue
		}
		var u, v int
		if _, err := fmt.Sscanf(line, "%d %d", &u, &v); err != nil {
			return nil, fmt.Errorf("graph: bad edge line %q: %w", line, err)
		}
		if err := b.AddEdgeErr(u, v); err != nil {
			return nil, err
		}
		edges++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !header {
		return nil, fmt.Errorf("graph: missing header line")
	}
	if edges != m {
		return nil, fmt.Errorf("graph: header declared %d edges, found %d", m, edges)
	}
	return b.Graph(), nil
}

// WriteDOT writes g in Graphviz DOT format for visualization.
func WriteDOT(w io.Writer, g *Graph, name string) error {
	bw := bufio.NewWriter(w)
	if name == "" {
		name = "G"
	}
	if _, err := fmt.Fprintf(bw, "graph %s {\n", name); err != nil {
		return err
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) == 0 {
			if _, err := fmt.Fprintf(bw, "  %d;\n", v); err != nil {
				return err
			}
		}
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "  %d -- %d;\n", e.U, e.V); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw, "}"); err != nil {
		return err
	}
	return bw.Flush()
}
