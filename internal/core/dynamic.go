package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/prefixcode"
)

// DynamicColorBound is the §6 dynamic-setting scheduler: the color-bound
// schedule of §4 maintained under edge insertions (marriages) and deletions
// (divorces). On insertion, if the endpoints share a color, one endpoint
// greedily recolors — its palette has grown to deg+1, so a color ≤ deg+1
// always exists and the new periodic schedule follows from the prefix-free
// encoding of the new color. On deletion a node whose color has become
// disproportionate to its degree (color > deg+1) is recolored so its
// hosting rate tracks its current degree.
type DynamicColorBound struct {
	d    *graph.Dynamic
	code prefixcode.Code
	col  []int
	t    int64
	// Recolorings counts color changes triggered by edge churn, the
	// disruption measure of experiment E8.
	Recolorings int64
	// smallestFree scratch: mark[c] == markGen means color c was seen in
	// the neighborhood currently being scanned. One stamp array reused
	// across calls replaces the per-call hash set that used to dominate
	// recoloring cost on large communities.
	mark    []uint64
	markGen uint64
}

// NewDynamicColorBound starts from an existing graph, coloring it greedily,
// or from an empty n-node graph when g has no edges.
func NewDynamicColorBound(g *graph.Graph, code prefixcode.Code) (*DynamicColorBound, error) {
	dc := &DynamicColorBound{
		d:    graph.DynamicFrom(g),
		code: code,
		col:  make([]int, g.N()),
	}
	for v := range dc.col {
		dc.col[v] = 1
	}
	// Greedy pass to make the initial coloring proper.
	for v := 0; v < g.N(); v++ {
		dc.col[v] = dc.smallestFree(v)
	}
	if err := dc.VerifyProper(); err != nil {
		return nil, err
	}
	return dc, nil
}

// RestoreDynamicColorBound reconstructs a scheduler at an exact coloring —
// the durability path: a restored community must answer every window and
// next-happy query byte-identically to the process that snapshotted it, so
// the persisted coloring is adopted verbatim rather than re-derived by the
// greedy pass (which could legally pick different colors). The coloring is
// verified proper and degree-bounded before use; recolorings restores the
// E8 disruption counter.
func RestoreDynamicColorBound(g *graph.Graph, code prefixcode.Code, coloring []int, recolorings int64) (*DynamicColorBound, error) {
	if len(coloring) != g.N() {
		return nil, fmt.Errorf("core: restore has %d colors for %d nodes", len(coloring), g.N())
	}
	dc := &DynamicColorBound{
		d:           graph.DynamicFrom(g),
		code:        code,
		col:         append([]int(nil), coloring...),
		Recolorings: recolorings,
	}
	if err := dc.VerifyProper(); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	return dc, nil
}

// smallestFree returns the smallest color ≥ 1 unused in v's neighborhood.
func (dc *DynamicColorBound) smallestFree(v int) int {
	// The answer is at most deg(v)+1 (deg neighbors block at most deg
	// colors), so neighbor colors above that bound can never matter.
	bound := dc.d.Degree(v) + 1
	if len(dc.mark) < bound+1 {
		dc.mark = append(dc.mark, make([]uint64, bound+1-len(dc.mark))...)
	}
	dc.markGen++
	for _, u := range dc.d.Neighbors(v) {
		if c := dc.col[u]; c <= bound {
			dc.mark[c] = dc.markGen
		}
	}
	for c := 1; ; c++ {
		if dc.mark[c] != dc.markGen {
			return c
		}
	}
}

// AddNode appends an isolated parent and schedules it with color 1.
func (dc *DynamicColorBound) AddNode() int {
	id := dc.d.AddNode()
	dc.col = append(dc.col, 0)
	dc.col[id] = dc.smallestFree(id)
	return id
}

// AddEdge inserts a marriage. If the in-laws currently share a color the
// lower-degree endpoint recolors (§6: "p's palette should grow by one more
// color"). Reports whether a recoloring was needed.
func (dc *DynamicColorBound) AddEdge(u, v int) (recolored bool, err error) {
	if u == v {
		return false, fmt.Errorf("core: self-marriage at node %d", u)
	}
	if !dc.d.AddEdge(u, v) {
		return false, nil
	}
	if dc.col[u] != dc.col[v] {
		return false, nil
	}
	p := u
	if dc.d.Degree(v) < dc.d.Degree(u) {
		p = v
	}
	dc.col[p] = dc.smallestFree(p)
	dc.Recolorings++
	return true, nil
}

// RemoveEdge deletes a divorce. If an endpoint's color now exceeds its
// degree+1 (its hosting rate has become disproportionate to its shrunken
// palette, §6) it is recolored downward.
func (dc *DynamicColorBound) RemoveEdge(u, v int) bool {
	if !dc.d.RemoveEdge(u, v) {
		return false
	}
	for _, p := range [2]int{u, v} {
		if dc.col[p] > dc.d.Degree(p)+1 {
			dc.col[p] = dc.smallestFree(p)
			dc.Recolorings++
		}
	}
	return true
}

// EditOp selects the kind of one churn edit.
type EditOp uint8

const (
	// EditInsert adds an edge (a marriage).
	EditInsert EditOp = iota + 1
	// EditDelete removes an edge (a divorce).
	EditDelete
	// EditAddNode appends an isolated node (a new family); U, V and Demand
	// are ignored.
	EditAddNode
)

// Edit is one edge insertion or deletion, or one appended node.
type Edit struct {
	Op   EditOp
	U, V int
	// Demand is the per-edge frequency demand of poly communities
	// (meet at least once every Demand slots); 0 means the community
	// default. The classic gathering kind ignores it.
	Demand int64
}

// EditResult reports what one edit did: whether it changed the graph at
// all (Applied is false for inserting an existing marriage or deleting an
// absent one) and whether it triggered a recoloring.
type EditResult struct {
	Applied   bool
	Recolored bool
}

// Apply performs one edit with the repair rule of AddEdge or RemoveEdge,
// or appends a node with AddNode. It is the one entry point single ops,
// batches and WAL replay share, so a stream applied in batches is
// byte-identical to one applied an edit at a time. (A deferred whole-batch
// recoloring sweep would not be: smallestFree picks from the neighbor
// colors in effect when each edit lands.) An edge edit recolors at most its
// two endpoints. An unknown op, an endpoint outside the graph or a
// self-marriage is an error that changes nothing; divorcing a node from
// itself is a no-op.
func (dc *DynamicColorBound) Apply(e Edit) (EditResult, error) {
	if e.Op == EditAddNode {
		dc.AddNode()
		return EditResult{Applied: true}, nil
	}
	if n := dc.d.N(); e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
		return EditResult{}, fmt.Errorf("core: edit (%d,%d) touches a node outside [0,%d)", e.U, e.V, n)
	}
	mBefore, rBefore := dc.d.M(), dc.Recolorings
	switch e.Op {
	case EditInsert:
		if _, err := dc.AddEdge(e.U, e.V); err != nil {
			return EditResult{}, err
		}
	case EditDelete:
		dc.RemoveEdge(e.U, e.V)
	default:
		return EditResult{}, fmt.Errorf("core: unknown edit op %d", e.Op)
	}
	return EditResult{Applied: dc.d.M() != mBefore, Recolored: dc.Recolorings != rBefore}, nil
}

// HasEdge reports whether the marriage {u, v} currently exists.
// Out-of-range endpoints report false.
func (dc *DynamicColorBound) HasEdge(u, v int) bool {
	n := dc.d.N()
	if u < 0 || u >= n || v < 0 || v >= n || u == v {
		return false
	}
	return dc.d.Adjacent(u, v)
}

// Name implements Scheduler.
func (dc *DynamicColorBound) Name() string { return "dynamic-color-bound/" + dc.code.Name() }

// Holiday implements Scheduler.
func (dc *DynamicColorBound) Holiday() int64 { return dc.t }

// Next implements Scheduler against the current graph and coloring.
func (dc *DynamicColorBound) Next() []int {
	dc.t++
	var happy []int
	for v := 0; v < dc.d.N(); v++ {
		if dc.happyAt(v, dc.t) {
			happy = append(happy, v)
		}
	}
	return happy
}

// happyAt evaluates the §4 closed form for v's current color.
func (dc *DynamicColorBound) happyAt(v int, t int64) bool {
	enc := dc.code.Encode(uint64(dc.col[v]))
	period := int64(1) << uint(enc.Len())
	return t%period == int64(enc.Value())
}

// CurrentPeriod returns v's hosting period under its current color.
func (dc *DynamicColorBound) CurrentPeriod(v int) int64 {
	return int64(1) << uint(dc.code.Len(uint64(dc.col[v])))
}

// FrozenSchedule snapshots the current coloring as an immutable
// ClassSchedule whose class k is color k+1, for every color up to the
// largest in use; a color no family holds is a class without members. The
// snapshot stays internally consistent (every happy set independent in the
// graph at freeze time) while the live scheduler keeps absorbing churn —
// this is the value the serving layer publishes, and Placement patches it
// after a recoloring.
func (dc *DynamicColorBound) FrozenSchedule() (*ClassSchedule, error) {
	colors := 0
	class := make([]int32, len(dc.col))
	for v, c := range dc.col {
		class[v] = int32(c - 1)
		colors = max(colors, c)
	}
	periods := make([]int64, colors)
	offsets := make([]int64, colors)
	for k := range periods {
		var err error
		if periods[k], offsets[k], err = dc.timing(k + 1); err != nil {
			return nil, err
		}
	}
	return NewClassSchedule(dc.Name(), periods, offsets, class)
}

// Placement returns where family v sits in FrozenSchedule's numbering: the
// class of its current color and that color's period and offset. It is
// the move a schedule frozen earlier needs once v has recolored.
func (dc *DynamicColorBound) Placement(v int) (Move, error) {
	c := dc.col[v]
	period, offset, err := dc.timing(c)
	return Move{Entity: v, Class: int32(c - 1), Period: period, Offset: offset}, err
}

// timing returns the period and offset of color c's codeword.
func (dc *DynamicColorBound) timing(c int) (period, offset int64, err error) {
	enc := dc.code.Encode(uint64(c))
	if enc.Len() > 62 {
		return 0, 0, fmt.Errorf("core: codeword of color %d is %d bits; period overflows int64", c, enc.Len())
	}
	return int64(1) << uint(enc.Len()), int64(enc.Value()), nil
}

// Color returns v's current color.
func (dc *DynamicColorBound) Color(v int) int { return dc.col[v] }

// Coloring returns a copy of the full current coloring, the state a
// durability snapshot must capture for RestoreDynamicColorBound.
func (dc *DynamicColorBound) Coloring() []int { return append([]int(nil), dc.col...) }

// Code returns the prefix code the scheduler encodes colors with.
func (dc *DynamicColorBound) Code() prefixcode.Code { return dc.code }

// Degree returns v's current degree.
func (dc *DynamicColorBound) Degree(v int) int { return dc.d.Degree(v) }

// N returns the current number of parents.
func (dc *DynamicColorBound) N() int { return dc.d.N() }

// M returns the current number of in-law edges.
func (dc *DynamicColorBound) M() int { return dc.d.M() }

// Graph snapshots the current conflict graph.
func (dc *DynamicColorBound) Graph() *graph.Graph { return dc.d.Snapshot() }

// VerifyProper checks that the maintained coloring is proper and
// degree-bounded — the invariant that keeps every happy set independent.
func (dc *DynamicColorBound) VerifyProper() error {
	for v := 0; v < dc.d.N(); v++ {
		if dc.col[v] < 1 {
			return fmt.Errorf("core: dynamic node %d uncolored", v)
		}
		if dc.col[v] > dc.d.Degree(v)+1 {
			return fmt.Errorf("core: dynamic node %d has color %d > deg+1 = %d", v, dc.col[v], dc.d.Degree(v)+1)
		}
		for _, u := range dc.d.Neighbors(v) {
			if dc.col[u] == dc.col[v] {
				return fmt.Errorf("core: dynamic edge (%d,%d) monochromatic with %d", v, u, dc.col[v])
			}
		}
	}
	return nil
}
