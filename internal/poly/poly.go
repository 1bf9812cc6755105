// Package poly is the Polyamorous Scheduling core: pairwise meetings are
// scheduled on the *edges* of a graph, each edge carrying a frequency demand
// (meet at least once every d timeslots), and a timeslot's output must be a
// matching — no two scheduled meetings may share a person. This is the
// edge-scheduling sibling of the node-scheduling gathering problem
// (arXiv 2403.00465; approximation algorithms in arXiv 2411.06292), served
// through the exact same core.Schedule surface so the engine, the
// frozen-schedule cache, the word-packed window encoding, and both wire
// protocols work unchanged — the schedule's entities are edge slots instead
// of families.
//
// Both approximation algorithms reduce to the same two-stage shape:
//
//  1. Partition the edges into layers that are matchings, via greedy
//     (Misra–Gries-style) edge coloring. The "layering" scheduler colors
//     globally and lets a layer absorb any edge whose demand its period
//     respects; the "bucketed" scheduler first groups edges by
//     power-of-two demand and colors each bucket separately, so a layer
//     serves exactly one demand class.
//  2. Assign each layer a dyadic residue class t ≡ offset (mod period),
//     period a power of two at most the layer's demand, with all classes
//     pairwise disjoint — buddy allocation over the infinite binary tree
//     of residue classes. Disjointness means at most one layer fires per
//     timeslot, so every emitted happy set is a matching by construction,
//     and perfect periodicity makes each edge's maximum gap exactly its
//     layer's period.
//
// Classes are always allocated at the leftmost free position of the dyadic
// tree, layers and edge slots always reuse the lowest free index: every
// placement decision is a pure function of the current state, never of the
// operation history, which is what lets a community restored from a
// snapshot + WAL tail answer byte-identically to the process that wrote it.
// The vacant slots are kept in a min-heap only to find that lowest index in
// O(log slots); Restore rebuilds the heap from the slots, so it is never
// part of the state.
//
// When the demand density Σ 1/p exceeds the unit capacity of the timeline
// (or churn has fragmented the tree), insertion falls back to a full
// relayering with the smallest uniform period inflation 2^g that packs —
// demands may then be missed, which Stats reports as MaxGapRatio > 1, but
// matching-validity and perfect periodicity are never given up.
package poly

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
)

// Scheduler codes accepted by New. The empty code means CodeLayering.
const (
	// CodeLayering colors all edges globally; a layer absorbs any edge
	// whose demand its period already respects, so layers are shared
	// across demand classes (layer period = the creating edge's demand
	// rounded down to a power of two).
	CodeLayering = "layering"
	// CodeBucketed groups edges by power-of-two demand and colors each
	// bucket separately: a layer serves exactly one demand class, which
	// trades more layers for per-class periods that never under-serve.
	CodeBucketed = "bucketed"
)

// Codes lists the scheduler codes in the order help text shows them.
func Codes() []string { return []string{CodeLayering, CodeBucketed} }

// DefaultDemand is the per-edge demand used when a create or churn request
// does not name one: meet at least once every 64 slots. It leaves enough
// density headroom that communities of the serving layer's usual sizes
// schedule every edge at its demanded rate.
const DefaultDemand = 64

// maxPeriodLog caps layer periods at 2^30 slots: deep enough that inflated
// instances still pack (2^30 layers would be needed to fill the tree),
// shallow enough that closed-form window math stays far from int64 limits.
const maxPeriodLog = 30

// MaxPeriod is the largest period a layer is ever assigned.
const MaxPeriod = int64(1) << maxPeriodLog

// ClampDemand normalizes a requested demand: non-positive values take the
// default, and demands beyond MaxPeriod are capped (a gap of 2^30 slots is
// already "almost never").
func ClampDemand(d int64) int64 {
	if d <= 0 {
		return DefaultDemand
	}
	if d > MaxPeriod {
		return MaxPeriod
	}
	return d
}

// floorPow2 returns the largest power of two ≤ d, for d ≥ 1.
func floorPow2(d int64) int64 {
	return int64(1) << (bits.Len64(uint64(d)) - 1)
}

// edgeSlot is one edge entity of the schedule. Slots are stable: deleting
// an edge vacates its slot (present = false, never happy) and a later
// insert reuses the lowest vacant slot, so a community's entity count only
// grows and window bitmaps stay aligned across churn.
type edgeSlot struct {
	u, v    int // canonical u < v
	demand  int64
	layer   int32
	present bool
}

// layer is one matching with an allocated dyadic residue class. A dead
// layer (period 0) is an index placeholder left by churn; its class is
// free and the lowest dead index is reused first.
type layer struct {
	period int64 // allocated period (power of two); 0 = dead
	offset int64 // 0 ≤ offset < period
	target int64 // demanded period (power of two); period ≥ target after inflation
	count  int   // member edges
}

// Dyn is a dynamic Polyamorous Scheduling instance under edge churn, the
// poly counterpart of core.DynamicColorBound: the serving layer mutates it
// under the community write lock and snapshots FrozenSchedule into the
// read cache. The zero value is not usable; construct with New.
type Dyn struct {
	code       string
	n          int // family nodes
	slots      []edgeSlot
	byEdge     map[[2]int]int // canonical (u,v) → slot
	layers     []layer
	nodeLayers [][]int32 // per node: live layers it appears in (a matching ⇒ at most once each)
	vacant     vacancies // the vacant slots, each once
	edges      int       // live edge count
	relayered  int64     // full relayering rebuilds (the repair escape hatch)
	moved      int       // the slot the last AddEdge or RemoveEdge attached or vacated
}

// New creates an empty instance over n family nodes. An empty code means
// CodeLayering; unknown codes are rejected.
func New(n int, code string) (*Dyn, error) {
	if n < 0 {
		return nil, fmt.Errorf("poly: negative family count %d", n)
	}
	switch code {
	case "":
		code = CodeLayering
	case CodeLayering, CodeBucketed:
	default:
		return nil, fmt.Errorf("poly: unknown scheduler code %q (want %q or %q)", code, CodeLayering, CodeBucketed)
	}
	return &Dyn{
		code:       code,
		byEdge:     make(map[[2]int]int),
		nodeLayers: make([][]int32, n),
		n:          n,
	}, nil
}

// Code returns the scheduler code ("layering" or "bucketed").
func (d *Dyn) Code() string { return d.code }

// Name identifies the scheduler for reports and frozen schedules.
func (d *Dyn) Name() string { return "poly/" + d.code }

// N returns the number of family nodes.
func (d *Dyn) N() int { return d.n }

// M returns the number of live edges.
func (d *Dyn) M() int { return d.edges }

// Slots returns the schedule entity count: live edges plus vacant slots
// left by churn. Window bitmaps and NextHappy queries index this range.
func (d *Dyn) Slots() int { return len(d.slots) }

// Relayerings returns how many full relayering rebuilds churn has forced —
// the poly counterpart of the recoloring counter.
func (d *Dyn) Relayerings() int64 { return d.relayered }

// AddNode appends a family node and returns its index.
func (d *Dyn) AddNode() int {
	d.nodeLayers = append(d.nodeLayers, nil)
	d.n++
	return d.n - 1
}

// canon returns the canonical (min, max) key of an edge.
func canon(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// HasEdge reports whether the edge (u, v) is live.
func (d *Dyn) HasEdge(u, v int) bool {
	_, ok := d.byEdge[canon(u, v)]
	return ok
}

// Demand returns the live edge's demand, or 0 if the edge is absent.
func (d *Dyn) Demand(u, v int) int64 {
	if i, ok := d.byEdge[canon(u, v)]; ok {
		return d.slots[i].demand
	}
	return 0
}

// Edge returns the endpoints and demand of a slot, with ok = false for
// vacant or out-of-range slots.
func (d *Dyn) Edge(slot int) (u, v int, demand int64, ok bool) {
	if slot < 0 || slot >= len(d.slots) || !d.slots[slot].present {
		return 0, 0, 0, false
	}
	s := d.slots[slot]
	return s.u, s.v, s.demand, true
}

// inLayer reports whether node u already appears in layer li.
func (d *Dyn) inLayer(u int, li int32) bool {
	for _, l := range d.nodeLayers[u] {
		if l == li {
			return true
		}
	}
	return false
}

// dropNodeLayer removes layer li from node u's live-layer list.
func (d *Dyn) dropNodeLayer(u int, li int32) {
	ls := d.nodeLayers[u]
	for i, l := range ls {
		if l == li {
			d.nodeLayers[u] = append(ls[:i], ls[i+1:]...)
			return
		}
	}
}

// findClass searches the subtree rooted at class (q, o) for the leftmost
// free class of period p (descend-zero-bit-first), given the classes the
// live layers hold. It is a pure function of the layer set — no free
// lists — so a restored instance allocates exactly like the original.
func (d *Dyn) findClass(q, o, p int64) (int64, bool) {
	occupied := 0
	for i := range d.layers {
		l := &d.layers[i]
		if l.period == 0 {
			continue
		}
		if l.period <= q {
			if o%l.period == l.offset {
				return 0, false // an ancestor-or-equal class is allocated
			}
		} else if l.offset%q == o {
			occupied++ // an allocated class lives below this node
		}
	}
	if occupied == 0 {
		return o, true // whole subtree free: take offset o (zero-extended)
	}
	if q == p {
		return 0, false // need this exact class and it is not empty
	}
	if off, ok := d.findClass(q*2, o, p); ok {
		return off, ok
	}
	return d.findClass(q*2, o+q, p)
}

// allocClass returns the leftmost free dyadic class of period p, or
// ok = false when nothing of that period is free.
func (d *Dyn) allocClass(p int64) (int64, bool) {
	return d.findClass(1, 0, p)
}

// newLayerIndex returns the lowest dead layer index, growing the slice if
// every layer is live — canonical, so restore-then-churn matches.
func (d *Dyn) newLayerIndex() int32 {
	for i := range d.layers {
		if d.layers[i].period == 0 {
			return int32(i)
		}
	}
	d.layers = append(d.layers, layer{})
	return int32(len(d.layers) - 1)
}

// newSlotIndex returns the lowest vacant edge slot, popped from the
// vacancy heap in O(log slots), or appends a slot when none is vacant, so
// building m edges costs O(m).
func (d *Dyn) newSlotIndex() int {
	if len(d.vacant) > 0 {
		return d.vacant.pop()
	}
	d.slots = append(d.slots, edgeSlot{})
	return len(d.slots) - 1
}

// vacancies is a binary min-heap of slot indices: vacancies[0] is the
// smallest, and each entry is at most its children at 2i+1 and 2i+2. An
// increasing list is already one.
type vacancies []int32

// push adds slot s.
func (h *vacancies) push(s int) {
	q := append(*h, int32(s))
	for i := len(q) - 1; i > 0; {
		up := (i - 1) / 2
		if q[up] <= q[i] {
			break
		}
		q[up], q[i] = q[i], q[up]
		i = up
	}
	*h = q
}

// pop removes and returns the smallest slot; the heap must not be empty.
func (h *vacancies) pop() int {
	q := *h
	top, last := q[0], len(q)-1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && q[c+1] < q[c] {
			c++
		}
		if q[i] <= q[c] {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return int(top)
}

// joinable reports whether layer li can absorb an edge (u, v) with target
// period tp under the scheduler's join rule.
func (d *Dyn) joinable(li int32, u, v int, tp int64) bool {
	l := &d.layers[li]
	if l.period == 0 {
		return false
	}
	if d.code == CodeBucketed {
		if l.target != tp {
			return false
		}
	} else if l.period > tp {
		return false
	}
	return !d.inLayer(u, li) && !d.inLayer(v, li)
}

// attach places a live slot into layer li, updating membership indexes.
func (d *Dyn) attach(slot int, li int32) {
	s := &d.slots[slot]
	s.layer = li
	d.layers[li].count++
	d.nodeLayers[s.u] = append(d.nodeLayers[s.u], li)
	d.nodeLayers[s.v] = append(d.nodeLayers[s.v], li)
}

// AddEdge inserts the edge (u, v) with the given demand (ClampDemand is
// applied). It returns whether the edge set changed and whether the insert
// forced a full relayering. Inserting an existing edge is a no-op, even
// with a different demand — like re-marrying in the classic kind.
// Self-loops and out-of-range endpoints are a programming error: the
// serving layer validates before calling, mirroring DynamicColorBound.
func (d *Dyn) AddEdge(u, v int, demand int64) (applied, relayered bool) {
	if u == v || u < 0 || v < 0 || u >= d.n || v >= d.n {
		panic(fmt.Sprintf("poly: AddEdge(%d, %d) outside %d nodes", u, v, d.n))
	}
	key := canon(u, v)
	if _, ok := d.byEdge[key]; ok {
		return false, false
	}
	demand = ClampDemand(demand)
	tp := floorPow2(demand)
	slot := d.newSlotIndex()
	d.slots[slot] = edgeSlot{u: key[0], v: key[1], demand: demand, layer: -1, present: true}
	d.byEdge[key] = slot
	d.edges++
	d.moved = slot

	for i := range d.layers {
		if d.joinable(int32(i), key[0], key[1], tp) {
			d.attach(slot, int32(i))
			return true, false
		}
	}
	if off, ok := d.allocClass(tp); ok {
		li := d.newLayerIndex()
		d.layers[li] = layer{period: tp, offset: off, target: tp}
		d.attach(slot, li)
		return true, false
	}
	// No compatible layer and no free class of the target period: the tree
	// is full or fragmented. Relayer everything from scratch, inflating
	// uniformly only as much as packing requires.
	d.rebuild()
	return true, true
}

// RemoveEdge deletes the edge (u, v), vacating its slot. Removing an
// absent edge is a no-op.
func (d *Dyn) RemoveEdge(u, v int) (applied bool) {
	key := canon(u, v)
	slot, ok := d.byEdge[key]
	if !ok {
		return false
	}
	s := &d.slots[slot]
	li := s.layer
	d.layers[li].count--
	d.dropNodeLayer(s.u, li)
	d.dropNodeLayer(s.v, li)
	if d.layers[li].count == 0 {
		d.layers[li] = layer{} // dead: its class is free again
	}
	*s = edgeSlot{}
	delete(d.byEdge, key)
	d.vacant.push(slot)
	d.edges--
	d.moved = slot
	return true
}

// rebuild relayers every live edge from scratch in slot order, then packs
// the layers into the dyadic tree smallest-period-first with the least
// uniform inflation 2^g that fits — the deterministic repair escape hatch
// for full or fragmented trees.
func (d *Dyn) rebuild() {
	d.relayered++
	type newLayer struct {
		target  int64
		members []int
	}
	var nls []newLayer
	nodeIn := make(map[[2]int32]bool) // (node, layer) membership during forming
	for slot := range d.slots {
		s := &d.slots[slot]
		if !s.present {
			continue
		}
		tp := floorPow2(s.demand)
		li := -1
		for i := range nls {
			ok := nls[i].target <= tp
			if d.code == CodeBucketed {
				ok = nls[i].target == tp
			}
			if ok && !nodeIn[[2]int32{int32(s.u), int32(i)}] && !nodeIn[[2]int32{int32(s.v), int32(i)}] {
				li = i
				break
			}
		}
		if li < 0 {
			nls = append(nls, newLayer{target: tp})
			li = len(nls) - 1
		}
		nls[li].members = append(nls[li].members, slot)
		nodeIn[[2]int32{int32(s.u), int32(li)}] = true
		nodeIn[[2]int32{int32(s.v), int32(li)}] = true
	}

	// Smallest uniform inflation 2^g with Σ 1/period ≤ 1 under the cap.
	period := func(target int64, g uint) int64 {
		if g >= 62 || target<<g > MaxPeriod || target<<g < target {
			return MaxPeriod
		}
		return target << g
	}
	g := uint(0)
	for ; g < 62; g++ {
		density := 0.0
		for i := range nls {
			density += 1 / float64(period(nls[i].target, g))
		}
		if density <= 1 {
			break
		}
	}

	// Pack smallest period first (stable on forming order): leftmost-free
	// buddy allocation in nondecreasing period order cannot fragment, so
	// it succeeds whenever the density fits.
	order := make([]int, len(nls))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ { // insertion sort: stable, tiny inputs
		for j := i; j > 0 && period(nls[order[j]].target, g) < period(nls[order[j-1]].target, g); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	d.layers = d.layers[:0]
	for u := range d.nodeLayers {
		d.nodeLayers[u] = d.nodeLayers[u][:0]
	}
	for _, i := range order {
		p := period(nls[i].target, g)
		off, ok := d.allocClass(p)
		if !ok {
			panic(fmt.Sprintf("poly: relayering failed to pack %d layers at inflation 2^%d", len(nls), g))
		}
		li := int32(len(d.layers))
		d.layers = append(d.layers, layer{period: p, offset: off, target: nls[i].target})
		for _, slot := range nls[i].members {
			d.attach(slot, li)
		}
	}
}

// Apply performs one edit (the core.Edit vocabulary shared with the
// classic kind): EditInsert adds the edge with the edit's demand
// (ClampDemand applied, so 0 means DefaultDemand), EditDelete removes it,
// EditAddNode appends a family node. Applied reports a change; Recolored
// reports a relayering rebuild, the poly analog of a recoloring.
func (d *Dyn) Apply(e core.Edit) core.EditResult {
	switch e.Op {
	case core.EditAddNode:
		d.AddNode()
		return core.EditResult{Applied: true}
	case core.EditInsert:
		a, r := d.AddEdge(e.U, e.V, e.Demand)
		return core.EditResult{Applied: a, Recolored: r}
	case core.EditDelete:
		return core.EditResult{Applied: d.RemoveEdge(e.U, e.V)}
	default:
		panic(fmt.Sprintf("poly: unknown edit op %d", e.Op))
	}
}

// FrozenSchedule snapshots the current layer assignment as an immutable
// core.ClassSchedule whose entities are the edge slots and whose class k
// is layer k: slot s is happy exactly at t ≡ offset (mod period) of its
// layer, and a vacant slot is in no class, so never happy. A dead layer is
// a class without members. Disjoint layer classes mean at most one class
// fires per timeslot, so every happy set is a single layer — a matching.
// The snapshot stays valid while the live instance churns on — the
// serving layer's cache contract — and Moved patches it after an edit.
func (d *Dyn) FrozenSchedule() *core.ClassSchedule {
	periods := make([]int64, len(d.layers))
	offsets := make([]int64, len(d.layers))
	for i, l := range d.layers {
		// A dead layer's period 0 becomes 1, a valid timing for a class
		// that has no members; the layer that next takes the index sets
		// its own (Moved).
		periods[i], offsets[i] = max(l.period, 1), l.offset
	}
	class := make([]int32, len(d.slots))
	for i, s := range d.slots {
		class[i] = -1
		if s.present {
			class[i] = s.layer
		}
	}
	s, err := core.NewClassSchedule(d.Name(), periods, offsets, class)
	if err != nil {
		// Unreachable: New, churn and Restore keep every live layer's
		// period a power of two ≤ MaxPeriod with offset < period.
		panic(fmt.Sprintf("poly: freezing layers: %v", err))
	}
	return s
}

// Moved returns where the slot the last AddEdge or RemoveEdge attached or
// vacated now sits in FrozenSchedule's numbering: its layer and that
// layer's period and offset, or no class once vacated. That slot is the
// one entity such an edit moves, unless it relayered, which may move
// every slot.
func (d *Dyn) Moved() core.Move {
	m := core.Move{Entity: d.moved, Class: -1}
	if s := &d.slots[d.moved]; s.present {
		l := &d.layers[s.layer]
		m.Class, m.Period, m.Offset = s.layer, l.period, l.offset
	}
	return m
}

// Verify checks the structural invariants: every layer is a matching,
// layer classes are pairwise disjoint, periods are powers of two within
// range, the membership indexes agree with the slots, and the vacancy heap
// holds exactly the vacant slots, each once, in heap order. Tests call it
// after churn storms, and Restore on every state; it is never on the
// serving path.
func (d *Dyn) Verify() error {
	for i := range d.layers {
		l := &d.layers[i]
		if l.period == 0 {
			if l.count != 0 {
				return fmt.Errorf("poly: dead layer %d has %d members", i, l.count)
			}
			continue
		}
		if l.period&(l.period-1) != 0 || l.period > MaxPeriod {
			return fmt.Errorf("poly: layer %d has period %d", i, l.period)
		}
		if l.offset < 0 || l.offset >= l.period {
			return fmt.Errorf("poly: layer %d has offset %d outside [0, %d)", i, l.offset, l.period)
		}
		for j := 0; j < i; j++ {
			m := &d.layers[j]
			if m.period == 0 {
				continue
			}
			p := l.period
			if m.period < p {
				p = m.period
			}
			if l.offset%p == m.offset%p {
				return fmt.Errorf("poly: layers %d and %d collide: (%d,%d) vs (%d,%d)",
					j, i, m.period, m.offset, l.period, l.offset)
			}
		}
	}
	counts := make([]int, len(d.layers))
	seen := make(map[[2]int32]bool) // (node, layer): matching check
	live := 0
	for slot := range d.slots {
		s := &d.slots[slot]
		if !s.present {
			continue
		}
		live++
		if s.u >= s.v || s.u < 0 || s.v >= d.n {
			return fmt.Errorf("poly: slot %d holds invalid edge (%d, %d)", slot, s.u, s.v)
		}
		if s.layer < 0 || int(s.layer) >= len(d.layers) || d.layers[s.layer].period == 0 {
			return fmt.Errorf("poly: slot %d references layer %d", slot, s.layer)
		}
		for _, nd := range []int{s.u, s.v} {
			k := [2]int32{int32(nd), s.layer}
			if seen[k] {
				return fmt.Errorf("poly: node %d appears twice in layer %d", nd, s.layer)
			}
			seen[k] = true
			if !d.inLayer(nd, s.layer) {
				return fmt.Errorf("poly: node %d missing layer %d in its index", nd, s.layer)
			}
		}
		counts[s.layer]++
	}
	if live != d.edges {
		return fmt.Errorf("poly: %d live slots but edge count %d", live, d.edges)
	}
	if len(d.vacant) != len(d.slots)-live {
		return fmt.Errorf("poly: %d vacant slots but %d in the vacancy heap", len(d.slots)-live, len(d.vacant))
	}
	inHeap := make([]bool, len(d.slots))
	for i, slot := range d.vacant {
		if slot < 0 || int(slot) >= len(d.slots) || d.slots[slot].present || inHeap[slot] {
			return fmt.Errorf("poly: vacancy heap holds slot %d, not a distinct vacant slot", slot)
		}
		inHeap[slot] = true
		if i > 0 && d.vacant[(i-1)/2] > slot {
			return fmt.Errorf("poly: vacancy heap entry %d (slot %d) is below its parent", i, slot)
		}
	}
	for i, c := range counts {
		if d.layers[i].period != 0 && c != d.layers[i].count {
			return fmt.Errorf("poly: layer %d counts %d members, slots say %d", i, d.layers[i].count, c)
		}
	}
	return nil
}
