package service

import (
	"repro/internal/core"
	"repro/internal/poly"
)

// Community kinds. A kind names the scheduling problem a community solves
// and the backend that maintains it under churn.
const (
	// KindClassic is the paper's Family Holiday Gathering problem: entities
	// are families, edges are in-law conflicts, and each holiday's happy set
	// is an independent set maintained by the §6 dynamic color-bound
	// scheduler. The empty kind means classic.
	KindClassic = "classic"
	// KindPoly is the Polyamorous Scheduling problem: demands sit on the
	// edges, each timeslot's output is a matching, and the schedule entities
	// are edge slots rather than families.
	KindPoly = "poly"
)

// backend is the per-kind scheduler a Community drives: the classic dynamic
// color-bound recolorer or the poly edge-layering scheduler. Both expose
// the same churn vocabulary (core.Edit/EditResult), freeze to a
// core.ClassSchedule with stable class numbers and patch a schedule they
// froze, which is what lets the locking, journaling, caching, and both
// wire protocols above stay kind-agnostic. Callers hold the community's
// write lock for every mutating call and validate edits (validEdge) before
// applying them; Community.applyLocked is the one caller of Apply.
type backend interface {
	Kind() string
	// SchedulerName names the algorithm for stats and frozen schedules.
	SchedulerName() string
	N() int
	M() int
	// Repairs counts the kind's disruption events: recolorings for classic,
	// full relayerings for poly.
	Repairs() int64
	HasEdge(u, v int) bool
	// Apply performs one validated edit with the kind's repair rule
	// (poly resolves a 0 demand to the community default; classic
	// ignores demands) — the one entry point for edge edits and new
	// families, so batched, single-op and replayed edits cannot diverge.
	Apply(e core.Edit) (core.EditResult, error)
	// Invalidates reports whether an edit's outcome changed the frozen
	// schedule, and so ticks the community version. Classic schedules only
	// change when somebody recolors or a family joins; poly schedules
	// include the edge slots themselves, so every applied edit changes
	// them.
	Invalidates(e core.Edit, res core.EditResult) bool
	// Patch returns s, a schedule frozen before the edge edit e, with the
	// entities e moved placed where they now sit: at most the two
	// endpoints of a §6 recoloring, or the one poly slot attached or
	// vacated. It returns nil when the edit moved more than that (a poly
	// relayering) or the patch fails; the next read then freezes anew.
	Patch(s *core.ClassSchedule, e core.Edit, res core.EditResult) *core.ClassSchedule
	FrozenSchedule() (*core.ClassSchedule, error)
	// exportInto fills the kind-specific fields of a snapshot.
	exportInto(st *CommunityState)
}

// classicBackend adapts core.DynamicColorBound to the backend surface.
type classicBackend struct {
	dyn *core.DynamicColorBound
}

func (b *classicBackend) Kind() string          { return KindClassic }
func (b *classicBackend) SchedulerName() string { return b.dyn.Name() }
func (b *classicBackend) N() int                { return b.dyn.N() }
func (b *classicBackend) M() int                { return b.dyn.M() }
func (b *classicBackend) Repairs() int64        { return b.dyn.Recolorings }
func (b *classicBackend) HasEdge(u, v int) bool { return b.dyn.HasEdge(u, v) }

func (b *classicBackend) Apply(e core.Edit) (core.EditResult, error) { return b.dyn.Apply(e) }

func (b *classicBackend) Invalidates(e core.Edit, res core.EditResult) bool {
	return res.Recolored || e.Op == core.EditAddNode
}

// Patch moves both endpoints to the classes of their current colors; the
// one that kept its color stays where it was.
func (b *classicBackend) Patch(s *core.ClassSchedule, e core.Edit, _ core.EditResult) *core.ClassSchedule {
	mu, errU := b.dyn.Placement(e.U)
	mv, errV := b.dyn.Placement(e.V)
	if errU != nil || errV != nil {
		return nil
	}
	s, _ = s.With(mu, mv) // nil when it fails; the next read's freeze reports why
	return s
}

func (b *classicBackend) FrozenSchedule() (*core.ClassSchedule, error) { return b.dyn.FrozenSchedule() }

func (b *classicBackend) exportInto(st *CommunityState) {
	g := b.dyn.Graph()
	st.Families = g.N()
	st.Edges = g.EdgePairs()
	st.Code = b.dyn.Code().Name()
	st.Coloring = b.dyn.Coloring()
	st.Recolorings = b.dyn.Recolorings
}

// polyBackend adapts poly.Dyn. defaultDemand is the community-level demand
// substituted for edits that do not name one; it is fixed at creation and
// persisted, so WAL replay resolves demands identically.
type polyBackend struct {
	dyn           *poly.Dyn
	defaultDemand int64
}

func (b *polyBackend) Kind() string          { return KindPoly }
func (b *polyBackend) SchedulerName() string { return b.dyn.Name() }
func (b *polyBackend) N() int                { return b.dyn.N() }
func (b *polyBackend) M() int                { return b.dyn.M() }
func (b *polyBackend) Repairs() int64        { return b.dyn.Relayerings() }
func (b *polyBackend) HasEdge(u, v int) bool { return b.dyn.HasEdge(u, v) }

// demand resolves an edit's demand: 0 (and anything non-positive) takes the
// community default; anything else is clamped by the poly core.
func (b *polyBackend) demand(d int64) int64 {
	if d <= 0 {
		return b.defaultDemand
	}
	return poly.ClampDemand(d)
}

func (b *polyBackend) Apply(e core.Edit) (core.EditResult, error) {
	e.Demand = b.demand(e.Demand)
	return b.dyn.Apply(e), nil
}

// Invalidates: a poly schedule's entities are the edge slots, so any edit
// that changed the edge set changed the schedule — unlike classic, where an
// insert between differently colored families leaves every answer valid.
func (b *polyBackend) Invalidates(_ core.Edit, res core.EditResult) bool { return res.Applied }

// Patch moves the one slot the edit attached or vacated, unless the edit
// relayered every slot.
func (b *polyBackend) Patch(s *core.ClassSchedule, _ core.Edit, res core.EditResult) *core.ClassSchedule {
	if res.Recolored {
		return nil
	}
	s, _ = s.With(b.dyn.Moved()) // nil when it fails, as for classic
	return s
}

func (b *polyBackend) FrozenSchedule() (*core.ClassSchedule, error) {
	return b.dyn.FrozenSchedule(), nil
}

func (b *polyBackend) exportInto(st *CommunityState) {
	st.Kind = KindPoly
	st.Families = b.dyn.N()
	st.Code = b.dyn.Code()
	st.DefaultDemand = b.defaultDemand
	ps := b.dyn.Export()
	st.Poly = &ps
}

// PolyStats returns the poly-specific instance summary (density, max gap
// ratio, fairness) and whether the community is of the poly kind.
func (c *Community) PolyStats() (poly.Stats, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if pb, ok := c.be.(*polyBackend); ok {
		return pb.dyn.Stats(), true
	}
	return poly.Stats{}, false
}

// Kind returns the community's kind (KindClassic or KindPoly).
func (c *Community) Kind() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.be.Kind()
}
