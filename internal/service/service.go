// Package service is the concurrent multi-community serving layer: a
// registry of independently evolving communities, each scheduled by the §6
// dynamic color-bound scheduler or the poly edge-layering scheduler,
// answering random-access schedule queries (windows of holidays, a
// family's next happy holiday) from a published frozen core.ClassSchedule.
//
// The published schedule exploits the paper's headline property: the
// schedule is perfectly periodic, so a snapshot of the current coloring
// answers any window in closed form with no per-query scheduling work. A
// community freezes its schedule in full on the first read after a create,
// restore or replay, after a new family and after a poly relayering. Every
// other edit patches the published schedule (core.ClassSchedule.With): a
// §6 repair moves at most the two endpoints of the edge to other colors,
// a poly edit attaches or vacates one edge slot, and an insertion between
// differently colored families changes nothing and keeps the schedule as
// it is.
//
// All types are safe for concurrent use. The registry and each community
// take RW locks for writes and state reads, but a schedule read takes no
// lock: a community publishes its frozen schedule through an atomic
// pointer, and a read locks only to freeze one when none is published.
// The schedules handed out are immutable values, so in-flight queries keep
// a consistent snapshot even while churn patches or drops the published
// one underneath them.
package service

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/poly"
	"repro/internal/prefixcode"
)

// MaxWindow bounds the holidays a single Window query may span, keeping
// per-request work and response size proportional to one page.
const MaxWindow = 4096

// Owner is the per-community ownership surface: the concurrent store of
// communities this node is authoritative for, plus any replicas it follows.
// Attach a Journal (Opts.Journal or SetJournal) to make it durable: every
// mutation is then logged write-ahead, and internal/persist can snapshot
// and replay the store across restarts. Placement — which node should own
// which community — is the Router's job; an Owner only enforces its side of
// the split by fencing communities it merely replicates (see Fence).
type Owner struct {
	mu          sync.RWMutex
	communities map[string]*Community
	// journal is read on every mutation with a single atomic load, so the
	// no-durability configuration pays nothing and attaching never races
	// in-flight churn.
	journal atomic.Pointer[journalBox]
}

// Opts configures New. The zero value is a valid standalone configuration.
type Opts struct {
	// Journal, when non-nil, is attached before the owner serves anything,
	// so no mutation can slip in unlogged between construction and a later
	// SetJournal. Recovery paths (Restore, Apply) never log, so attaching
	// at construction is safe even when a replay follows.
	Journal Journal
}

// New returns an empty owner configured by opts.
func New(opts Opts) *Owner {
	o := &Owner{communities: make(map[string]*Community)}
	if opts.Journal != nil {
		o.SetJournal(opts.Journal)
	}
	return o
}

// Create registers a new community of n families with the given initial
// marriages, scheduled by the dynamic color-bound scheduler over the named
// prefix code ("" means omega, the paper's choice). Errors on duplicate
// ids, unknown codes, and invalid edges.
func (r *Owner) Create(id string, n int, edges [][2]int, codeName string) (*Community, error) {
	return r.CreateSpec(CreateSpec{ID: id, Families: n, Edges: edges, Code: codeName})
}

// CreateSpec is the kind-dispatching create request: everything POST
// /v1/communities accepts. The zero Kind means KindClassic, keeping every
// pre-poly caller and record byte-compatible.
type CreateSpec struct {
	ID       string
	Families int
	Edges    [][2]int
	// Code selects the scheduler within the kind: a prefix code name for
	// classic ("" = omega), a poly scheduler code for poly ("" = layering).
	Code string
	Kind string
	// Demands are per-edge demands for poly creates, aligned with Edges;
	// nil (or a 0 entry) takes DefaultDemand. Classic creates must leave
	// them empty.
	Demands []int64
	// DefaultDemand is the demand substituted for poly edits that do not
	// name one; 0 means poly.DefaultDemand. Fixed at creation.
	DefaultDemand int64
}

// CreateSpec registers a new community of the requested kind. Unknown kinds
// are rejected with the bad_request envelope — the error a client can
// branch on across both transports.
func (r *Owner) CreateSpec(spec CreateSpec) (*Community, error) {
	c, logged, err := r.build(spec)
	if err != nil {
		return nil, err
	}
	return r.add(c, logged)
}

// CreateFromGraph registers a new community over an existing conflict
// graph, avoiding the edge-list round trip of Create. The graph is not
// retained; the community evolves its own dynamic copy. With a journal
// attached, the creation is logged before the community becomes visible; a
// journal failure registers nothing.
func (r *Owner) CreateFromGraph(id string, g *graph.Graph, codeName string) (*Community, error) {
	c, logged, err := r.buildClassic(id, g, codeName)
	if err != nil {
		return nil, err
	}
	return r.add(c, logged)
}

// build makes the unregistered community a create spec describes, plus the
// function producing the create record that rebuilds it exactly on replay.
func (r *Owner) build(spec CreateSpec) (*Community, func() Record, error) {
	switch spec.Kind {
	case "", KindClassic:
		if len(spec.Demands) > 0 {
			return nil, nil, Errf(CodeBadRequest, "community %q: classic communities take no edge demands", spec.ID)
		}
		if spec.DefaultDemand != 0 {
			return nil, nil, Errf(CodeBadRequest, "community %q: classic communities take no default demand", spec.ID)
		}
	case KindPoly:
		if len(spec.Demands) != 0 && len(spec.Demands) != len(spec.Edges) {
			return nil, nil, Errf(CodeBadRequest, "community %q: %d demands for %d edges",
				spec.ID, len(spec.Demands), len(spec.Edges))
		}
	default:
		return nil, nil, Errf(CodeBadRequest, "community %q: unknown kind %q (want %q or %q)",
			spec.ID, spec.Kind, KindClassic, KindPoly)
	}
	if spec.Families < 1 {
		return nil, nil, fmt.Errorf("service: community %q needs at least one family, got %d", spec.ID, spec.Families)
	}
	if spec.Kind == KindPoly {
		return r.buildPoly(spec)
	}
	g, err := edgeGraph(spec.Families, spec.Edges)
	if err != nil {
		return nil, nil, fmt.Errorf("service: community %q: %w", spec.ID, err)
	}
	return r.buildClassic(spec.ID, g, spec.Code)
}

// buildClassic makes an unregistered classic community over g. Its create
// record lists g's edges, built only when the record is asked for, so a
// create without a journal never pays for the list.
func (r *Owner) buildClassic(id string, g *graph.Graph, codeName string) (*Community, func() Record, error) {
	if g.N() < 1 {
		return nil, nil, fmt.Errorf("service: community %q needs at least one family", id)
	}
	code, err := prefixCode(codeName)
	if err != nil {
		return nil, nil, fmt.Errorf("service: community %q: %w", id, err)
	}
	dyn, err := core.NewDynamicColorBound(g, code)
	if err != nil {
		return nil, nil, fmt.Errorf("service: community %q: %w", id, err)
	}
	c := &Community{id: id, reg: r, be: &classicBackend{dyn: dyn}}
	return c, func() Record {
		return Record{Op: OpCreate, ID: id, N: g.N(), Edges: g.EdgePairs(), Code: code.Name()}
	}, nil
}

// buildPoly makes an unregistered poly community. Its create record carries
// the resolved code, default demand, and per-edge demands, so replay
// reconstructs it byte-identically.
func (r *Owner) buildPoly(spec CreateSpec) (*Community, func() Record, error) {
	dyn, err := poly.New(spec.Families, spec.Code)
	if err != nil {
		return nil, nil, fmt.Errorf("service: community %q: %w", spec.ID, err)
	}
	be := &polyBackend{dyn: dyn, defaultDemand: poly.ClampDemand(spec.DefaultDemand)}
	demands := make([]int64, len(spec.Edges))
	for i, e := range spec.Edges {
		if err := validEdge(spec.Families, e[0], e[1]); err != nil {
			return nil, nil, fmt.Errorf("service: community %q: %w", spec.ID, err)
		}
		if dyn.HasEdge(e[0], e[1]) {
			return nil, nil, fmt.Errorf("service: community %q: duplicate edge (%d,%d)", spec.ID, e[0], e[1])
		}
		var d int64
		if i < len(spec.Demands) {
			d = spec.Demands[i]
		}
		demands[i] = be.demand(d)
		dyn.AddEdge(e[0], e[1], demands[i])
	}
	c := &Community{id: spec.ID, reg: r, be: be}
	return c, func() Record {
		return Record{Op: OpCreate, ID: spec.ID, N: spec.Families, Edges: spec.Edges,
			Code: dyn.Code(), Kind: KindPoly, Demands: demands, DefaultDemand: be.defaultDemand}
	}, nil
}

// prefixCode resolves a classic community's prefix code name; "" means
// omega, the paper's choice.
func prefixCode(name string) (prefixcode.Code, error) {
	if name == "" {
		name = "omega"
	}
	return prefixcode.ByName(name)
}

// add is the one way a community enters the owner, whether created,
// restored, replayed or replicated. It rejects an empty id, and under r.mu
// a duplicate one, then journals logged's record when logged is non-nil and
// a journal is attached, and inserts c; a journal failure registers nothing.
//
// A fenced c is a replica: instead of being rejected it replaces the copy
// already registered, unless that copy is a fenced replica c is not ahead
// of (see Ahead), which is kept and returned. The replaced copy is fenced
// in the same critical section that swaps c in, so no caller of Get ever
// finds a writable copy of a community this node only replicates.
func (r *Owner) add(c *Community, logged func() Record) (*Community, error) {
	if c.id == "" {
		return nil, fmt.Errorf("service: empty community id")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.communities[c.id]; ok {
		if !c.fenced {
			return nil, fmt.Errorf("service: community %q already exists", c.id)
		}
		old.mu.Lock()
		keep := old.fenced && !Ahead(c.space, c.seq, old.space, old.seq)
		old.fenced = true
		old.mu.Unlock()
		if keep {
			return old, nil
		}
	}
	// Logging inside r.mu is load-bearing, not incidental: the snapshot
	// cut-point argument (persist.Store.SaveSnapshot) relies on a create's
	// sequence assignment and map insertion being one critical section.
	// Under SyncAlways that puts an fsync under the registry lock, but
	// creates and deletes are rare next to churn, which only holds c.mu.
	if j := r.getJournal(); j != nil && logged != nil {
		seq, err := j.Log(logged())
		if err != nil {
			return nil, fmt.Errorf("service: community %q: journal: %w", c.id, err)
		}
		c.seq = seq
	}
	r.communities[c.id] = c
	return c, nil
}

// Get returns the community with the given id, if registered.
func (r *Owner) Get(id string) (*Community, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.communities[id]
	return c, ok
}

// Fence marks a community as followed rather than owned: direct writes are
// rejected with CodeNotOwner from the next acquisition of its lock, while
// reads and replication (Replicate) continue. Reports whether the community
// exists. Replicas are registered fenced (InstallReplica, Replicate); Fence
// is for communities this node held as owner, so churn misrouted during a
// topology change fails closed instead of silently double-applying.
func (r *Owner) Fence(id string) bool { return r.setFenced(id, true) }

// Unfence lifts a fence: how the sender of a failed handoff resumes
// serving. A node taking a replica over goes through TakeOver instead.
// Reports whether the community exists.
func (r *Owner) Unfence(id string) bool { return r.setFenced(id, false) }

func (r *Owner) setFenced(id string, fenced bool) bool {
	c, ok := r.Get(id)
	if !ok {
		return false
	}
	c.mu.Lock()
	c.fenced = fenced
	c.mu.Unlock()
	return true
}

// Delete unregisters a community, reporting whether it existed. With a
// journal attached the deletion is logged first; a journal failure leaves
// the community registered and returns the error.
func (r *Owner) Delete(id string) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.communities[id]
	if !ok {
		return false, nil
	}
	// A fenced community is deleted by its owner's replicated delete record,
	// never directly: lock order r.mu → c.mu matches Apply's delete path.
	if c.Fenced() {
		return false, Errf(CodeNotOwner, "community %q is a replica on this node; its owner takes deletes", id)
	}
	if j := r.getJournal(); j != nil {
		if _, err := j.Log(Record{Op: OpDelete, ID: id, Space: c.Space()}); err != nil {
			return false, fmt.Errorf("service: delete %q: journal: %w", id, err)
		}
	}
	delete(r.communities, id)
	return true, nil
}

// List returns the registered community ids, sorted.
func (r *Owner) List() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]string, 0, len(r.communities))
	for id := range r.communities {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// edgeGraph builds the conflict graph of n families over an edge list,
// rejecting edges outside the families, self-marriages and duplicates.
// The build drops a repeat, so only a graph with fewer edges than the list
// is searched for the first one, to name it.
func edgeGraph(n int, edges [][2]int) (*graph.Graph, error) {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		if err := validEdge(n, e[0], e[1]); err != nil {
			return nil, err
		}
		if err := b.AddEdgeErr(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	g := b.Graph()
	if g.M() < len(edges) {
		seen := make(map[graph.Edge]bool, len(edges))
		for _, e := range edges {
			k := graph.Edge{U: e[0], V: e[1]}.Canon()
			if seen[k] {
				return nil, fmt.Errorf("duplicate edge (%d,%d)", e[0], e[1])
			}
			seen[k] = true
		}
	}
	return g, nil
}

// validEdge checks an edge against the community size.
func validEdge(n, u, v int) error {
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("edge (%d,%d) outside families [0,%d)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("self-marriage at family %d", u)
	}
	return nil
}

// Community is one conflict graph under churn plus its published frozen
// schedule. Schedule queries (Window, NextHappy, Schedule) load the
// published schedule with no lock. Churn takes the write lock, journals,
// and only then, in applyLocked, publishes a patched schedule, or drops it
// for the next read to freeze: a reader never sees an edit before its
// record is in the journal, and never waits for the journal.
type Community struct {
	id  string
	reg *Owner // for the journal

	mu sync.RWMutex
	// be is the kind-specific scheduler (classic color-bound or poly
	// edge-layering); everything above it is kind-agnostic.
	be backend
	// cached is the published schedule, nil until the next read freezes
	// one. Readers load it with no lock; it is stored only under mu.
	cached atomic.Pointer[core.ClassSchedule]
	// version counts the edits that changed the schedule (recolorings,
	// new families, poly edge edits) — a cheap staleness signal for
	// clients.
	version int64
	// seq is the journal sequence of the last record logged for (or
	// replayed into) this community; snapshots export it as the replay
	// cut-point. Guarded by mu like the state it versions.
	seq uint64
	// space is the sequence space seq counts in; see Space.
	space Space
	// fenced marks a community this node merely replicates: direct writes
	// are rejected with CodeNotOwner while replication (Apply) still lands.
	// Guarded by mu so an ownership change cannot interleave with a write.
	fenced bool

	hits   atomic.Int64 // queries answered from the published schedule
	misses atomic.Int64 // queries that had to freeze a new schedule in full
}

// ID returns the community's registry id.
func (c *Community) ID() string { return c.id }

// Seq returns the journal sequence of the last record logged for (or
// replayed into) this community — the read-your-writes token of the
// cluster API. /v1/status reports it for every copy, so a replica's lag is
// its owner's Seq minus its own.
func (c *Community) Seq() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.seq
}

// Space returns the sequence space the community's Seq counts in.
func (c *Community) Space() Space {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.space
}

// Fenced reports whether direct writes are fenced off (this node follows
// the community rather than owning it).
func (c *Community) Fenced() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.fenced
}

// fencedErrLocked rejects writes on fenced communities; caller holds c.mu.
// Replication bypasses it by design: Replicate (like Apply) edits the state
// at explicit sequence numbers and never calls the write methods.
func (c *Community) fencedErrLocked() error {
	if !c.fenced {
		return nil
	}
	return Errf(CodeNotOwner, "community %q is a replica on this node; its owner takes writes", c.id)
}

// Stats is a point-in-time summary of a community.
type Stats struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Families int    `json:"families"`
	// Marriages counts edges: in-law conflicts for classic, scheduled
	// relationships for poly.
	Marriages int    `json:"marriages"`
	Scheduler string `json:"scheduler"`
	Version   int64  `json:"version"`
	// Recolorings counts repair events: §6 recolorings for classic, full
	// relayering rebuilds for poly.
	Recolorings int64 `json:"recolorings"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// Poly carries the poly-kind instance summary (density, max gap ratio,
	// fairness); nil for classic communities.
	Poly *poly.Stats `json:"poly,omitempty"`
}

// Stats snapshots the community's counters.
func (c *Community) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := Stats{
		ID:          c.id,
		Kind:        c.be.Kind(),
		Families:    c.be.N(),
		Marriages:   c.be.M(),
		Scheduler:   c.be.SchedulerName(),
		Version:     c.version,
		Recolorings: c.be.Repairs(),
		CacheHits:   c.hits.Load(),
		CacheMisses: c.misses.Load(),
	}
	if pb, ok := c.be.(*polyBackend); ok {
		ps := pb.dyn.Stats()
		st.Poly = &ps
	}
	return st
}

// Families returns the current number of families.
func (c *Community) Families() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.be.N()
}

// AddFamily appends a new isolated family and returns its id. The schedule
// gains a node, so the next read freezes it anew. With a journal attached
// the record is logged first; on journal failure nothing is applied.
func (c *Community) AddFamily() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.fencedErrLocked(); err != nil {
		return 0, err
	}
	if j := c.reg.getJournal(); j != nil {
		if err := c.logLocked(j, Record{Op: OpAddFamily, ID: c.id, Space: c.space}); err != nil {
			return 0, err
		}
	}
	if err := c.applyLocked(nil, core.Edit{Op: core.EditAddNode}); err != nil {
		return 0, err
	}
	return c.be.N() - 1, nil
}

// Marry inserts an edge, routed through the kind's repair rule (§6 dynamic
// recoloring for classic, incremental layering for poly). The published
// schedule is patched when the backend says the insertion changed it. With
// a journal attached the record is logged (write-ahead) after validation
// but before the insertion; on journal failure nothing is applied.
func (c *Community) Marry(u, v int) (recolored bool, err error) {
	return c.MarryDemand(u, v, 0)
}

// MarryDemand is Marry with an explicit per-edge demand for poly
// communities (0 means the community default; classic ignores it).
func (c *Community) MarryDemand(u, v int, demand int64) (recolored bool, err error) {
	res, err := c.edit(core.Edit{Op: core.EditInsert, U: u, V: v, Demand: demand})
	return res.Recolored, err
}

// Divorce removes an edge (the kind's deletion path), reporting whether the
// edge existed and whether a repair (recoloring/relayering) ran. The
// published schedule is patched as for Marry, and journaling mirrors it.
func (c *Community) Divorce(u, v int) (removed, recolored bool, err error) {
	res, err := c.edit(core.Edit{Op: core.EditDelete, U: u, V: v})
	return res.Applied, res.Recolored, err
}

// edit is the single-op write path of Marry, Divorce and the JSON
// marry/divorce handlers: under the write lock it rejects fenced
// communities and invalid edges, answers an edit that would not change the
// edge set (re-marrying a married couple, divorcing strangers) without
// journaling it, so replay never carries records that did no work, and
// otherwise logs the record write-ahead and applies the edit.
func (c *Community) edit(e core.Edit) (core.EditResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.fencedErrLocked(); err != nil {
		return core.EditResult{}, err
	}
	if err := validEdge(c.be.N(), e.U, e.V); err != nil {
		return core.EditResult{}, fmt.Errorf("service: community %q: %w", c.id, err)
	}
	if c.be.HasEdge(e.U, e.V) == (e.Op == core.EditInsert) {
		return core.EditResult{}, nil
	}
	if j := c.reg.getJournal(); j != nil {
		if err := c.logLocked(j, c.record(e)); err != nil {
			return core.EditResult{}, err
		}
	}
	var res [1]core.EditResult
	err := c.applyLocked(res[:], e)
	return res[0], err
}

// applyLocked applies validated edits in order through the backend — the
// one place an edit or a new family reaches a backend, whether written,
// batched, replayed or replicated — and brings the published schedule up
// to date. An edit that changed the schedule ticks version, once per edit
// however the edits arrive, because version is persisted and WAL replay
// must land on the same value. It patches the schedule (backend.Patch), or
// drops it after a new family or a poly relayering; a community with none
// published stays unfrozen until its next read. It publishes once, after
// the last edit, so a reader sees a batch whole or not at all. out, when
// non-nil, receives each edit's result. The caller holds c.mu and has
// journaled the edits.
func (c *Community) applyLocked(out []core.EditResult, edits ...core.Edit) error {
	pub := c.cached.Load()
	s := pub
	var err error
	for i, e := range edits {
		var res core.EditResult
		if res, err = c.be.Apply(e); err != nil {
			err = fmt.Errorf("service: community %q: %w", c.id, err)
			break
		}
		if out != nil {
			out[i] = res
		}
		if !c.be.Invalidates(e, res) {
			continue
		}
		c.version++
		switch {
		case e.Op == core.EditAddNode:
			s = nil
		case s != nil:
			s = c.be.Patch(s, e, res)
		}
	}
	if s != pub {
		c.cached.Store(s)
	}
	return err
}

// record is the journal record of an effective edit.
func (c *Community) record(e core.Edit) Record {
	if e.Op == core.EditDelete {
		return Record{Op: OpDivorce, ID: c.id, U: e.U, V: e.V, Space: c.space}
	}
	return Record{Op: OpMarry, ID: c.id, U: e.U, V: e.V, Demand: e.Demand, Space: c.space}
}

// logLocked write-ahead logs this community's records to j, the attached
// journal the caller checked for, so a write with none attached never
// builds the record slice, which escapes into j. A BatchJournal takes the
// records in one append; any other journal is fed record by record, and
// c.seq advances to each record it accepts, so a failure partway leaves no
// accepted record above the community's sequence. The caller holds c.mu.
func (c *Community) logLocked(j Journal, recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	if bj, ok := j.(BatchJournal); ok {
		seq, err := bj.LogBatch(recs)
		if err != nil {
			return fmt.Errorf("service: community %q: journal: %w", c.id, err)
		}
		c.seq = seq
		return nil
	}
	for _, rec := range recs {
		seq, err := j.Log(rec)
		if err != nil {
			return fmt.Errorf("service: community %q: journal: %w", c.id, err)
		}
		c.seq = seq
	}
	return nil
}

// Schedule returns the community's frozen schedule, a *core.ClassSchedule
// (so snapshots compare with ==), freezing it only when none is published.
// It is immutable: callers may query it without locks, and it stays
// consistent even if the community recolors afterwards.
func (c *Community) Schedule() (core.Schedule, error) {
	s, err := c.frozen()
	if err != nil {
		return nil, err
	}
	return s, nil
}

// frozen returns the published schedule, loaded with no lock. When none is
// published — the first read after a create, restore or replay, a new
// family or a poly relayering — it takes the write lock and freezes one in
// full. Only these freezes count as misses.
func (c *Community) frozen() (*core.ClassSchedule, error) {
	if s := c.cached.Load(); s != nil {
		c.hits.Add(1)
		return s, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.cached.Load(); s != nil { // another reader froze it while we waited
		c.hits.Add(1)
		return s, nil
	}
	s, err := c.be.FrozenSchedule()
	if err != nil {
		return nil, fmt.Errorf("service: community %q: %w", c.id, err)
	}
	c.cached.Store(s)
	c.misses.Add(1)
	return s, nil
}

// HolidayRow is one holiday of a window response.
type HolidayRow struct {
	Holiday int64 `json:"holiday"`
	Happy   []int `json:"happy"`
}

// Window answers a closed-form window query [from, to] from the cached
// schedule. from must be ≥ 1, to ≥ from, and the span at most MaxWindow.
func (c *Community) Window(from, to int64) ([]HolidayRow, error) {
	return c.AppendWindow(nil, from, to)
}

// AppendWindow answers the same query as Window but appends into rows,
// reusing both its capacity and the Happy backing array of every row slot it
// overwrites. Callers that serve windows in a loop in process (benchkit's
// InProcDriver, holidaybench) hand back the previous response's rows and
// steady-state queries allocate nothing. Rows beyond the returned length keep their
// buffers for the next reuse.
func (c *Community) AppendWindow(rows []HolidayRow, from, to int64) ([]HolidayRow, error) {
	sched, err := c.windowSchedule(from, to)
	if err != nil {
		return rows, err
	}
	sched.Window(from, to, func(t int64, happy []int) {
		n := len(rows)
		if cap(rows) > n {
			rows = rows[:n+1] // revive the spare slot, Happy buffer included
		} else {
			rows = append(rows, HolidayRow{})
		}
		r := &rows[n]
		r.Holiday = t
		r.Happy = append(r.Happy[:0], happy...)
		if r.Happy == nil {
			// A fresh slot on an empty holiday must still marshal "happy":[],
			// never null — the wire format does not depend on slot reuse.
			r.Happy = emptyHappy
		}
	})
	return rows, nil
}

// emptyHappy is the shared zero-length happy set of holidays nobody hosts;
// its zero capacity means a later reuse appends into a fresh buffer.
var emptyHappy = make([]int, 0)

// windowSchedule returns the frozen schedule that answers the window query
// [from, to] once its bounds check out: from ≥ 1, to within the servable
// horizon, to ≥ from, and at most MaxWindow holidays. Every window answer,
// AppendWindow's rows and the HTTP handler's JSON and binary bodies, reads
// the schedule it returns.
func (c *Community) windowSchedule(from, to int64) (*core.ClassSchedule, error) {
	if from < 1 {
		return nil, fmt.Errorf("service: window start %d < 1", from)
	}
	if to > core.MaxHoliday {
		return nil, fmt.Errorf("service: window end %d beyond last servable holiday %d", to, core.MaxHoliday)
	}
	if to < from {
		return nil, fmt.Errorf("service: window [%d,%d] is empty", from, to)
	}
	if span := to - from + 1; span > MaxWindow {
		return nil, fmt.Errorf("service: window spans %d holidays, max %d", span, MaxWindow)
	}
	return c.frozen()
}

// NextHappy answers a family's next happy holiday at or after from
// (from < 1 is clamped to 1) from the cached schedule. The family id is
// bounds-checked against the frozen snapshot itself, so a cache hit takes
// no lock, where the family count would take the community's.
func (c *Community) NextHappy(v int, from int64) (int64, error) {
	if from > core.MaxHoliday {
		return 0, fmt.Errorf("service: holiday %d beyond last servable holiday %d", from, core.MaxHoliday)
	}
	sched, err := c.frozen()
	if err != nil {
		return 0, err
	}
	if v < 0 || v >= sched.Nodes() {
		return 0, fmt.Errorf("service: community %q has no family %d", c.id, v)
	}
	return sched.NextHappy(v, from), nil
}
