package service

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/poly"
)

// Op names one kind of state-changing operation in a journal record. The
// first five ops are the registry's mutation surface: everything else
// (window/next queries, stats) is derivable from them. The last two are a
// takeover's (Owner.TakeOver).
type Op string

const (
	// OpCreate registers a community (Families, Edges, Code).
	OpCreate Op = "create"
	// OpDelete unregisters a community.
	OpDelete Op = "delete"
	// OpAddFamily appends one isolated family to a community.
	OpAddFamily Op = "add_family"
	// OpMarry inserts the in-law edge (U, V).
	OpMarry Op = "marry"
	// OpDivorce removes the in-law edge (U, V).
	OpDivorce Op = "divorce"
	// OpInstall registers State as a fenced replica, for a takeover.
	OpInstall Op = "install"
	// OpTakeover replays Tail and moves the copy into sequence space Space.
	OpTakeover Op = "takeover"
)

// Record is one journaled mutation. Only the fields relevant to the op are
// set: Families/Edges/Code for OpCreate, U/V for OpMarry and OpDivorce.
// The poly-kind fields (Kind, Demands, DefaultDemand, Demand) are all
// omitempty and zero for classic communities, and so are the cluster
// fields (Space, State, Tail) for a community never taken over, so the
// WAL bytes of a single node are unchanged from every earlier schema.
type Record struct {
	Op    Op       `json:"op"`
	ID    string   `json:"id"`
	N     int      `json:"families,omitempty"`
	Edges [][2]int `json:"edges,omitempty"`
	Code  string   `json:"code,omitempty"`
	U     int      `json:"u"`
	V     int      `json:"v"`
	// Kind marks a poly-kind create; empty means classic.
	Kind string `json:"kind,omitempty"`
	// Demands are the resolved per-edge demands of a poly create, aligned
	// with Edges.
	Demands []int64 `json:"demands,omitempty"`
	// DefaultDemand is the poly community's resolved default demand,
	// stamped on the create so replay resolves demand-less edits
	// identically.
	DefaultDemand int64 `json:"default_demand,omitempty"`
	// Demand is the per-edge demand of a poly marry; 0 means the community
	// default.
	Demand int64 `json:"demand,omitempty"`
	// Space is the sequence space of the community the record was logged
	// for, or that a takeover starts.
	Space Space `json:"space,omitzero"`
	// State is an install's state, and Tail a handoff's takeover's records
	// from the old owner after the offered state: the records the old
	// owner's ring still held, or, once it no longer reached back to the
	// offer, the install record of its fenced state.
	State *CommunityState `json:"state,omitempty"`
	Tail  []SeqRecord     `json:"tail,omitempty"`
}

// Space names the sequence space a copy's seq counts in: the placement
// epoch (1 or later) and the node of the takeover that started it. The
// zero Space is a community never taken over, as on a single node.
type Space struct {
	Epoch uint64 `json:"epoch"`
	Node  string `json:"node"`
}

// Ahead reports whether a copy at (s, seq) is ahead of one at (t, tseq):
// from a later epoch's space, or from the same space at a higher seq. It is
// the one rule for which copy of a community is current, in an install, a
// replay and an election. Two spaces of one epoch and different nodes come
// from the competing tables of a double self-promotion, and neither is
// ahead: the table that wins decides (syncFences drops every copy in a
// space it does not assign to seq 0 of the zero space).
func Ahead(s Space, seq uint64, t Space, tseq uint64) bool {
	if s.Epoch != t.Epoch {
		return s.Epoch > t.Epoch
	}
	return s.Node == t.Node && seq > tseq
}

// SeqRecord is a record stamped with its sequence.
type SeqRecord struct {
	Seq uint64 `json:"seq"`
	Record
}

// Journal is the durability hook of an Owner. When attached (Opts.Journal
// or Owner.SetJournal), every mutation is logged — and must be accepted by
// the journal — before it is applied and acknowledged, write-ahead style.
// Log returns a sequence number that totally orders records; the owner
// remembers, per community, the sequence of the last record applied to it,
// which is how snapshot-plus-replay recovery (internal/persist) skips
// records already reflected in a snapshot.
//
// Implementations must be safe for concurrent Log calls: churn on distinct
// communities logs concurrently.
type Journal interface {
	Log(rec Record) (seq uint64, err error)
}

// BatchJournal is what persist.WAL and cluster.Source implement: LogBatch
// is their one append and Log a batch of one. A community write — a single
// op or a whole ChurnBatch flush — reaches it as one LogBatch: consecutive
// sequences, one write, one group-commit round, returning the sequence of
// the last record. A plain Journal is fed record by record; semantics (and
// the on-disk format, for internal/persist) are identical either way.
type BatchJournal interface {
	Journal
	LogBatch(recs []Record) (last uint64, err error)
}

// SetJournal attaches (or, with nil, detaches) the owner's journal after
// construction — the late-attach counterpart of Opts.Journal, used when a
// recovery replays a WAL into a bare owner and then attaches the same WAL
// for new writes. Attach before accepting traffic: ops applied while no
// journal is attached are not logged and will not survive a restart.
// Restore and Apply never log — recovery replays through them without
// re-journaling.
func (r *Owner) SetJournal(j Journal) {
	r.journal.Store(&journalBox{j: j})
}

// journalBox wraps the interface so an atomic.Pointer can hold a nil
// journal distinctly from "never set".
type journalBox struct{ j Journal }

// getJournal returns the attached journal, or nil.
func (r *Owner) getJournal() Journal {
	if b := r.journal.Load(); b != nil {
		return b.j
	}
	return nil
}

// CommunityState is the full persistent state of one community: everything
// needed to reconstruct it answering byte-identically. Coloring is carried
// verbatim (not re-derived) because the greedy recoloring path is
// history-dependent; Seq is the journal sequence of the last record applied,
// the replay cut-point for recovery, and Space the sequence space it counts
// in.
type CommunityState struct {
	ID          string   `json:"id"`
	Families    int      `json:"families"`
	Edges       [][2]int `json:"edges"`
	Code        string   `json:"code"`
	Coloring    []int    `json:"coloring"`
	Version     int64    `json:"version"`
	Recolorings int64    `json:"recolorings"`
	Seq         uint64   `json:"seq"`
	Space       Space    `json:"space,omitzero"`
	// Kind marks a poly-kind community; empty means classic, keeping
	// classic snapshot bytes unchanged.
	Kind string `json:"kind,omitempty"`
	// DefaultDemand is the poly community's default edge demand.
	DefaultDemand int64 `json:"default_demand,omitempty"`
	// Poly is the poly instance's exact state (slots, layers, demands);
	// nil for classic communities.
	Poly *poly.State `json:"poly,omitempty"`
}

// Export snapshots the community's persistent state under its read lock,
// consistent with respect to concurrent churn: a mutation is either fully
// included (state and Seq) or fully excluded.
func (c *Community) Export() CommunityState {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.exportLocked()
}

// exportLocked is Export for a caller holding c.mu.
func (c *Community) exportLocked() CommunityState {
	st := CommunityState{
		ID:      c.id,
		Version: c.version,
		Seq:     c.seq,
		Space:   c.space,
	}
	c.be.exportInto(&st)
	return st
}

// Restore registers a community reconstructed from exported state, adopting
// its exact coloring, version, and journal sequence. Nothing is logged:
// restore is the recovery path, not a new mutation. Errors on duplicate
// ids, unknown codes, and colorings that are not proper for the edge set.
func (r *Owner) Restore(st CommunityState) (*Community, error) {
	c, err := r.restored(st)
	if err != nil {
		return nil, err
	}
	return r.add(c, nil)
}

// InstallReplica registers exported state as a replica of a community
// another node owns: fenced from the moment it is visible, and replacing
// any local copy — which is fenced in the same step — unless that copy is
// already a fenced replica st is not ahead of, in which case it is kept
// (the idempotent re-offer). It returns the community now registered
// under the id. Nothing is logged.
func (r *Owner) InstallReplica(st CommunityState) (*Community, error) {
	c, err := r.restored(st)
	if err != nil {
		return nil, err
	}
	c.fenced = true
	return r.add(c, nil)
}

// InstallOffer is InstallReplica for a handoff's offered state, which it
// then journals for the takeover to replay onto; a snapshot cut after the
// record exports the copy registered before it.
func (r *Owner) InstallOffer(st CommunityState) (*Community, error) {
	c, err := r.InstallReplica(st)
	if j := r.getJournal(); err == nil && j != nil {
		_, err = j.Log(Record{Op: OpInstall, ID: st.ID, State: &st})
	}
	return c, err
}

// TakeOver makes this node the owner of its fenced copy of community id in
// the new sequence space sp, journaled, at the takeover record's seq. A
// handoff passes its applied tail, whose offered state InstallOffer
// journaled, and which carries the old owner's later state when its ring
// no longer reached back to the offer; an election or a promote journals
// the copy's state with the takeover record. A copy this node owns
// already is left alone.
func (r *Owner) TakeOver(id string, sp Space, tail []SeqRecord, handoff bool) error {
	c, ok := r.Get(id)
	if !ok {
		return Errf(CodeNotFound, "no community %q on this node", id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.fenced {
		return nil
	}
	recs := []Record{{Op: OpTakeover, ID: id, Space: sp, Tail: tail}}
	if !handoff {
		st := c.exportLocked()
		recs = append([]Record{{Op: OpInstall, ID: id, State: &st}}, recs...)
	}
	if j := r.getJournal(); j != nil {
		if err := c.logLocked(j, recs...); err != nil {
			return err
		}
	}
	c.space, c.fenced = sp, false
	return nil
}

// restored builds the unregistered community an exported state describes.
// Coloring and poly state are adopted verbatim, and both are validated
// (properness, poly.Restore's structural invariants) before the community
// exists.
func (r *Owner) restored(st CommunityState) (*Community, error) {
	if st.Families < 1 {
		return nil, fmt.Errorf("service: restore %q: %d families", st.ID, st.Families)
	}
	var be backend
	switch st.Kind {
	case "", KindClassic:
		code, err := prefixCode(st.Code)
		if err != nil {
			return nil, fmt.Errorf("service: restore %q: %w", st.ID, err)
		}
		g, err := edgeGraph(st.Families, st.Edges)
		if err != nil {
			return nil, fmt.Errorf("service: restore %q: %w", st.ID, err)
		}
		dyn, err := core.RestoreDynamicColorBound(g, code, st.Coloring, st.Recolorings)
		if err != nil {
			return nil, fmt.Errorf("service: restore %q: %w", st.ID, err)
		}
		be = &classicBackend{dyn: dyn}
	case KindPoly:
		if st.Poly == nil {
			return nil, fmt.Errorf("service: restore %q: poly kind with no poly state", st.ID)
		}
		if st.Poly.N != st.Families {
			return nil, fmt.Errorf("service: restore %q: %d families but poly state has %d nodes", st.ID, st.Families, st.Poly.N)
		}
		dyn, err := poly.Restore(*st.Poly)
		if err != nil {
			return nil, fmt.Errorf("service: restore %q: %w", st.ID, err)
		}
		be = &polyBackend{dyn: dyn, defaultDemand: poly.ClampDemand(st.DefaultDemand)}
	default:
		return nil, fmt.Errorf("service: restore %q: unknown kind %q", st.ID, st.Kind)
	}
	return &Community{id: st.ID, reg: r, be: be, version: st.Version, seq: st.Seq, space: st.Space}, nil
}

// Apply replays one journal record at its sequence number without
// re-logging it — the recovery path walking a WAL forward from a snapshot.
// One rule decides whether a record applies: an edit or delete applies
// only to a copy in the record's own sequence space, above that copy's
// seq; an install replaces a copy it is ahead of (Owner.InstallReplica);
// a takeover replays its tail, then moves a copy it is ahead of into its
// space. So replay is idempotent: a crash between writing a snapshot and
// deleting the segments it covers re-replays old records harmlessly.
// Records for communities that no longer exist are skipped too (their
// delete is further down the log, or their create preceded an
// already-applied delete). Errors are reserved for inconsistent logs: a
// marry referencing a family outside the community, or an install or
// takeover record changing a community it does not name.
func (r *Owner) Apply(seq uint64, rec Record) error { return r.apply(seq, rec, false) }

// Replicate is Apply for a replication stream: a replicated create
// registers its community already fenced, and a replicated takeover leaves
// it fenced, so a community this node only follows is never visible as a
// writable copy.
func (r *Owner) Replicate(seq uint64, rec Record) error { return r.apply(seq, rec, true) }

func (r *Owner) apply(seq uint64, rec Record, replica bool) error {
	switch rec.Op {
	case OpCreate:
		if c, exists := r.Get(rec.ID); exists {
			if !Ahead(rec.Space, seq, c.Space(), c.Seq()) {
				return nil // already in the snapshot
			}
			return fmt.Errorf("service: replay create %q at seq %d: community already exists at seq %d", rec.ID, seq, c.Seq())
		}
		c, _, err := r.build(CreateSpec{ID: rec.ID, Families: rec.N, Edges: rec.Edges, Code: rec.Code,
			Kind: rec.Kind, Demands: rec.Demands, DefaultDemand: rec.DefaultDemand})
		if err != nil {
			return fmt.Errorf("service: replay seq %d: %w", seq, err)
		}
		c.seq, c.fenced = seq, replica
		if _, err := r.add(c, nil); err != nil {
			return fmt.Errorf("service: replay seq %d: %w", seq, err)
		}
		return nil
	case OpDelete:
		r.mu.Lock()
		defer r.mu.Unlock()
		if c, ok := r.communities[rec.ID]; ok && c.Space() == rec.Space && seq > c.Seq() {
			delete(r.communities, rec.ID)
		}
		return nil
	case OpInstall:
		if rec.State == nil || rec.State.ID != rec.ID {
			return fmt.Errorf("service: replay install %q at seq %d: no state of %q", rec.ID, seq, rec.ID)
		}
		if _, err := r.InstallReplica(*rec.State); err != nil {
			return fmt.Errorf("service: replay seq %d: %w", seq, err)
		}
		return nil
	case OpTakeover:
		for _, t := range rec.Tail {
			if t.ID != rec.ID {
				return fmt.Errorf("service: replay takeover of %q at seq %d: its tail holds a record of %q", rec.ID, seq, t.ID)
			}
			if err := r.apply(t.Seq, t.Record, replica); err != nil {
				return err
			}
		}
		if c, ok := r.Get(rec.ID); ok {
			c.mu.Lock()
			if Ahead(rec.Space, seq, c.space, c.seq) {
				c.space, c.seq, c.fenced = rec.Space, seq, replica
			}
			c.mu.Unlock()
		}
		return nil
	case OpAddFamily, OpMarry, OpDivorce:
		c, ok := r.Get(rec.ID)
		if !ok {
			return nil
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if rec.Space != c.space || seq <= c.seq {
			return nil
		}
		e := core.Edit{Op: core.EditAddNode}
		if rec.Op != OpAddFamily {
			e = core.Edit{Op: core.EditInsert, U: rec.U, V: rec.V, Demand: rec.Demand}
			if rec.Op == OpDivorce {
				e.Op = core.EditDelete
			}
			if err := validEdge(c.be.N(), rec.U, rec.V); err != nil {
				return fmt.Errorf("service: replay %s in %q at seq %d: %w", rec.Op, rec.ID, seq, err)
			}
		}
		if err := c.applyLocked(nil, e); err != nil {
			return fmt.Errorf("service: replay %s in %q at seq %d: %w", rec.Op, rec.ID, seq, err)
		}
		c.seq = seq
		return nil
	default:
		return fmt.Errorf("service: replay seq %d: unknown op %q", seq, rec.Op)
	}
}
