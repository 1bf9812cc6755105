// Live community handoff: the sending half (Source.Handoff, run by the old
// owner) and the receiving half (Source.receiveHandoff, served on the
// stream route), over the replica stream's one sender and one applier. See
// DESIGN.md §12 for the protocol.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/service"
	"repro/internal/wire"
)

// DefaultHandoffTimeout bounds one handoff: its offer, tail, and ack.
const DefaultHandoffTimeout = 15 * time.Second

// Handoff streams one community from this node (its current owner) to the
// node the table assigns it to, then installs the table here so later
// writes forward. It pre-copies: a first request offers the state at cut₁,
// as an install record, and is answered once the new owner has installed
// it as a fenced replica, while the community keeps taking writes here.
// Only then does this node fence, at cut₂, and a second request carries
// the (cut₁, cut₂] WAL tail and the cut; its answer is the ack. It returns
// the cut, cut₂, and the write pause, that second round trip, after which
// writes forward to the new owner; reads are served throughout. On any
// failure before the ack the fence is lifted and this node keeps serving
// at the old epoch; the receiver, never having seen the cut, keeps the
// state as a fenced replica at most. When the ring no longer covers the
// tail, a second, fenced export is sent instead, as an install record.
// The table must assign community to a member with an address, whose
// Source serves StreamPath; the whole handoff is bounded by
// DefaultHandoffTimeout.
func (s *Source) Handoff(community string, table service.Placement) (cut uint64, pause time.Duration, err error) {
	if s.router == nil {
		return 0, 0, service.Errf(service.CodeUnavailable, "this node does not run handoffs")
	}
	if err := table.Validate(); err != nil {
		return 0, 0, err
	}
	target := table.Assign[community]
	if target == "" {
		return 0, 0, fmt.Errorf("cluster: handoff %q: the offered table does not assign it", community)
	}
	if target == s.router.Self() {
		return 0, 0, fmt.Errorf("cluster: handoff %q: table assigns it to this node", community)
	}
	// Validate has checked that the table's assignments name members.
	addr, _ := table.Addr(target)
	if addr == "" {
		return 0, 0, fmt.Errorf("cluster: handoff %q: node %q has no address", community, target)
	}
	c, ok := s.owner.Get(community)
	if !ok {
		return 0, 0, fmt.Errorf("cluster: handoff %q: not on this node", community)
	}
	if c.Fenced() {
		return 0, 0, service.Errf(service.CodeNotOwner, "community %q is a replica on this node; its owner runs handoffs", community)
	}

	tableJSON, err := json.Marshal(table)
	if err != nil {
		return 0, 0, fmt.Errorf("cluster: handoff %q: encode table: %w", community, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), DefaultHandoffTimeout)
	defer cancel()
	post := func(step string, body []byte) error {
		resp, err := request(ctx, http.MethodPost, addr, "", body)
		var se *service.Error
		if errors.As(err, &se) {
			return service.Errf(se.Code, "handoff %q: %s refused by %s: %s", community, step, target, se.Message)
		}
		if err != nil {
			return fmt.Errorf("cluster: handoff %q: %s: %w", community, step, err)
		}
		// The 200 is the answer; the empty body's Close cannot take it back.
		resp.Body.Close()
		return nil
	}
	// The state, exported while the community still takes writes, as an
	// install record at cut₁; the tail covers what lands after.
	rec, err := installRecord(c)
	if err != nil {
		return 0, 0, fmt.Errorf("cluster: handoff %q: encode state: %w", community, err)
	}
	offer := wire.AppendRecords(wire.AppendHandoffOffer(nil, table.Epoch, community, tableJSON, false), []wire.RawRecord{rec})
	if err := post("offer", wire.AppendHeartbeat(offer, rec.Seq)); err != nil {
		return 0, 0, err
	}

	// Fence: the write-unavailability window opens here. Everything the
	// community logged up to the fence is ≤ cut₂ and nothing more will be.
	s.owner.Fence(community)
	start := time.Now()
	fenced := true
	defer func() {
		if fenced {
			s.owner.Unfence(community)
		}
	}()
	// The tail (cut₁, cut₂], or a fenced re-export as an install record
	// when the ring no longer covers it, then the cut marker: everything at
	// or below cut₂ is sent.
	cut = c.Seq()
	tail := bytes.NewBuffer(wire.AppendHandoffOffer(nil, table.Epoch, community, tableJSON, true))
	if err := s.catchUp(&sender{w: tail}, community, rec.Seq, cut); err != nil {
		return 0, 0, fmt.Errorf("cluster: handoff %q: tail: %w", community, err)
	}
	if err := post("tail", tail.Bytes()); err != nil {
		return 0, 0, err
	}

	// The new owner is live; flip this node's table so writes forward. The
	// community stays fenced — it is a replica now.
	fenced = false
	if _, err := s.router.SetPlacement(table); err != nil {
		return 0, 0, fmt.Errorf("cluster: handoff %q: install table: %w", community, err)
	}
	return cut, time.Since(start), nil
}

// receiveHandoff serves one request of a handoff. Its body opens with the
// offer frame, read under wire.MaxFrame and checked before any record is
// read, so a refused offer costs at most that frame. Records and a
// Heartbeat follow. An offer request's records are exactly one install
// record of the offered community, whose state it installs as a fenced
// replica, journaled (Owner.InstallOffer), and is answered once installed.
// A request with the cut carries the tail and the cut marker, which it
// applies before it takes the community over, in the sequence space of the
// offered table's epoch and this node, with one journaled takeover record
// that carries the tail, a fallback state's install record included
// (Owner.TakeOver), and installs the offered table; its answer is the ack.
// The applier installs nothing from an offer request and keeps only the
// handed-off community of a tail, and an offer whose table supersedes this
// node's replaces even a copy it owns unfenced. Any failure refuses, so
// the sender keeps serving at the old epoch.
func (s *Source) receiveHandoff(w http.ResponseWriter, r *http.Request) {
	if s.router == nil {
		refuse(w, service.CodeUnavailable, "this node does not accept handoffs")
		return
	}
	// The sender's timeout ends its requests; this ends one whose sender
	// went silent without closing it.
	_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(DefaultHandoffTimeout))
	f, _, err := wire.ReadFrame(r.Body, nil, wire.MaxFrame)
	if err != nil {
		refuse(w, service.CodeBadRequest, "handoff offer: %v", err)
		return
	}
	epoch, id, tableJSON, cut, err := f.HandoffOffer()
	if err != nil {
		refuse(w, service.CodeBadRequest, "handoff offer: %v", err)
		return
	}
	var table service.Placement
	if err := json.Unmarshal(tableJSON, &table); err != nil || table.Epoch != epoch {
		refuse(w, service.CodeBadRequest, "handoff offer table is malformed")
		return
	}
	if table.Assign[id] != s.router.Self() {
		refuse(w, service.CodeBadRequest, "offered table does not assign the community to this node")
		return
	}
	cur := s.router.Placement()
	supersedes := table.Supersedes(cur)
	if !supersedes && epoch < cur.Epoch {
		refuse(w, service.CodeNotOwner, "handoff epoch %d is stale; this node is at epoch %d", epoch, cur.Epoch)
		return
	}
	if c, ok := s.owner.Get(id); ok && !c.Fenced() && !supersedes {
		refuse(w, service.CodeConflict, "this node already owns %q at epoch %d", id, cur.Epoch)
		return
	}
	// An offer keeps only its first record, so one that streams more holds
	// no more than that while it is read to its refusal.
	var recs []service.SeqRecord // the offer's first record, or the tail's the applier kept
	streamed := 0
	a := &applier{owner: s.owner, keep: func(c string) bool { return cut && c == id }, passed: func(seq uint64, rec service.Record) {
		if streamed++; (!cut && streamed == 1) || (cut && rec.ID == id) {
			recs = append(recs, service.SeqRecord{Seq: seq, Record: rec})
		}
	}}
	var through uint64
	if err := a.receive(r.Body, func(seq uint64) bool { through = seq; return false }); err != nil {
		// The sender died mid-handoff or streamed what does not apply; the
		// replica stays fenced.
		refuse(w, service.CodeInternal, "%v", err)
		return
	}
	if !cut {
		if streamed != 1 || recs[0].Op != service.OpInstall || recs[0].ID != id || recs[0].State == nil || recs[0].State.ID != id {
			refuse(w, service.CodeBadRequest, "a handoff offer carries one install record of %q", id)
		} else if c, err := s.owner.InstallOffer(*recs[0].State); err != nil {
			refuse(w, service.CodeInternal, "%v", err)
		} else if c.Space() != recs[0].State.Space {
			// The copy kept is from a space the offer's is not ahead of.
			refuse(w, service.CodeConflict, "this node holds %q from a sequence space the offer's is not ahead of", id)
		}
		return
	}
	if c, ok := s.owner.Get(id); !ok || !c.Fenced() || c.Seq() < through {
		refuse(w, service.CodeConflict, "no replica of %q through seq %d here; its offer comes first", id, through)
		return
	}
	// The sender has fenced at the cut and everything ≤ it is applied: flip.
	if err := s.owner.TakeOver(id, service.Space{Epoch: epoch, Node: s.router.Self()}, recs, true); err != nil {
		service.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	_, _ = s.router.SetPlacement(table)
}
