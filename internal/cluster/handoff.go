// Live community handoff: the sending half (Handoff, run by the old owner)
// and the receiving half (Source.receiveHandoff, served on the stream
// route), over the replica stream's one sender and one applier. See
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

// HandoffResult reports one completed handoff.
type HandoffResult struct {
	// CutSeq is the sequence the community was fenced at — its last record
	// in the old owner's journal; everything at or below it reached the new
	// owner before the ack.
	CutSeq uint64
	// Pause is the write-unavailability window the moved community saw: the
	// time from fencing on the old owner to the new owner's ack, after
	// which writes forward to the new owner. Reads were served throughout.
	Pause time.Duration
}

// Handoff streams one community from this node (its current owner) to the
// node the table assigns it to, then installs the table locally so
// subsequent writes forward. It pre-copies: a first request offers the
// state exported at cut₁ and is answered once the new owner has installed
// it as a fenced replica, while the community keeps taking writes here.
// Only then does this node fence, at cut₂, and a second request carries
// the (cut₁, cut₂] WAL tail and the cut; its answer is the ack. The write
// pause, the measured Pause, is that second round trip. On any failure
// before the ack the fence is lifted and the old owner keeps serving at
// the old epoch; the receiver, never having seen the cut, keeps the state
// as a fenced replica at most.
//
// src is o's journal and supplies the WAL tail; when its ring no longer
// covers the tail, a second, fenced export is sent instead, as an install
// record. The table must assign community to a member with an address,
// whose Source serves StreamPath.
func Handoff(o *service.Owner, src *Source, rt *service.Router, community string, table service.Placement, timeout time.Duration) (HandoffResult, error) {
	if timeout <= 0 {
		timeout = DefaultHandoffTimeout
	}
	if err := table.Validate(); err != nil {
		return HandoffResult{}, err
	}
	target := table.Assign[community]
	if target == "" {
		return HandoffResult{}, fmt.Errorf("cluster: handoff %q: the offered table does not assign it", community)
	}
	if target == rt.Self() {
		return HandoffResult{}, fmt.Errorf("cluster: handoff %q: table assigns it to this node", community)
	}
	// Validate has checked that the table's assignments name members.
	addr, _ := table.Addr(target)
	if addr == "" {
		return HandoffResult{}, fmt.Errorf("cluster: handoff %q: node %q has no address", community, target)
	}
	c, ok := o.Get(community)
	if !ok {
		return HandoffResult{}, fmt.Errorf("cluster: handoff %q: not on this node", community)
	}
	if c.Fenced() {
		return HandoffResult{}, service.Errf(service.CodeNotOwner, "community %q is a replica on this node; its owner runs handoffs", community)
	}

	tableJSON, err := json.Marshal(table)
	if err != nil {
		return HandoffResult{}, fmt.Errorf("cluster: handoff %q: encode table: %w", community, err)
	}
	// Export while still serving writes; the tail covers what lands after.
	st := c.Export()
	state, err := json.Marshal(st)
	if err != nil {
		return HandoffResult{}, fmt.Errorf("cluster: handoff %q: encode state: %w", community, err)
	}
	cut1 := st.Seq
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
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
	if err := post("offer", wire.AppendHandoffOffer(nil, table.Epoch, community, tableJSON, state)); err != nil {
		return HandoffResult{}, err
	}

	// Fence: the write-unavailability window opens here. Everything the
	// community logged up to the fence is ≤ cut₂ and nothing more will be.
	o.Fence(community)
	pauseStart := time.Now()
	fenced := true
	defer func() {
		if fenced {
			o.Unfence(community)
		}
	}()
	// The offer again, without the state, then the tail (cut₁, cut₂], or a
	// fenced re-export as an install record when the ring no longer covers
	// it, then the cut marker: everything at or below cut₂ is sent.
	cut2 := c.Seq()
	tail := bytes.NewBuffer(wire.AppendHandoffOffer(nil, table.Epoch, community, tableJSON, nil))
	if err := src.catchUp(&sender{w: tail}, community, cut1, cut2); err != nil {
		return HandoffResult{}, fmt.Errorf("cluster: handoff %q: tail: %w", community, err)
	}
	if err := post("tail", tail.Bytes()); err != nil {
		return HandoffResult{}, err
	}

	// The new owner is live; flip this node's table so writes forward. The
	// community stays fenced — it is a replica now.
	fenced = false
	if _, err := rt.SetPlacement(table); err != nil {
		return HandoffResult{}, fmt.Errorf("cluster: handoff %q: install table: %w", community, err)
	}
	return HandoffResult{CutSeq: cut2, Pause: time.Since(pauseStart)}, nil
}

// receiveHandoff serves one request of a handoff. Its body opens with the
// offer, which it checks. An offer carrying the state installs it as a
// fenced replica, journaled (Owner.InstallOffer), and is answered once
// installed. One without it is followed by the tail and the cut marker,
// which it applies before it takes the community over, in the sequence
// space of the offered table's epoch and this node, with one journaled
// takeover record that carries the tail, a fallback state's install record
// included (Owner.TakeOver), and installs the offered table; its answer is
// the ack. The applier keeps only the handed-off community, and an offer
// whose table supersedes this node's replaces even a copy it owns
// unfenced. Any failure refuses, so the sender keeps serving at the old
// epoch.
func (s *Source) receiveHandoff(w http.ResponseWriter, r *http.Request) {
	if s.router == nil {
		refuse(w, service.CodeUnavailable, "this node does not accept handoffs")
		return
	}
	// The sender's timeout ends its requests; this ends one whose sender
	// went silent without closing it.
	_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(DefaultHandoffTimeout))
	f, _, err := wire.ReadFrame(r.Body, nil)
	if err != nil {
		refuse(w, service.CodeBadRequest, "handoff offer: %v", err)
		return
	}
	epoch, id, tableJSON, stateJSON, err := f.HandoffOffer()
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
	if len(stateJSON) > 0 {
		var st service.CommunityState
		if err := json.Unmarshal(stateJSON, &st); err != nil || st.ID != id {
			refuse(w, service.CodeBadRequest, "handoff offer state is malformed")
		} else if c, err := s.owner.InstallOffer(st); err != nil {
			refuse(w, service.CodeInternal, "%v", err)
		} else if c.Space() != st.Space {
			// The copy kept is from a space the offer's is not ahead of.
			refuse(w, service.CodeConflict, "this node holds %q from a sequence space the offer's is not ahead of", id)
		}
		return
	}
	var tail []service.SeqRecord // the records the applier kept, for the takeover record
	keep := func(c string) bool { return c == id }
	a := &applier{owner: s.owner, keep: keep, passed: func(seq uint64, rec service.Record) {
		if keep(rec.ID) {
			tail = append(tail, service.SeqRecord{Seq: seq, Record: rec})
		}
	}}
	var cut uint64
	if err := a.receive(r.Body, func(seq uint64) bool { cut = seq; return false }); err != nil {
		// The sender died mid-handoff or streamed what does not apply; the
		// replica stays fenced.
		refuse(w, service.CodeInternal, "%v", err)
		return
	}
	if c, ok := s.owner.Get(id); !ok || !c.Fenced() || c.Seq() < cut {
		refuse(w, service.CodeConflict, "no replica of %q through seq %d here; its offer comes first", id, cut)
		return
	}
	// The sender has fenced at cut and everything ≤ cut is applied: flip.
	if err := s.owner.TakeOver(id, service.Space{Epoch: epoch, Node: s.router.Self()}, tail, true); err != nil {
		service.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	_, _ = s.router.SetPlacement(table)
}
