// Live community handoff: the sending half (Handoff, run by the old owner)
// and the receiving half (Source.receiveHandoff, multiplexed onto the
// stream route), over the replica stream's one sender and one applier.
// See DESIGN.md §12 for the protocol.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/service"
	"repro/internal/wire"
)

// DefaultHandoffTimeout bounds one handoff's handshake, stream, and ack.
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
// subsequent writes forward. The protocol keeps the community writable
// while its snapshot is in flight: export at cut₁, offer, stream the
// (cut₁, cut₂] WAL tail accumulated meanwhile, and only fence for the
// final tail+ack round trip — the measured Pause. On any failure before
// the ack the fence is lifted and the old owner keeps serving at the old
// epoch; the receiver, never having seen the cut marker, keeps the state
// as a fenced replica at most.
//
// src is o's journal and supplies the WAL tail; when its ring no longer
// covers the tail, a second, fenced export is sent instead of records. The
// table must assign community to a member with an address, whose Source
// serves StreamPath.
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
	cut1, state, err := encodeState(c)
	if err != nil {
		return HandoffResult{}, fmt.Errorf("cluster: handoff %q: %w", community, err)
	}

	// The timeout, or cancel on return, closes the stream.
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	conn, err := dialStream(ctx, addr)
	if err != nil {
		return HandoffResult{}, fmt.Errorf("cluster: handoff %q: %w", community, err)
	}
	if _, err := conn.Write(wire.AppendHandoffOffer(nil, table.Epoch, community, tableJSON, state)); err != nil {
		return HandoffResult{}, fmt.Errorf("cluster: handoff %q: send offer: %w", community, err)
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
	// The tail (cut₁, cut₂], or a fenced re-export when the ring no longer
	// covers it, then the cut marker: everything at or below cut₂ is sent.
	cut2 := c.Seq()
	if err := src.catchUp(&sender{w: conn}, community, cut1, cut2); err != nil {
		return HandoffResult{}, fmt.Errorf("cluster: handoff %q: send tail: %w", community, err)
	}

	f, _, err := wire.ReadFrame(conn, nil)
	if err != nil {
		return HandoffResult{}, fmt.Errorf("cluster: handoff %q: await ack: %w", community, err)
	}
	if f.Kind == wire.KindError {
		status, code, msg, _ := f.ErrorResp()
		return HandoffResult{}, service.Errf(service.CodeFromNum(code), "handoff %q refused by %s (status %d): %s", community, target, status, msg)
	}
	ackSeq, ackID, err := f.HandoffAck()
	if err != nil {
		return HandoffResult{}, fmt.Errorf("cluster: handoff %q: %w", community, err)
	}
	if ackID != community || ackSeq < cut2 {
		return HandoffResult{}, fmt.Errorf("cluster: handoff %q: ack names %q at seq %d, want ≥ %d", community, ackID, ackSeq, cut2)
	}

	// The new owner is live; flip this node's table so writes forward. The
	// community stays fenced — it is a replica now.
	fenced = false
	if _, err := rt.SetPlacement(table); err != nil {
		return HandoffResult{}, fmt.Errorf("cluster: handoff %q: install table: %w", community, err)
	}
	return HandoffResult{CutSeq: cut2, Pause: time.Since(pauseStart)}, nil
}

// receiveHandoff runs the receiving half of a handoff on a stream whose
// first frame was the offer. It checks the offer, installs the offered
// state as a fenced replica, applies the tail, and — once the cut marker
// arrives — takes ownership, installs the offered table, and acks. The
// applier keeps only the handed-off community, and an offer whose table
// supersedes this node's replaces even a copy it owns unfenced. Any failure
// before the marker refuses, so the sender keeps serving at the old epoch.
func (s *Source) receiveHandoff(conn net.Conn, offer wire.Frame) {
	refuse := func(status int, code service.ErrCode, msg string) {
		_ = conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
		_, _ = conn.Write(wire.AppendError(nil, status, code.Num(), msg))
	}
	if s.router == nil {
		refuse(http.StatusNotImplemented, service.CodeUnavailable, "this node does not accept handoffs")
		return
	}
	epoch, id, tableJSON, stateJSON, err := offer.HandoffOffer()
	if err != nil {
		return
	}
	var table service.Placement
	if err := json.Unmarshal(tableJSON, &table); err != nil || table.Epoch != epoch {
		refuse(http.StatusBadRequest, service.CodeBadRequest, "handoff offer table is malformed")
		return
	}
	if table.Assign[id] != s.router.Self() {
		refuse(http.StatusBadRequest, service.CodeBadRequest, "offered table does not assign the community to this node")
		return
	}
	st, err := decodeState(stateJSON)
	if err != nil || st.ID != id {
		refuse(http.StatusBadRequest, service.CodeBadRequest, "handoff offer state is malformed")
		return
	}
	cur := s.router.Placement()
	supersedes := table.Supersedes(cur)
	if !supersedes && epoch < cur.Epoch {
		refuse(http.StatusMisdirectedRequest, service.CodeNotOwner,
			fmt.Sprintf("handoff epoch %d is stale; this node is at epoch %d", epoch, cur.Epoch))
		return
	}
	if c, ok := s.owner.Get(id); ok && !c.Fenced() && !supersedes {
		refuse(http.StatusConflict, service.CodeConflict,
			fmt.Sprintf("this node already owns %q at epoch %d", id, cur.Epoch))
		return
	}
	a := &applier{owner: s.owner, keep: func(c string) bool { return c == id }}
	var cut uint64
	if err = a.install(st); err == nil {
		_ = conn.SetReadDeadline(time.Now().Add(DefaultHandoffTimeout))
		err = a.receive(conn, func(seq uint64) bool { cut = seq; return false })
	}
	if err != nil {
		// The sender died mid-handoff or streamed what does not apply; the
		// replica stays fenced.
		refuse(http.StatusInternalServerError, service.CodeInternal, err.Error())
		return
	}

	// The sender has fenced at cut and everything ≤ cut is applied: flip.
	s.owner.TakeOwnership(id)
	_, _ = s.router.SetPlacement(table)
	_ = conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	_, _ = conn.Write(wire.AppendHandoffAck(nil, cut, id))
}
