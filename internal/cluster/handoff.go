// Live community handoff: the sending half (Handoff, run by the old owner)
// and the receiving half (Source.receiveHandoff, multiplexed onto the
// stream route). See DESIGN.md §12 for the protocol.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"slices"
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
// src supplies the WAL tail; when its ring no longer covers the tail, a
// second, fenced export is sent instead of records. The table must assign
// community to a member with an address, whose Source serves StreamPath.
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
	addr := table.Nodes[slices.IndexFunc(table.Nodes, func(n service.Node) bool { return n.ID == target })].Addr
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
	cut1 := st.Seq
	stateJSON, err := json.Marshal(st)
	if err != nil {
		return HandoffResult{}, fmt.Errorf("cluster: handoff %q: encode state: %w", community, err)
	}

	// The timeout, or cancel on return, closes the stream.
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	conn, err := dialStream(ctx, addr)
	if err != nil {
		return HandoffResult{}, fmt.Errorf("cluster: handoff %q: %w", community, err)
	}
	if _, err := conn.Write(wire.AppendHandoffOffer(nil, table.Epoch, community, tableJSON, stateJSON)); err != nil {
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
	cut2 := c.Seq()

	tail, covered := src.TailFor(community, cut1, cut2)
	if covered {
		if len(tail) > 0 {
			if _, err := conn.Write(wire.AppendRecords(nil, tail)); err != nil {
				return HandoffResult{}, fmt.Errorf("cluster: handoff %q: send tail: %w", community, err)
			}
		}
	} else if cut2 != cut1 {
		// The ring no longer covers the tail: re-export under the fence —
		// the state is final now — and send it whole.
		st2 := c.Export()
		stateJSON, err = json.Marshal(st2)
		if err != nil {
			return HandoffResult{}, fmt.Errorf("cluster: handoff %q: encode fenced state: %w", community, err)
		}
		if _, err := conn.Write(wire.AppendSnapshot(nil, st2.Seq, stateJSON)); err != nil {
			return HandoffResult{}, fmt.Errorf("cluster: handoff %q: send fenced state: %w", community, err)
		}
	}
	// The cut marker: everything at or below cut₂ has been sent.
	if _, err := conn.Write(wire.AppendHeartbeat(nil, cut2)); err != nil {
		return HandoffResult{}, fmt.Errorf("cluster: handoff %q: send cut: %w", community, err)
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

// receiveHandoff runs the receiving half of a handoff on an accepted
// connection whose first frame was the offer. It installs the offered
// state as a fenced replica, applies the streamed tail, and — once the cut
// marker arrives — takes ownership, installs the offered table, and acks.
func (s *Source) receiveHandoff(conn net.Conn, offer wire.Frame, buf []byte) {
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
	var st service.CommunityState
	if err := json.Unmarshal(stateJSON, &st); err != nil || st.ID != id {
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
	if err := s.installReplica(st); err != nil {
		refuse(http.StatusInternalServerError, service.CodeInternal, err.Error())
		return
	}

	// Stream phase: records (or a fenced re-export) until the cut marker.
	var cut uint64
	_ = conn.SetReadDeadline(time.Now().Add(DefaultHandoffTimeout))
	var recs []wire.RawRecord
stream:
	for {
		var fr wire.Frame
		fr, buf, err = wire.ReadFrame(conn, buf)
		if err != nil {
			return // sender died mid-handoff; the replica stays fenced
		}
		switch fr.Kind {
		case wire.KindRecords:
			recs, err = fr.Records(recs[:0])
			if err != nil {
				return
			}
			for _, r := range recs {
				var rec service.Record
				if err := json.Unmarshal(r.Data, &rec); err != nil || rec.ID != id {
					continue
				}
				if err := s.owner.Replicate(r.Seq, rec); err != nil {
					refuse(http.StatusInternalServerError, service.CodeInternal, err.Error())
					return
				}
			}
		case wire.KindSnapshot:
			_, data, err := fr.Snapshot()
			if err != nil {
				return
			}
			var st2 service.CommunityState
			if err := json.Unmarshal(data, &st2); err != nil || st2.ID != id {
				return
			}
			if err := s.installReplica(st2); err != nil {
				refuse(http.StatusInternalServerError, service.CodeInternal, err.Error())
				return
			}
		case wire.KindHeartbeat:
			if cut, err = fr.Heartbeat(); err != nil {
				return
			}
			break stream
		default:
			return
		}
	}

	// The sender has fenced at cut and everything ≤ cut is applied: flip.
	s.owner.TakeOwnership(id)
	_, _ = s.router.SetPlacement(table)
	_ = conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	_, _ = conn.Write(wire.AppendHandoffAck(nil, cut, id))
}

// installReplica installs one exported community state as a fenced local
// replica, replacing an older one; states no newer than the local replica
// are kept as-is (the idempotent re-offer path).
func (s *Source) installReplica(st service.CommunityState) error {
	if _, err := s.owner.InstallReplica(st); err != nil {
		return fmt.Errorf("cluster: handoff restore %q: %w", st.ID, err)
	}
	return nil
}
