// The replica stream's one sender and one applier, behind follower
// catch-up and live handoff alike. §6 recoloring depends on history, so a
// replica adopts its owner's exported coloring verbatim, and every path
// that ships state ships it the same way.
package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/service"
	"repro/internal/wire"
)

// encodeState exports a community and encodes its state: the one encoding
// behind catch-up snapshots and a handoff's offer. cutoff is its sequence.
func encodeState(c *service.Community) (cutoff uint64, data []byte, err error) {
	st := c.Export()
	if data, err = json.Marshal(st); err != nil {
		return 0, nil, fmt.Errorf("cluster: encode %q: %w", st.ID, err)
	}
	return st.Seq, data, nil
}

// decodeState decodes a state encodeState encoded.
func decodeState(data []byte) (service.CommunityState, error) {
	var st service.CommunityState
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("cluster: decode community state: %w", err)
	}
	return st, nil
}

// sender writes one stream's frames, each staged in one reused buffer.
type sender struct {
	w   io.Writer
	buf []byte
}

// send writes frame, which the caller appended to s.buf[:0].
func (s *sender) send(frame []byte) error {
	s.buf = frame
	_, err := s.w.Write(frame)
	return err
}

// records sends recs in frames of at most maxRecsPerFrame records, cut
// before a record that would push a frame past wire.MaxFrame. A record too
// large for any frame goes alone, and the receiver refuses it.
func (s *sender) records(recs []wire.RawRecord) error {
	for len(recs) > 0 {
		n := wire.RecordsFit(recs[:min(len(recs), maxRecsPerFrame)])
		if err := s.send(wire.AppendRecords(s.buf[:0], recs[:n])); err != nil {
			return err
		}
		recs = recs[n:]
	}
	return nil
}

// flusher sends each frame of a streamed response as it is written, under
// a fresh write deadline, so a follower that stops reading fails its
// stream instead of stalling it.
type flusher struct {
	w  io.Writer
	rc *http.ResponseController
}

func (f flusher) Write(p []byte) (int, error) {
	_ = f.rc.SetWriteDeadline(time.Now().Add(10 * time.Second))
	n, err := f.w.Write(p)
	if err == nil {
		err = f.rc.Flush()
	}
	return n, err
}

// catchUp is the one send path of a replica stream: what a peer current
// through after lacks of community (of every community when it is "") up
// to through, then Heartbeat(through). That is the ring's records in
// (after, through] or, once the ring no longer reaches back to after, each
// community's current state first, one Snapshot frame each so a mega
// community cannot push a frame past wire.MaxFrame. Every community's
// catch-up sends only the communities this node owns: a fenced replica's
// owner streams it, and this node's copy may trail that owner's. A state
// exported after through was read holds its community's records up to
// through, so one community's state goes alone; every community's
// catch-up still sends the ring, which carries deletes of communities no
// longer there to export, and takeovers of communities this node took.
func (s *Source) catchUp(out *sender, community string, after, through uint64) error {
	recs, covered := s.TailFor(community, after, through)
	if !covered && after < through {
		ids := []string{community}
		if community == "" {
			ids = s.owner.List()
		} else {
			recs = nil
		}
		for _, id := range ids {
			c, ok := s.owner.Get(id)
			if !ok || (community == "" && c.Fenced()) {
				continue
			}
			cutoff, state, err := encodeState(c)
			if err != nil {
				return err
			}
			if err := out.send(wire.AppendSnapshot(out.buf[:0], cutoff, state)); err != nil {
				return err
			}
		}
	}
	if err := out.records(recs); err != nil {
		return err
	}
	return out.send(wire.AppendHeartbeat(out.buf[:0], through))
}

// applier is the one receive side of a replica stream. It decodes each
// state and record once and applies the communities keep accepts as
// fenced replicas (Owner.InstallReplica, Owner.Replicate). Bytes it cannot
// decode, and any frame but Snapshot, Records and Heartbeat, fail the
// stream: a replica holds its owner's state and history verbatim or not
// at all.
type applier struct {
	owner *service.Owner
	// keep reports whether the stream's copy of a community applies here.
	// An accepted state replaces any local copy behind it, an unfenced one
	// included; a caller that must never overwrite its own says so here.
	keep func(id string) bool
	// journal installs states through Owner.InstallOffer, which journals
	// them: a handoff's, whose takeover replays onto them.
	journal bool
	// passed, when set, hears every streamed record, kept or not.
	passed func(seq uint64, rec service.Record)
}

// receive applies the stream r carries until the stream fails or beat,
// told each Heartbeat's sequence, returns false.
func (a *applier) receive(r io.Reader, beat func(seq uint64) bool) error {
	var buf []byte
	var recs []wire.RawRecord
	for {
		fr, b, err := wire.ReadFrame(r, buf)
		if err != nil {
			return err
		}
		buf = b
		switch fr.Kind {
		case wire.KindSnapshot:
			_, data, err := fr.Snapshot()
			if err != nil {
				return err
			}
			st, err := decodeState(data)
			if err != nil {
				return err
			}
			if err := a.install(st); err != nil {
				return err
			}
		case wire.KindRecords:
			if recs, err = fr.Records(recs[:0]); err != nil {
				return err
			}
			for _, rec := range recs {
				if err := a.replicate(rec); err != nil {
					return err
				}
			}
		case wire.KindHeartbeat:
			seq, err := fr.Heartbeat()
			if err != nil {
				return err
			}
			if !beat(seq) {
				return nil
			}
		default:
			return fmt.Errorf("cluster: unexpected %v frame on a replica stream", fr.Kind)
		}
	}
}

// install installs a decoded state as a fenced replica if keep accepts it.
func (a *applier) install(st service.CommunityState) error {
	if !a.keep(st.ID) {
		return nil
	}
	install := a.owner.InstallReplica
	if a.journal {
		install = a.owner.InstallOffer
	}
	if _, err := install(st); err != nil {
		return fmt.Errorf("cluster: install replica %q: %w", st.ID, err)
	}
	return nil
}

// replicate decodes a streamed record and replays it if keep accepts it.
func (a *applier) replicate(r wire.RawRecord) error {
	var rec service.Record
	if err := json.Unmarshal(r.Data, &rec); err != nil {
		return fmt.Errorf("cluster: decode record at seq %d: %w", r.Seq, err)
	}
	if a.keep(rec.ID) {
		if err := a.owner.Replicate(r.Seq, rec); err != nil {
			return fmt.Errorf("cluster: apply seq %d: %w", r.Seq, err)
		}
	}
	if a.passed != nil {
		a.passed(r.Seq, rec)
	}
	return nil
}
