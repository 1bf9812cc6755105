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

	"repro/internal/persist"
	"repro/internal/service"
	"repro/internal/wire"
)

// sender writes one stream's frames, each staged in one reused buffer.
type sender struct {
	w   io.Writer
	buf []byte
}

// send writes frame, which the caller appended to s.buf[:0], and keeps
// its buffer for the next frame unless it passed wire.MaxFrame, so a
// stream does not pin the largest frame it sent.
func (s *sender) send(frame []byte) error {
	if cap(frame) <= wire.MaxFrame {
		s.buf = frame
	}
	_, err := s.w.Write(frame)
	return err
}

// records sends recs in frames of at most maxRecsPerFrame records, cut
// before a record that would push a frame past wire.MaxFrame. A record
// larger than that, such as a large community's state, goes alone, in a
// frame up to wire.MaxStreamFrame.
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

// flusher sends each frame of a streamed response as it is written,
// wire.MaxFrame bytes at a time, each under a fresh write deadline, so a
// follower that stops reading fails its stream instead of stalling it,
// and one reading a large state slowly does not.
type flusher struct {
	w  io.Writer
	rc *http.ResponseController
}

func (f flusher) Write(p []byte) (n int, err error) {
	for n < len(p) && err == nil {
		_ = f.rc.SetWriteDeadline(time.Now().Add(10 * time.Second))
		var m int
		m, err = f.w.Write(p[n:min(len(p), n+wire.MaxFrame)])
		if n += m; err == nil {
			err = f.rc.Flush()
		}
	}
	return n, err
}

// catchUp is the one send path of a replica stream: what a peer current
// through after lacks of community (of every community when it is "") up
// to through, then Heartbeat(through). That is the ring's records in
// (after, through] or, once the ring no longer reaches back to after, each
// community's current state first, as an install record at the state's
// seq. Every community's catch-up sends only the communities this node
// owns: a fenced replica's owner streams it, and this node's copy may
// trail that owner's. A state exported after through was read holds its
// community's records up to through, so one community's state goes alone;
// every community's catch-up still sends the ring, which carries deletes
// of communities no longer there to export, and takeovers of communities
// this node took.
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
			rec, err := installRecord(c)
			if err != nil {
				return err
			}
			if err := out.records([]wire.RawRecord{rec}); err != nil {
				return err
			}
		}
	}
	if err := out.records(recs); err != nil {
		return err
	}
	return out.send(wire.AppendHeartbeat(out.buf[:0], through))
}

// installRecord exports c's current state as one install record at the
// state's seq: how catch-up and a handoff's offer ship a state.
func installRecord(c *service.Community) (wire.RawRecord, error) {
	st := c.Export()
	data, err := persist.Encode(nil, []service.Record{{Op: service.OpInstall, ID: st.ID, State: &st}})
	if err != nil {
		return wire.RawRecord{}, err
	}
	return wire.RawRecord{Seq: st.Seq, Data: data[0]}, nil
}

// applier is the one receive side of a replica stream. It decodes each
// record once and replays the communities keep accepts as fenced
// replicas (Owner.Replicate), a state arriving as an install record.
// Bytes it cannot decode, and any frame but Records and Heartbeat, fail
// the stream: a replica holds its owner's state and history verbatim or
// not at all.
type applier struct {
	owner *service.Owner
	// keep reports whether the stream's copy of a community applies here.
	// An accepted state replaces any local copy behind it, an unfenced one
	// included; a caller that must never overwrite its own says so here.
	keep func(id string) bool
	// passed hears every streamed record, kept or not.
	passed func(seq uint64, rec service.Record)
}

// receive applies the stream r carries until the stream fails or beat,
// told each Heartbeat's sequence, returns false.
func (a *applier) receive(r io.Reader, beat func(seq uint64) bool) error {
	var buf []byte
	var recs []wire.RawRecord
	for {
		fr, b, err := wire.ReadFrame(r, buf, wire.MaxStreamFrame)
		if err != nil {
			return err
		}
		buf = b
		switch fr.Kind {
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
	a.passed(r.Seq, rec)
	return nil
}
