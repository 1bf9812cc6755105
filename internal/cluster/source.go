// Package cluster replicates a holidayd owner's write-ahead log to
// followers over the internal/wire binary framing, turning the per-record
// WAL sequences of internal/persist into a replication log.
//
// The owner side (Source) wraps the node's journal: every record a
// community logs is also stamped into an in-memory ring and fanned out to
// subscribed followers as Records frames. Frames travel in ordinary
// requests to StreamPath on the node's API listener, which Source serves:
// a follower (Follower) subscribes with GET ?from=N, N the last sequence it
// has applied, and reads the frames from the streamed 200 response, and a
// live handoff (Source.Handoff) POSTs its offer, then its tail, each a
// small offer frame followed by records. Both streams are written by one
// catch-up writer (the ring's missing records, or, once the ring no longer
// covers the gap, exported states first, each as an install record at its
// seq) and applied by one applier, replay being idempotent against the
// states' cutoffs; a handoff's offer sends its state as the same install
// record. A state travels at any size: a frame holding one may pass
// wire.MaxFrame, and wire.ReadFrame commits memory as its bytes arrive.
// Heartbeat frames advertise the last sequence streamed to the subscriber,
// so an idle follower still learns it is caught up.
//
// Every community a stream hands a node is registered fenced
// (Owner.InstallReplica, Owner.Replicate): reads serve from the replica's
// frozen-schedule caches while direct writes fail closed with not_owner
// until a takeover lifts the fence. States and records carry their
// community's sequence space, so a node may follow several owners and
// takes a moved community from whichever streams it now.
package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/persist"
	"repro/internal/service"
	"repro/internal/wire"
)

// DefaultRingSize is the records a Source retains for catch-up before a
// reconnecting follower is sent states instead.
const DefaultRingSize = 8192

// maxRingBytes bounds the record bytes the ring retains as well, so a ring
// of state-sized install records cannot pin thousands of states. The
// oldest records go first; one larger than the bound is held alone until
// the next push.
const maxRingBytes = 64 << 20

// DefaultHeartbeat is the idle-stream heartbeat interval.
const DefaultHeartbeat = 500 * time.Millisecond

// subBuf is the per-subscriber record queue; a follower that falls this far
// behind the live stream is dropped and reconnects through catch-up.
const subBuf = 4096

// maxRecsPerFrame bounds the records one Records frame carries so a busy
// stream flushes in digestible chunks.
const maxRecsPerFrame = 256

// StreamPath is the route a node serves its Source on, beside its API.
const StreamPath = "/v1/stream"

// ringRec is one ring entry: a replicated record (its journal sequence and
// the same JSON object a WAL segment stores on the owner) beside its community.
type ringRec struct {
	community string
	wire.RawRecord
}

// SourceOpts configures NewSource.
type SourceOpts struct {
	// Owner is the community store states are exported from (required).
	Owner *service.Owner
	// Journal is the durable journal the source wraps, the data
	// directory's WAL in holidayd, whose sequence (Journal.Seq() after
	// recovery) the source starts at. Nil runs the source as the journal
	// itself from 0 (in-memory sequence assignment, no disk), the
	// no-durability configuration.
	Journal *persist.WAL
	// RingSize overrides the catch-up ring capacity; 0 means
	// DefaultRingSize.
	RingSize int
	// Heartbeat overrides the heartbeat interval; 0 means DefaultHeartbeat.
	Heartbeat time.Duration
	// Router, when set, lets this node accept live handoffs on the same
	// route: a handoff's offer installs the community as a fenced replica,
	// and its tail takes ownership of it and installs the offered
	// placement table. Nil refuses handoffs.
	Router *service.Router
}

// Source is the owner half of the replication stream. It implements
// service.BatchJournal: attach it (service.Opts.Journal) in place of the
// raw WAL and every logged record is both durable and replicated. It is
// also the http.Handler of StreamPath. Safe for concurrent use.
type Source struct {
	owner     *service.Owner
	inner     *persist.WAL
	heartbeat time.Duration
	router    *service.Router

	mu     sync.Mutex
	seq    uint64
	ring   []ringRec // circular buffer
	start  int       // index of the oldest record
	count  int
	bytes  int // record bytes in the ring
	subs   map[*subscriber]struct{}
	closed bool           // set by Close; refuses new requests
	wg     sync.WaitGroup // one per request being served
}

// subscriber is one subscription's send side.
type subscriber struct {
	ch   chan wire.RawRecord
	drop chan struct{} // closed when the fan-out gives up on a slow follower
	once sync.Once
}

func (s *subscriber) dropNow() { s.once.Do(func() { close(s.drop) }) }

// NewSource wraps a journal (or stands in for one) as a replication source.
func NewSource(o SourceOpts) (*Source, error) {
	if o.Owner == nil {
		return nil, fmt.Errorf("cluster: NewSource requires an Owner")
	}
	if o.RingSize < 1 {
		o.RingSize = DefaultRingSize
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = DefaultHeartbeat
	}
	s := &Source{
		owner:     o.Owner,
		inner:     o.Journal,
		heartbeat: o.Heartbeat,
		router:    o.Router,
		ring:      make([]ringRec, o.RingSize),
		subs:      make(map[*subscriber]struct{}),
	}
	if o.Journal != nil {
		s.seq = o.Journal.Seq()
	}
	return s, nil
}

// Seq returns the last replicated sequence.
func (s *Source) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Log implements service.Journal as a batch of one.
func (s *Source) Log(rec service.Record) (uint64, error) {
	return s.LogBatch([]service.Record{rec})
}

// LogBatch implements service.BatchJournal and is the source's one append.
// The batch is encoded once (persist.Encode), with no lock held. Then it
// is logged to the wrapped WAL (write-ahead durability first), which
// assigns it consecutive sequences and splices them into the same bytes,
// and each record is ringed and fanned out. The source mutex is held
// across the inner append so ring order always matches sequence order —
// taking it after would let concurrent appends fan out records out of
// order — so other appends wait while the WAL writes a takeover's
// state-sized install record, and under SyncAlways while it fsyncs it.
func (s *Source) LogBatch(recs []service.Record) (uint64, error) {
	var small [4][]byte // so a small batch allocates no slice for its records
	data, err := persist.Encode(small[:0], recs)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(recs) == 0 {
		return s.seq, nil
	}
	last := s.seq + uint64(len(recs))
	if s.inner != nil {
		if last, err = s.inner.LogEncoded(data); err != nil {
			return 0, err
		}
	}
	first := last - uint64(len(recs)) + 1
	for i, rec := range recs {
		s.pushLocked(ringRec{community: rec.ID, RawRecord: wire.RawRecord{Seq: first + uint64(i), Data: data[i]}})
	}
	s.seq = last
	return last, nil
}

// pushLocked appends a record to the ring, evicting the oldest while the
// ring is full or the record would take it past maxRingBytes, and fans it
// out; caller holds mu.
func (s *Source) pushLocked(r ringRec) {
	for s.count > 0 && (s.count == len(s.ring) || s.bytes+len(r.Data) > maxRingBytes) {
		s.bytes -= len(s.ring[s.start].Data)
		s.ring[s.start] = ringRec{} // drop the evicted record's bytes
		s.start = (s.start + 1) % len(s.ring)
		s.count--
	}
	s.ring[(s.start+s.count)%len(s.ring)] = r
	s.count++
	s.bytes += len(r.Data)
	for sub := range s.subs {
		select {
		case sub.ch <- r.RawRecord:
		default:
			// The follower is not draining: drop it rather than stall the
			// write path; it reconnects through catch-up.
			delete(s.subs, sub)
			sub.dropNow()
		}
	}
}

// TailFor copies the ring records for one community (for every community
// when it is "", an id no community has) with sequences in (after,
// through], and decodes none of them. covered reports whether the ring reaches back far
// enough that no record in that range can have been evicted — when false
// the caller must fall back to fresh states.
func (s *Source) TailFor(community string, after, through uint64) (recs []wire.RawRecord, covered bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return nil, after >= s.seq
	}
	covered = after+1 >= s.ring[s.start].Seq
	for i := 0; i < s.count; i++ {
		r := &s.ring[(s.start+i)%len(s.ring)]
		if r.Seq > after && r.Seq <= through && (community == "" || r.community == community) {
			recs = append(recs, r.RawRecord)
		}
	}
	return recs, covered
}

// ServeHTTP serves StreamPath. GET ?from=N subscribes: its 200 response
// streams what a follower current through N lacks, then live records and
// heartbeats, until the follower leaves, falls too far behind, or Close
// drops it. POST serves one request of a handoff (receiveHandoff). Every
// refusal, 503 after Close among them, carries the {code, message}
// envelope.
func (s *Source) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	var sub *subscriber
	switch {
	case r.Method == http.MethodGet && err == nil:
		sub = &subscriber{ch: make(chan wire.RawRecord, subBuf), drop: make(chan struct{})}
	case r.Method != http.MethodPost:
		refuse(w, service.CodeBadRequest, "%s takes GET ?from=N, a subscription, or POST, a handoff", StreamPath)
		return
	}
	// A subscriber registers in the step that admits its request, so Close
	// has either refused it or will drop it.
	s.mu.Lock()
	closed, watermark := s.closed, s.seq
	if !closed {
		s.wg.Add(1)
		if sub != nil {
			s.subs[sub] = struct{}{}
		}
	}
	s.mu.Unlock()
	if closed {
		refuse(w, service.CodeUnavailable, "replication source is closed")
		return
	}
	defer s.wg.Done()
	if sub == nil {
		s.receiveHandoff(w, r)
		return
	}
	defer func() {
		s.mu.Lock()
		delete(s.subs, sub)
		s.mu.Unlock()
	}()
	s.subscribe(w, r, sub, from, watermark)
}

// refuse answers a stream request with the {code, message} envelope.
func refuse(w http.ResponseWriter, code service.ErrCode, format string, args ...any) {
	service.WriteError(w, code.HTTPStatus(), service.Errf(code, format, args...))
}

// request sends one request to the stream route of the node at base URL
// addr and returns its 200 response, whose body the caller closes; any
// other answer comes back as the node's {code, message} envelope. The
// client has no Timeout, since a subscription's response never ends:
// callers bound their requests with ctx.
func request(ctx context.Context, method, addr, query string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(addr, "/")+StreamPath+query, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, service.ResponseError(resp)
	}
	return resp, nil
}

// Close refuses new streams, disconnects subscribers, and waits for every
// stream being served. The wrapped journal is not closed — its lifecycle
// belongs to the caller.
func (s *Source) Close() {
	s.mu.Lock()
	s.closed = true
	for sub := range s.subs {
		delete(s.subs, sub)
		sub.dropNow()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// subscribe streams one subscription: catch-up from from to the watermark
// it registered at, then live records and heartbeats. Records logged after
// the watermark queue in sub.ch, so every sequence reaches the follower at
// least once, and Apply's idempotence absorbs the overlaps.
func (s *Source) subscribe(w http.ResponseWriter, r *http.Request, sub *subscriber, from, watermark uint64) {
	w.Header().Set("Content-Type", "application/octet-stream")
	out := &sender{w: flusher{w, http.NewResponseController(w)}}
	if s.catchUp(out, "", from, watermark) != nil {
		return
	}
	// Heartbeats advertise the last sequence streamed to this follower;
	// records still queued in sub.ch are not claimed.
	sent := watermark
	ticker := time.NewTicker(s.heartbeat)
	defer ticker.Stop()
	var pending []wire.RawRecord
	for {
		pending = pending[:0]
		select {
		case rec := <-sub.ch:
			// Take whatever else is queued too, so a busy stream coalesces
			// into batched frames; this goroutine is the only receiver, so
			// the queued records are there to take.
			pending = append(pending, rec)
			for n := len(sub.ch); n > 0; n-- {
				pending = append(pending, <-sub.ch)
			}
			if out.records(pending) != nil {
				return
			}
			sent = pending[len(pending)-1].Seq
		case <-ticker.C:
			if out.send(wire.AppendHeartbeat(out.buf[:0], sent)) != nil {
				return
			}
		case <-sub.drop:
			return
		case <-r.Context().Done():
			// The follower left.
			return
		}
	}
}
