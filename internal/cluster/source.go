// Package cluster replicates a holidayd owner's write-ahead log to
// followers over the internal/wire binary framing, turning the per-record
// WAL sequences of internal/persist into a replication log.
//
// The owner side (Source) wraps the node's journal: every record a
// community logs is also stamped into an in-memory ring and fanned out to
// subscribed followers as Records frames. Frames travel on the node's API
// listener: Source serves StreamPath, upgrading a GET to the frame stream
// (101 Switching Protocols), and dialStream opens one. A follower
// (Follower) subscribes from the last sequence it has applied, and a live
// handoff offers one community; both streams are written by one catch-up
// writer (the ring's missing records, or exported states first once the
// ring no longer covers the gap) and applied by one applier, replay being
// idempotent against the states' cutoffs. Heartbeat frames advertise the
// last sequence streamed to the subscriber, so an idle follower still
// learns it is caught up and can measure lag.
//
// Every community a stream hands a node is registered fenced
// (Owner.InstallReplica, Owner.Replicate): reads serve from the replica's
// frozen-schedule caches while direct writes fail closed with not_owner
// until a promotion lifts the fence.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/wire"
)

// DefaultRingSize is the records a Source retains for catch-up before a
// reconnecting follower is pushed onto the snapshot path.
const DefaultRingSize = 8192

// DefaultHeartbeat is the idle-stream heartbeat interval.
const DefaultHeartbeat = 500 * time.Millisecond

// subBuf is the per-subscriber record queue; a follower that falls this far
// behind the live stream is dropped and reconnects through catch-up.
const subBuf = 4096

// maxRecsPerFrame bounds the records one Records frame carries so a busy
// stream flushes in digestible chunks.
const maxRecsPerFrame = 256

// StreamPath is the route a node serves its Source on, beside its API: a
// GET with Upgrade: streamProto there carries frames both ways after its
// 101, for the replication stream or the handoff receiver.
// handshakeTimeout bounds the Upgrade round trip.
const (
	StreamPath       = "/v1/stream"
	streamProto      = "holiday-wire"
	handshakeTimeout = 10 * time.Second
)

// ringRec is one ring entry: a replicated record (its journal sequence and
// the same JSON object wal.jsonl stores on the owner) beside its community.
type ringRec struct {
	community string
	wire.RawRecord
}

// SourceOpts configures NewSource.
type SourceOpts struct {
	// Owner is the community store snapshots are exported from (required).
	Owner *service.Owner
	// Journal is the durable journal the source wraps, the persist.WAL in
	// holidayd. Nil runs the source as the journal itself (in-memory
	// sequence assignment, no disk), the no-durability configuration.
	Journal service.BatchJournal
	// Start seeds the sequence counter (Journal.Seq() after recovery) so
	// replication sequences line up with the WAL's.
	Start uint64
	// RingSize overrides the catch-up ring capacity; 0 means
	// DefaultRingSize.
	RingSize int
	// Heartbeat overrides the heartbeat interval; 0 means DefaultHeartbeat.
	Heartbeat time.Duration
	// Router, when set, lets this node accept live handoffs on the same
	// route: an incoming HandoffOffer installs the offered placement table
	// and takes ownership of the handed-off community. Nil refuses offers.
	Router *service.Router
}

// Source is the owner half of the replication stream. It implements
// service.BatchJournal: attach it (service.Opts.Journal) in place of the
// raw WAL and every logged record is both durable and replicated. It is
// also the http.Handler of StreamPath. Safe for concurrent use.
type Source struct {
	owner     *service.Owner
	inner     service.BatchJournal
	heartbeat time.Duration
	router    *service.Router

	mu     sync.Mutex
	seq    uint64
	ring   []ringRec // circular buffer
	start  int       // index of the oldest record
	count  int
	subs   map[*subscriber]struct{}
	closed bool           // set by Close; refuses new streams and subscribers
	wg     sync.WaitGroup // one per stream being served
}

// subscriber is one follower connection's send side.
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
	return &Source{
		owner:     o.Owner,
		inner:     o.Journal,
		heartbeat: o.Heartbeat,
		router:    o.Router,
		seq:       o.Start,
		ring:      make([]ringRec, o.RingSize),
		subs:      make(map[*subscriber]struct{}),
	}, nil
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

// LogBatch implements service.BatchJournal and is the source's one append:
// the batch is logged to the wrapped journal (write-ahead durability
// first), which assigns it consecutive sequences, then each record is
// ringed and fanned out. The source mutex is held across the inner append
// so ring order always matches sequence order — taking it after would let
// concurrent appends fan out records out of order.
func (s *Source) LogBatch(recs []service.Record) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(recs) == 0 {
		return s.seq, nil
	}
	last := s.seq + uint64(len(recs))
	if s.inner != nil {
		var err error
		if last, err = s.inner.LogBatch(recs); err != nil {
			return 0, err
		}
	}
	first := last - uint64(len(recs)) + 1
	for i, rec := range recs {
		data, err := json.Marshal(rec)
		if err != nil {
			return 0, fmt.Errorf("cluster: encode replication record: %w", err)
		}
		s.pushLocked(ringRec{community: rec.ID, RawRecord: wire.RawRecord{Seq: first + uint64(i), Data: data}})
	}
	s.seq = last
	return last, nil
}

// pushLocked appends a record to the ring and fans it out; caller holds mu.
func (s *Source) pushLocked(r ringRec) {
	if s.count == len(s.ring) {
		s.ring[s.start] = r
		s.start = (s.start + 1) % len(s.ring)
	} else {
		s.ring[(s.start+s.count)%len(s.ring)] = r
		s.count++
	}
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
// the caller must fall back to a fresh snapshot.
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

// ServeHTTP serves StreamPath: it upgrades the request to the frame stream
// and runs the peer's protocol on the hijacked connection until it ends.
// After Close it refuses with 503.
func (s *Source) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		http.Error(w, "cluster: replication source is closed", http.StatusServiceUnavailable)
		return
	}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()
	if conn := upgrade(w, r); conn != nil {
		s.handle(conn)
	}
}

// upgrade is the server half of the handshake: it answers a GET carrying
// Upgrade: holiday-wire with 101 Switching Protocols and returns the
// hijacked connection. Any other request is answered 426 and gets nil, as
// does a peer that sent bytes before its 101 reached it: a peer speaks
// only after the 101.
func upgrade(w http.ResponseWriter, r *http.Request) net.Conn {
	if r.Method != http.MethodGet || !strings.EqualFold(r.Header.Get("Upgrade"), streamProto) {
		w.Header().Set("Connection", "Upgrade")
		w.Header().Set("Upgrade", streamProto)
		http.Error(w, "cluster: "+StreamPath+" needs GET with Upgrade: "+streamProto, http.StatusUpgradeRequired)
		return nil
	}
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return nil
	}
	if _, err := conn.Write([]byte("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + streamProto + "\r\n\r\n")); err != nil || brw.Reader.Buffered() > 0 {
		conn.Close()
		return nil
	}
	return conn
}

// streamClient opens streams. It has no Timeout: with one, net/http wraps
// a 101 body in a reader that cannot be written to, so dialStream bounds
// the handshake with a context instead.
var streamClient = &http.Client{}

// dialStream is the client half of the handshake: it opens the frame
// stream of the node whose API is at base URL addr. The stream closes when
// ctx ends; the handshake alone is also bounded by handshakeTimeout.
func dialStream(ctx context.Context, addr string) (io.ReadWriteCloser, error) {
	hctx, cancel := context.WithTimeout(ctx, handshakeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(hctx, http.MethodGet, strings.TrimRight(addr, "/")+StreamPath, nil)
	if err != nil {
		return nil, err
	}
	req.Header = http.Header{"Connection": {"Upgrade"}, "Upgrade": {streamProto}}
	resp, err := streamClient.Do(req)
	if err != nil {
		return nil, err
	}
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	if resp.StatusCode != http.StatusSwitchingProtocols || !ok || !strings.EqualFold(resp.Header.Get("Upgrade"), streamProto) {
		resp.Body.Close()
		return nil, fmt.Errorf("cluster: GET %s: %s", req.URL, resp.Status)
	}
	context.AfterFunc(ctx, func() { rwc.Close() })
	return rwc, nil
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

// handle runs one peer connection. The first frame picks the protocol: a
// Subscribe opens a replication stream (catch up, then live records and
// heartbeats until the peer disconnects or falls too far behind); a
// HandoffOffer runs the receiving half of a live handoff.
func (s *Source) handle(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, _, err := wire.ReadFrame(conn, nil)
	if err != nil {
		return
	}
	if f.Kind == wire.KindHandoffOffer {
		s.receiveHandoff(conn, f)
		return
	}
	fromSeq, err := f.Subscribe()
	if err != nil {
		return
	}
	_ = conn.SetReadDeadline(time.Time{})

	// Register first, then catch up to the watermark: records logged from
	// here on buffer in sub.ch, and catch-up covers (fromSeq, watermark] —
	// between the two every sequence reaches the follower at least once,
	// and Apply's idempotence absorbs the overlaps.
	sub := &subscriber{ch: make(chan wire.RawRecord, subBuf), drop: make(chan struct{})}
	s.mu.Lock()
	if s.closed {
		// Close has already dropped the subscribers it will ever drop.
		s.mu.Unlock()
		return
	}
	watermark := s.seq
	s.subs[sub] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.subs, sub)
		s.mu.Unlock()
		sub.dropNow()
	}()

	// A half-closed or dying peer must not leak this goroutine: the read
	// side only ever returns when the connection drops (followers send
	// nothing after subscribing), and that drops the subscriber.
	go func() {
		var b [1]byte
		_, _ = conn.Read(b[:])
		sub.dropNow()
	}()

	out := &sender{w: deadlineWriter{conn}}
	if s.catchUp(out, "", fromSeq, watermark) != nil {
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
		case r := <-sub.ch:
			// Take whatever else is queued too, so a busy stream coalesces
			// into batched frames; this goroutine is the only receiver, so
			// the queued records are there to take.
			pending = append(pending, r)
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
		}
	}
}
