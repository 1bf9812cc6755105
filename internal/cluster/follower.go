package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/wire"
)

// FollowerOpts configures NewFollower.
type FollowerOpts struct {
	// Owner is the local community store replicated records are applied to
	// (required). Communities the stream creates are fenced: they serve
	// reads but reject direct writes until promoted.
	Owner *service.Owner
	// Addr is the owner's base URL, its topology Addr (required).
	Addr string
	// Accept filters which communities this follower replicates; nil
	// accepts all. Used by sharded deployments so a node only mirrors the
	// communities placed on the peer it follows.
	Accept func(id string) bool
	// Backoff caps the reconnect delay; 0 means 2s.
	Backoff time.Duration
	// Logf, when set, receives reconnect/replay diagnostics.
	Logf func(format string, args ...any)
}

// Follower maintains one replication subscription to an owner node: it
// dials, subscribes from the last sequence it has applied, replays
// snapshots and records into the local Owner, and reconnects with backoff
// when the stream drops. Safe for concurrent use with serving reads.
type Follower struct {
	owner   *service.Owner
	addr    string
	accept  func(string) bool
	backoff time.Duration
	logf    func(string, ...any)

	mu        sync.Mutex
	applied   uint64
	sourceSeq uint64
	through   map[string]uint64 // per community: last seq its replica is current through
	lastBeat  time.Time
	connected bool
}

// NewFollower returns a follower; call Run to start replicating.
func NewFollower(o FollowerOpts) (*Follower, error) {
	if o.Owner == nil {
		return nil, fmt.Errorf("cluster: NewFollower requires an Owner")
	}
	if o.Addr == "" {
		return nil, fmt.Errorf("cluster: NewFollower requires the owner's address")
	}
	if o.Backoff <= 0 {
		o.Backoff = 2 * time.Second
	}
	return &Follower{
		owner:   o.Owner,
		addr:    o.Addr,
		accept:  o.Accept,
		backoff: o.Backoff,
		logf:    o.Logf,
		through: make(map[string]uint64),
	}, nil
}

// Applied returns the highest replicated sequence this follower has
// processed — the point a new subscription resumes from.
func (f *Follower) Applied() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied
}

// Connected reports whether a subscription is currently live.
func (f *Follower) Connected() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.connected
}

// Lag reports, per replicated community, how many sequences its local
// replica trails the owner's stream: the owner's advertised sequence minus
// the last sequence the replica is known current through. A community's
// own watermark advances when one of its records or snapshots applies; the
// stream's total order then lifts every tracked community to the applied
// watermark (a record processed at seq S proves everything at or below S
// was already delivered and applied), so an idle community never inherits
// the lag of its busy stream-mates — the pre-epoch status page reported
// one aggregate number for every community.
func (f *Follower) Lag() map[string]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]uint64, len(f.through))
	for id, thru := range f.through {
		if f.applied > thru {
			thru = f.applied
		}
		var lag uint64
		if f.sourceSeq > thru {
			lag = f.sourceSeq - thru
		}
		out[id] = lag
	}
	return out
}

// LastHeartbeat returns when the owner's watermark heartbeat last arrived
// (zero before the first). The failure detector compares it against the
// missed-heartbeat deadline.
func (f *Follower) LastHeartbeat() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastBeat
}

// Run replicates until ctx is cancelled, reconnecting with capped
// exponential backoff. It blocks; run it in a goroutine.
func (f *Follower) Run(ctx context.Context) {
	delay := 50 * time.Millisecond
	for ctx.Err() == nil {
		start := time.Now()
		err := f.runOnce(ctx)
		if ctx.Err() != nil {
			return
		}
		if err != nil && f.logf != nil {
			f.logf("cluster: follower of %s: %v", f.addr, err)
		}
		if err == nil || time.Since(start) > f.backoff {
			delay = 50 * time.Millisecond
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(delay):
		}
		if delay *= 2; delay > f.backoff {
			delay = f.backoff
		}
	}
}

// runOnce runs one subscription to completion (stream drop or ctx cancel).
func (f *Follower) runOnce(ctx context.Context) error {
	// Cancellation closes the stream, which unblocks the frame reads below.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	conn, err := dialStream(ctx, f.addr)
	if err != nil {
		return err
	}
	if _, err := conn.Write(wire.AppendSubscribe(nil, f.Applied())); err != nil {
		return err
	}
	f.setConnected(true)
	defer f.setConnected(false)

	// Until the owner's catch-up heartbeat arrives, the stream may be
	// mid-snapshot-phase: state is applied (Apply/Restore are idempotent)
	// but the subscription watermark must not advance, or a drop mid-phase
	// would make the reconnect skip communities whose snapshots never
	// arrived.
	caughtUp := false
	var buf []byte
	var recs []wire.RawRecord
	for {
		var fr wire.Frame
		fr, buf, err = wire.ReadFrame(conn, buf)
		if err != nil {
			return err
		}
		switch fr.Kind {
		case wire.KindSnapshot:
			_, data, err := fr.Snapshot()
			if err != nil {
				return err
			}
			if err := f.applySnapshot(data); err != nil {
				return err
			}
		case wire.KindRecords:
			recs, err = fr.Records(recs[:0])
			if err != nil {
				return err
			}
			for _, r := range recs {
				if err := f.applyRecord(r.Seq, r.Data, caughtUp); err != nil {
					return err
				}
			}
		case wire.KindHeartbeat:
			seq, err := fr.Heartbeat()
			if err != nil {
				return err
			}
			// The owner only heartbeats sequences it has already streamed
			// to this subscriber (the first one marks catch-up complete),
			// so advancing the applied watermark past skipped or filtered
			// records is safe.
			caughtUp = true
			f.heartbeat(seq)
		default:
			return fmt.Errorf("cluster: unexpected %v frame on replication stream", fr.Kind)
		}
	}
}

func (f *Follower) setConnected(v bool) {
	f.mu.Lock()
	f.connected = v
	f.mu.Unlock()
}

// applySnapshot installs one community's exported state, replacing a stale
// local replica if the snapshot is newer. Communities this node owns
// outright (present and unfenced — e.g. after a promotion) are never
// clobbered by a stale stream.
func (f *Follower) applySnapshot(data []byte) error {
	var st service.CommunityState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("cluster: decode snapshot: %w", err)
	}
	if f.accept != nil && !f.accept(st.ID) {
		return nil
	}
	if c, ok := f.owner.Get(st.ID); ok && !c.Fenced() {
		return nil // we own this community now; ignore the old stream
	}
	c, err := f.owner.InstallReplica(st)
	if err != nil {
		return fmt.Errorf("cluster: restore %q: %w", st.ID, err)
	}
	f.track(st.ID, c.Seq())
	return nil
}

// applyRecord replays one streamed record into the local store; advance
// moves the subscription watermark (live stream only — catch-up records
// wait for the owner's watermark heartbeat).
func (f *Follower) applyRecord(seq uint64, data []byte, advance bool) error {
	var rec service.Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("cluster: decode record at seq %d: %w", seq, err)
	}
	replicate := f.accept == nil || f.accept(rec.ID)
	if replicate {
		if c, ok := f.owner.Get(rec.ID); ok && !c.Fenced() {
			replicate = false // locally owned (promoted); the stream is stale
		}
	}
	if replicate {
		if err := f.owner.Replicate(seq, rec); err != nil {
			return fmt.Errorf("cluster: apply seq %d: %w", seq, err)
		}
		if rec.Op == service.OpDelete {
			f.untrack(rec.ID)
		} else {
			f.track(rec.ID, seq)
		}
	}
	if advance {
		f.advance(seq)
	}
	return nil
}

// advance moves the applied and source watermarks forward.
func (f *Follower) advance(seq uint64) {
	f.mu.Lock()
	if seq > f.applied {
		f.applied = seq
	}
	if seq > f.sourceSeq {
		f.sourceSeq = seq
	}
	f.mu.Unlock()
}

// heartbeat records the owner's watermark: the stream has delivered
// everything at or below seq, so every tracked community is current
// through it.
func (f *Follower) heartbeat(seq uint64) {
	f.advance(seq)
	f.mu.Lock()
	f.lastBeat = time.Now()
	for id, thru := range f.through {
		if seq > thru {
			f.through[id] = seq
		}
	}
	f.mu.Unlock()
}

// track marks a community replicated and current through seq.
func (f *Follower) track(id string, seq uint64) {
	f.mu.Lock()
	if thru, ok := f.through[id]; !ok || seq > thru {
		f.through[id] = seq
	}
	f.mu.Unlock()
}

func (f *Follower) untrack(id string) {
	f.mu.Lock()
	delete(f.through, id)
	f.mu.Unlock()
}
