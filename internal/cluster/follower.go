package cluster

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/service"
)

// FollowerOpts configures NewFollower.
type FollowerOpts struct {
	// Owner is the local community store replicated records are applied to
	// (required). Communities the stream creates are fenced: they serve
	// reads but reject direct writes until promoted.
	Owner *service.Owner
	// Addr is the owner's base URL, its topology Addr (required).
	Addr string
	// Backoff caps the reconnect delay; 0 means 2s.
	Backoff time.Duration
	// Logf, when set, receives reconnect/replay diagnostics.
	Logf func(format string, args ...any)
}

// Follower maintains one replication subscription to an owner node: it
// dials, subscribes from the last sequence it has applied, replays
// records, states among them, into the local Owner, and reconnects with
// backoff when the stream drops. Safe for concurrent use with serving reads.
type Follower struct {
	owner   *service.Owner
	addr    string
	backoff time.Duration
	logf    func(string, ...any)

	mu        sync.Mutex
	applied   uint64
	connected bool
	caughtUp  bool // the subscription's catch-up heartbeat has arrived
	// resync ends the subscription at its next heartbeat, and the next
	// one catches up from the start: the stream carried an edit this node
	// cannot apply for want of a state it missed (missed). resynced holds
	// the space each community's last resync was for, so a record that no
	// catch-up cures costs one resync, not a loop.
	resync   bool
	resynced map[string]service.Space
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
		owner:    o.Owner,
		addr:     o.Addr,
		backoff:  o.Backoff,
		logf:     o.Logf,
		resynced: make(map[string]service.Space),
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

// runOnce runs one subscription to completion (stream end or ctx cancel).
func (f *Follower) runOnce(ctx context.Context) error {
	// Cancellation ends the request, which unblocks the frame reads below.
	resp, err := request(ctx, http.MethodGet, f.addr, "?from="+strconv.FormatUint(f.Applied(), 10), nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	f.setConnected(true)
	defer f.setConnected(false)
	return f.stream().receive(resp.Body, f.heartbeat)
}

// stream is the applier of one subscription. It keeps every community
// the owner streams, except one this node owns unfenced (promoted, or taken
// over), which a stream must never overwrite: only a handoff whose table
// supersedes may. Which copy of a followed community is current is the
// records' and states' sequence spaces' to decide, so a node that follows
// several owners takes a moved community from whichever owner streams it
// now. A streamed record moves the subscription watermark only after the
// catch-up heartbeat: until then the stream may be mid-catch-up, and a
// drop there must not make the reconnect skip communities whose states
// never arrived, and a record the copy here missed a state for
// resets it to the start.
func (f *Follower) stream() *applier {
	return &applier{
		owner: f.owner,
		keep: func(id string) bool {
			c, ok := f.owner.Get(id)
			return !ok || c.Fenced()
		},
		passed: func(seq uint64, rec service.Record) {
			missed := f.missed(seq, rec)
			f.mu.Lock()
			if missed && f.resynced[rec.ID] != rec.Space {
				f.resynced[rec.ID], f.resync, f.applied = rec.Space, true, 0
				if f.logf != nil {
					f.logf("cluster: follower of %s: %q at seq %d is in space %+v, ahead of the copy here; catching up from the start", f.addr, rec.ID, seq, rec.Space)
				}
			}
			if f.caughtUp && !f.resync {
				f.applied = max(f.applied, seq)
			}
			f.mu.Unlock()
		},
	}
}

// missed reports whether rec, streamed at seq, is an edit or delete in a
// space ahead of this node's fenced copy of its community. The copy then
// lacks the state that space started from, whose install and takeover
// records went by while the copy was owned here, as a double
// self-promotion's loser's was, so no later record of the space applies
// to it. A catch-up from the start sends that state or those records.
func (f *Follower) missed(seq uint64, rec service.Record) bool {
	switch rec.Op {
	case service.OpCreate, service.OpInstall, service.OpTakeover:
		return false
	}
	c, ok := f.owner.Get(rec.ID)
	return ok && c.Fenced() && rec.Space != c.Space() && service.Ahead(rec.Space, seq, c.Space(), c.Seq())
}

// setConnected marks a subscription live or ended; either way it starts
// with catch-up.
func (f *Follower) setConnected(v bool) {
	f.mu.Lock()
	f.connected, f.caughtUp, f.resync = v, false, false
	f.mu.Unlock()
}

// heartbeat records the owner's watermark and reports whether the
// subscription goes on, which it does unless a resync is due. The owner
// only heartbeats sequences it has already streamed to this subscriber,
// the first one marking catch-up complete, so the stream has delivered
// everything at or below seq: advancing past skipped records is safe.
func (f *Follower) heartbeat(seq uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.resync {
		return false
	}
	f.caughtUp = true
	f.applied = max(f.applied, seq)
	return true
}
