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
	connected bool
	caughtUp  bool // the subscription's catch-up heartbeat has arrived
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
	return f.stream().receive(resp.Body, func(seq uint64) bool {
		f.heartbeat(seq)
		return true
	})
}

// stream is the applier of one subscription. It keeps the communities
// Accept admits, except one this node owns unfenced (promoted, or taken
// over), which a stale stream must never overwrite. A streamed record
// moves the subscription watermark only after the catch-up heartbeat:
// until then the stream may be mid-snapshot-phase, and a drop there must
// not make the reconnect skip communities whose snapshots never arrived.
func (f *Follower) stream() *applier {
	return &applier{
		owner: f.owner,
		keep: func(id string) bool {
			if f.accept != nil && !f.accept(id) {
				return false
			}
			c, ok := f.owner.Get(id)
			return !ok || c.Fenced()
		},
		passed: func(seq uint64) {
			f.mu.Lock()
			if f.caughtUp {
				f.applied = max(f.applied, seq)
			}
			f.mu.Unlock()
		},
	}
}

// setConnected marks a subscription live or ended; either way it starts
// with catch-up.
func (f *Follower) setConnected(v bool) {
	f.mu.Lock()
	f.connected, f.caughtUp = v, false
	f.mu.Unlock()
}

// heartbeat records the owner's watermark. The owner only heartbeats
// sequences it has already streamed to this subscriber, the first one
// marking catch-up complete, so the stream has delivered everything at or
// below seq: advancing past skipped or filtered records is safe.
func (f *Follower) heartbeat(seq uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.caughtUp = true
	f.applied = max(f.applied, seq)
}
