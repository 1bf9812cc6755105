// Failure detection and operator-free failover: the Detector each daemon
// runs gossips the placement table with its peers, watches the heartbeat
// watermark of every owner it follows, and — when an owner misses its
// deadline and fails a liveness probe — elects the most-caught-up replica
// of each orphaned community by publishing an epoch-bumped table. See
// DESIGN.md §12.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/service"
)

// DefaultDeadline is the missed-heartbeat deadline before an owner is
// suspected dead: six source heartbeat intervals, so a single delayed
// frame never triggers an election.
const DefaultDeadline = 6 * DefaultHeartbeat

// DetectorOpts configures NewDetector.
type DetectorOpts struct {
	// Router is this node's placement surface (required).
	Router *service.Router
	// Owner is the local community store (required).
	Owner *service.Owner
	// Followers maps followed node id → the follower replicating from it.
	// Nodes without an entry are gossiped with but never declared dead here.
	Followers map[string]*Follower
	// Deadline is how long an owner may miss heartbeats before this node
	// probes it and, on failure, runs an election; 0 means DefaultDeadline.
	Deadline time.Duration
	// Logf, when set, receives gossip/election diagnostics.
	Logf func(format string, args ...any)
}

// Detector is one node's failover plane. Run starts it; it needs no
// coordination service — every decision derives from the epoch-ordered
// placement table, peer /v1/status answers, and replication watermarks.
type Detector struct {
	rt        *service.Router
	owner     *service.Owner
	followers map[string]*Follower
	deadline  time.Duration
	logf      func(string, ...any)
	client    *service.Client

	// seen is the last proof of life per followed node: Run start, then
	// each heartbeat arrival. Guarded by Run's single goroutine.
	seen map[string]time.Time
}

// NewDetector returns a detector; call Run to start it.
func NewDetector(o DetectorOpts) (*Detector, error) {
	if o.Router == nil || o.Owner == nil {
		return nil, fmt.Errorf("cluster: NewDetector requires a Router and an Owner")
	}
	if o.Deadline <= 0 {
		o.Deadline = DefaultDeadline
	}
	return &Detector{
		rt:        o.Router,
		owner:     o.Owner,
		followers: o.Followers,
		deadline:  o.Deadline,
		logf:      o.Logf,
		client:    service.NewClient(&http.Client{Timeout: 2 * time.Second}),
		seen:      make(map[string]time.Time),
	}, nil
}

func (d *Detector) debugf(format string, args ...any) {
	if d.logf != nil {
		d.logf(format, args...)
	}
}

// Run gossips and detects three times per deadline until ctx is cancelled.
// It blocks; run it in a goroutine.
func (d *Detector) Run(ctx context.Context) {
	now := time.Now()
	for n := range d.followers {
		d.seen[n] = now
	}
	t := time.NewTicker(d.deadline / 3)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		d.Gossip(ctx)
		d.detect(ctx)
	}
}

// Gossip runs one placement anti-entropy round: pull every peer's table
// (installing any that supersedes ours), then push ours to peers still
// behind. A rejoining node converges to the cluster's epoch within one
// round — which is also how a stale owner learns it has been failed over.
func (d *Detector) Gossip(ctx context.Context) {
	self := d.rt.Self()
	for _, n := range d.rt.Nodes() {
		if n.ID == self || n.Addr == "" {
			continue
		}
		p, err := d.client.Placement(ctx, n.Addr)
		if err != nil {
			continue
		}
		if installed, err := d.rt.SetPlacement(p); err == nil && installed {
			d.debugf("cluster: adopted epoch %d from %s", p.Epoch, n.ID)
		}
		if cur := d.rt.Placement(); cur.Epoch > p.Epoch {
			// Best effort: a peer that misses the push pulls next round.
			_, _ = d.client.Offer(ctx, n.Addr, cur)
		}
	}
}

// detect checks every followed owner's heartbeat watermark and runs an
// election for those past the deadline that also fail a liveness probe.
func (d *Detector) detect(ctx context.Context) {
	for node, f := range d.followers {
		if hb := f.LastHeartbeat(); hb.After(d.seen[node]) {
			d.seen[node] = hb
		}
		if time.Since(d.seen[node]) < d.deadline {
			continue
		}
		if addr, ok := d.rt.Addr(node); ok && d.client.Healthy(ctx, addr) == nil {
			// Replication is stalled but the node answers HTTP: not a death,
			// not ours to fail over.
			d.seen[node] = time.Now()
			continue
		}
		d.failover(ctx, node)
	}
}

// failover elects a new owner for every community the dead node held, by
// publishing a table (epoch+1) that assigns each to its most-caught-up
// replica — highest applied sequence across the surviving peers' status
// answers, node id breaking ties. Every survivor detecting the death runs
// the same election; identical data yields identical tables (idempotent
// republication), and divergent ones converge by fingerprint order, the
// loser refencing through its table watcher.
func (d *Detector) failover(ctx context.Context, dead string) {
	cur := d.rt.Placement()
	orphans := map[string]uint64{} // community → best seq seen so far
	winner := map[string]string{}  // community → node holding it
	self := d.rt.Self()
	for _, id := range d.owner.List() {
		if d.rt.Place(id) != dead {
			continue
		}
		c, ok := d.owner.Get(id)
		if !ok {
			continue
		}
		orphans[id] = c.Seq()
		winner[id] = self
	}
	if len(orphans) == 0 {
		return
	}
	// Let surviving peers outbid us per community.
	for _, n := range cur.Nodes {
		if n.ID == self || n.ID == dead || n.Addr == "" {
			continue
		}
		st, err := d.client.Status(ctx, n.Addr)
		if err != nil {
			continue
		}
		for _, cs := range st.Communities {
			best, ok := orphans[cs.ID]
			if !ok {
				continue
			}
			if cs.Seq > best || (cs.Seq == best && n.ID < winner[cs.ID]) {
				orphans[cs.ID] = cs.Seq
				winner[cs.ID] = n.ID
			}
		}
	}
	p := cur.Clone()
	p.Epoch++
	if p.Assign == nil {
		p.Assign = make(map[string]string)
	}
	ids := make([]string, 0, len(winner))
	for id := range winner {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		p.Assign[id] = winner[id]
		d.debugf("cluster: failover: %s → %s at seq %d (epoch %d)", id, winner[id], orphans[id], p.Epoch)
	}
	installed, err := d.rt.SetPlacement(p)
	if err != nil || !installed {
		return // a competing table (ours or newer) won; conform to it
	}
	delete(d.seen, dead) // don't re-elect every tick while it stays down
	for _, n := range p.Nodes {
		if n.ID != self && n.ID != dead && n.Addr != "" {
			// Best effort: gossip carries the table to peers that miss it.
			_, _ = d.client.Offer(ctx, n.Addr, p)
		}
	}
}
