// Failure detection and operator-free failover: the Detector each daemon
// runs gossips the placement table with its peers, takes each answered
// pull as the peer's proof of life, and — when an owner it follows stays
// silent for its deadline — elects the most-caught-up replica of each
// orphaned community by publishing an epoch-bumped table. See DESIGN.md §12.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/service"
)

// DefaultDeadline is how long a member may leave this node's placement
// pulls unanswered before it is declared dead. Gossip pulls every third
// of it, so one slow answer never triggers an election.
const DefaultDeadline = 3 * time.Second

// DetectorOpts configures NewDetector.
type DetectorOpts struct {
	// Router is this node's placement surface (required).
	Router *service.Router
	// Owner is the local community store (required).
	Owner *service.Owner
	// Follows lists the owners this node replicates from. Only they are
	// failed over here: a copy no stream keeps current, such as the one a
	// handoff leaves fenced on its sender, may lack acknowledged writes.
	Follows []service.Node
	// Deadline is how long a followed owner may leave this node's placement
	// pulls unanswered before it is failed over; 0 means DefaultDeadline.
	Deadline time.Duration
	// Logf, when set, receives gossip/election diagnostics.
	Logf func(format string, args ...any)
}

// Detector is one node's failover plane. Run starts it; it needs no
// coordination service — every decision derives from the epoch-ordered
// placement table, which peers answer its pulls, and peer /v1/status answers.
type Detector struct {
	rt       *service.Router
	owner    *service.Owner
	follows  []service.Node
	deadline time.Duration
	logf     func(string, ...any)
	client   *service.Client

	// seen is each member's last proof of life: its last answered pull, or
	// the start of the round that armed it. Guarded by Run's goroutine.
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
		rt:       o.Router,
		owner:    o.Owner,
		follows:  o.Follows,
		deadline: o.Deadline,
		logf:     o.Logf,
		client:   service.NewClient(&http.Client{Timeout: 2 * time.Second}),
		seen:     make(map[string]time.Time),
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
	t := time.NewTicker(d.deadline / 3)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		start := time.Now()
		d.Gossip(ctx)
		d.detect(ctx, start)
	}
}

// Gossip runs one placement anti-entropy round: pull every peer's table,
// all at once (installing any that supersedes ours), then push ours to
// peers still behind. A rejoining node converges to the cluster's epoch
// within one round — which is also how a stale owner learns it has been
// failed over. An answered pull is the peer's proof of life, stamped with
// the time it answered. A member that hangs costs the round at most one
// client timeout, however many hang. Once Run has started, only its
// goroutine may call Gossip.
func (d *Detector) Gossip(ctx context.Context) {
	peers := others(d.rt.Nodes(), d.rt.Self(), "")
	pulls := ask(ctx, peers, d.client.Placement)
	for i, pull := range pulls {
		if pull.err != nil {
			continue
		}
		d.seen[peers[i].ID] = pull.at
		if installed, err := d.rt.SetPlacement(pull.v); err == nil && installed {
			d.debugf("cluster: adopted epoch %d from %s", pull.v.Epoch, peers[i].ID)
		}
	}
	cur := d.rt.Placement()
	var behind []service.Node
	for i, pull := range pulls {
		if pull.err == nil && pull.v.Epoch < cur.Epoch {
			behind = append(behind, peers[i])
		}
	}
	// Best effort: a peer that misses the push pulls next round.
	ask(ctx, behind, func(ctx context.Context, addr string) (service.OfferResponse, error) {
		return d.client.Offer(ctx, addr, cur)
	})
}

// reply is one member's answer to ask, and when it came.
type reply[T any] struct {
	v   T
	err error
	at  time.Time
}

// ask calls get with every node's address at once, one goroutine each,
// and returns their replies in nodes' order once all have come.
func ask[T any](ctx context.Context, nodes []service.Node, get func(context.Context, string) (T, error)) []reply[T] {
	out := make([]reply[T], len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i].v, out[i].err = get(ctx, n.Addr)
			out[i].at = time.Now()
		}()
	}
	wg.Wait()
	return out
}

// others returns the members with an address but self and dead.
func others(nodes []service.Node, self, dead string) []service.Node {
	var out []service.Node
	for _, n := range nodes {
		if n.ID != self && n.ID != dead && n.Addr != "" {
			out = append(out, n)
		}
	}
	return out
}

// detect runs an election for every followed owner that answered no
// placement pull in the deadline before start, when this round's gossip
// began. Silence is measured to the round's start, not to now: a pull that
// times out delays the rest of the round, and an owner that answered in it
// must not look silent. An owner not seen before gets the whole deadline.
func (d *Detector) detect(ctx context.Context, start time.Time) {
	for _, n := range d.follows {
		seen, ok := d.seen[n.ID]
		if !ok {
			d.seen[n.ID] = start
		} else if start.Sub(seen) >= d.deadline {
			d.failover(ctx, n.ID)
		}
	}
}

// failover elects a new owner for every community the dead node held, by
// publishing a table (epoch+1) that assigns each to its most-caught-up
// replica — the copy ahead by (space, seq) (service.Ahead) across the
// surviving peers' status answers, read all at once, the smaller node id
// where neither copy is ahead. Every survivor detecting the death runs
// the same election; identical data yields identical tables (idempotent
// republication), and divergent ones converge by fingerprint order, the
// loser refencing through its table watcher.
func (d *Detector) failover(ctx context.Context, dead string) {
	cur := d.rt.Placement()
	type bid struct {
		space service.Space
		seq   uint64
		node  string
	}
	orphans := map[string]bid{} // community → the best copy seen so far
	self := d.rt.Self()
	for _, id := range d.owner.List() {
		if d.rt.Place(id) != dead {
			continue
		}
		c, ok := d.owner.Get(id)
		if !ok {
			continue
		}
		orphans[id] = bid{c.Space(), c.Seq(), self}
	}
	if len(orphans) == 0 {
		return
	}
	// Let surviving peers outbid us per community.
	peers := others(cur.Nodes, self, dead)
	for i, st := range ask(ctx, peers, d.client.Status) {
		if st.err != nil {
			continue
		}
		for _, cs := range st.v.Communities {
			best, ok := orphans[cs.ID]
			if ok && (service.Ahead(cs.Space, cs.Seq, best.space, best.seq) ||
				(!service.Ahead(best.space, best.seq, cs.Space, cs.Seq) && peers[i].ID < best.node)) {
				orphans[cs.ID] = bid{cs.Space, cs.Seq, peers[i].ID}
			}
		}
	}
	p := cur.Clone()
	p.Epoch++
	if p.Assign == nil {
		p.Assign = make(map[string]string)
	}
	ids := make([]string, 0, len(orphans))
	for id := range orphans {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		p.Assign[id] = orphans[id].node
		d.debugf("cluster: failover: %s → %s at seq %d (epoch %d)", id, orphans[id].node, orphans[id].seq, p.Epoch)
	}
	installed, err := d.rt.SetPlacement(p)
	if err != nil || !installed {
		return // a competing table (ours or newer) won; conform to it
	}
	delete(d.seen, dead) // don't re-elect every tick while it stays down
	// Best effort: gossip carries the table to peers that miss it.
	ask(ctx, peers, func(ctx context.Context, addr string) (service.OfferResponse, error) {
		return d.client.Offer(ctx, addr, p)
	})
}
