// Cluster rebalancing over the HTTP control plane: compute the target
// placement for a (possibly changed) membership, run one live handoff per
// moved community, and publish the final table. Shared by holidayctl
// (join, rebalance) and the benchmark driver (mid-run rotations).
package cluster

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/service"
)

// Move records one completed community handoff.
type Move struct {
	Community string        `json:"community"`
	From      string        `json:"from"`
	To        string        `json:"to"`
	CutSeq    uint64        `json:"cut_seq"`
	Pause     time.Duration `json:"-"`
	PauseUS   int64         `json:"pause_us"`
}

// control is the control-plane client of Rebalance and MoveCommunity. Its
// default timeout, service.DefaultClientTimeout, leaves room for handoffs,
// which stream a state before they answer.
var control = service.NewClient(nil)

// Rebalance moves the cluster reached through seedAddr onto the target
// membership: every community lands on its consistent-hash owner under the
// target node set, each move a live handoff, and the final table — every
// community explicitly assigned — is published to all members. It returns
// the moves performed and the table left in force.
//
// The epochs advance in three stages so no table ever strands a community:
// first a membership table that adds new nodes while pinning every
// community to its current owner (nothing moves when the ring changes),
// then one epoch per handoff, then — if nodes left — a shrunk membership
// table. Zero-move rebalances (a join with nothing hashing to the new
// node, or an already-balanced cluster) publish the membership tables and
// stop. logf, when not nil, hears each move.
func Rebalance(ctx context.Context, seedAddr string, target []service.Node, logf func(format string, args ...any)) ([]Move, service.Placement, error) {
	cur, err := control.Placement(ctx, seedAddr)
	if err != nil {
		return nil, service.Placement{}, fmt.Errorf("cluster: placement from %s: %w", seedAddr, err)
	}
	if len(target) == 0 {
		return nil, service.Placement{}, fmt.Errorf("cluster: rebalance: empty target membership")
	}

	// Owners as they stand, from every reachable member's status.
	owners, err := currentOwners(ctx, cur)
	if err != nil {
		return nil, service.Placement{}, err
	}

	// Stage 1: grow to the union membership, old and new nodes both present
	// while data moves, with every community pinned in place.
	p := cur.Clone()
	p.Epoch++
	for _, n := range target {
		if _, ok := p.Addr(n.ID); !ok {
			p.Nodes = append(p.Nodes, n)
		}
	}
	union := len(p.Nodes)
	if p.Assign == nil {
		p.Assign = make(map[string]string)
	}
	for id, node := range owners {
		p.Assign[id] = node
	}
	if err := publish(ctx, p); err != nil {
		return nil, service.Placement{}, err
	}

	// Stage 2: one live handoff per community the target ring places
	// elsewhere.
	targetRing, err := service.RouterFor(service.Placement{Epoch: p.Epoch, Nodes: target, Assign: map[string]string{}})
	if err != nil {
		return nil, service.Placement{}, err
	}
	ids := make([]string, 0, len(owners))
	for id := range owners {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var moves []Move
	for _, id := range ids {
		from, to := owners[id], targetRing.Place(id)
		if to == from {
			continue
		}
		next := p.Clone()
		next.Epoch++
		next.Assign[id] = to
		fromAddr, _ := p.Addr(from)
		if fromAddr == "" {
			return moves, p, fmt.Errorf("cluster: rebalance: owner %q of %q has no address", from, id)
		}
		mv, err := handoff(ctx, fromAddr, id, next)
		if err != nil {
			return moves, p, fmt.Errorf("cluster: rebalance: move %q %s→%s: %w", id, from, to, err)
		}
		mv.From = from
		if logf != nil {
			logf("cluster: moved %q %s→%s at epoch %d (pause %v)", id, from, to, next.Epoch, mv.Pause)
		}
		moves = append(moves, mv)
		p = next
		owners[id] = to
	}

	// Stage 3: shrink to the target membership if nodes left.
	if union != len(target) {
		p = p.Clone()
		p.Epoch++
		p.Nodes = append([]service.Node(nil), target...)
		if err := p.Validate(); err != nil {
			return moves, p, fmt.Errorf("cluster: rebalance: shrink: %w", err)
		}
	}
	if err := publish(ctx, p); err != nil {
		return moves, p, err
	}
	return moves, p, nil
}

// MoveCommunity hands one community from its current owner (reached at
// ownerAddr) to another member — the benchmark's rotation primitive. The
// published table is the owner's current one, epoch-bumped, with just this
// community reassigned.
func MoveCommunity(ctx context.Context, ownerAddr, community, to string) (Move, error) {
	cur, err := control.Placement(ctx, ownerAddr)
	if err != nil {
		return Move{}, fmt.Errorf("cluster: placement from %s: %w", ownerAddr, err)
	}
	p := cur.Clone()
	p.Epoch++
	if p.Assign == nil {
		p.Assign = make(map[string]string)
	}
	p.Assign[community] = to
	mv, err := handoff(ctx, ownerAddr, community, p)
	if err != nil {
		return Move{}, err
	}
	if rt, rerr := service.RouterFor(cur); rerr == nil {
		mv.From = rt.Place(community)
	}
	// Best-effort fan-out so followers of either side learn without waiting
	// for gossip; the handoff already installed it on both ends.
	for _, n := range p.Nodes {
		if n.Addr != "" {
			_, _ = control.Offer(ctx, n.Addr, p)
		}
	}
	return mv, nil
}

// currentOwners maps every community to the node currently owning it, by
// asking each member which communities it serves unfenced. A member that
// cannot answer fails the call: its communities would otherwise look
// ownerless and be re-placed by the ring without a handoff.
func currentOwners(ctx context.Context, p service.Placement) (map[string]string, error) {
	owners := make(map[string]string)
	for _, n := range p.Nodes {
		if n.Addr == "" {
			continue
		}
		st, err := control.Status(ctx, n.Addr)
		if err != nil {
			return nil, fmt.Errorf("cluster: status from %s: %w", n.ID, err)
		}
		for _, cs := range st.Communities {
			if cs.Role == "owner" {
				owners[cs.ID] = n.ID
			}
		}
	}
	return owners, nil
}

// handoff asks a community's owner to stream it to the node the table
// assigns it to.
func handoff(ctx context.Context, ownerAddr, community string, table service.Placement) (Move, error) {
	out, err := control.Handoff(ctx, ownerAddr, service.HandoffRequest{Community: community, Table: table})
	if err != nil {
		return Move{}, err
	}
	return Move{
		Community: community,
		To:        out.Node,
		CutSeq:    out.CutSeq,
		Pause:     time.Duration(out.PauseUS) * time.Microsecond,
		PauseUS:   out.PauseUS,
	}, nil
}

// publish posts a table to every addressable member; at least one install
// must succeed (gossip spreads it from there).
func publish(ctx context.Context, p service.Placement) error {
	okOne := false
	var lastErr error
	for _, n := range p.Nodes {
		if n.Addr == "" {
			continue
		}
		if _, err := control.Offer(ctx, n.Addr, p); err != nil {
			lastErr = err
			continue
		}
		okOne = true
	}
	if !okOne {
		return fmt.Errorf("cluster: publish epoch %d reached no member: %w", p.Epoch, lastErr)
	}
	return nil
}
