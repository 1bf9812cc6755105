package benchkit

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

// ClusterDriver drives a sharded holidayd cluster: writes route client-side
// to each community's placed owner (the same consistent-hash function the
// daemons compute, so no request pays a server-side forward hop) and reads
// fan out round-robin across every member — replicas serve window and next
// queries from their fenced copies, which is the read-scaling story the
// BENCH_<rev>_cluster.json snapshots record.
type ClusterDriver struct {
	nodes  []*HTTPDriver // index-aligned with router node order
	ids    []string      // node ids, index-aligned with nodes
	router *service.Router
	reads  atomic.Uint64

	// Proto selects the wire protocol for window/next queries, as on
	// HTTPDriver.
	Proto string

	// Rotation state: mid-run live handoffs, the write pauses they cost,
	// and one move per scenario community (moves' done channels are
	// guarded by rotMu).
	rotMu  sync.Mutex
	rotIdx int
	pauses []time.Duration
	moves  []move
}

// move is Rotate's record of one community: gen counts the moves of it
// begun and ended, so it is odd while one runs, and done is closed when
// the latest one has ended.
type move struct {
	gen  atomic.Uint64
	done chan struct{}
}

// NewClusterDriver builds a driver over a cluster topology. Every member
// gets its own connection pool sized for workers concurrent streams.
func NewClusterDriver(topo service.Topology, workers int) (*ClusterDriver, error) {
	router, err := service.NewRouter(service.RouterOpts{Nodes: topo.Nodes})
	if err != nil {
		return nil, err
	}
	d := &ClusterDriver{router: router}
	for _, n := range router.Nodes() {
		d.nodes = append(d.nodes, NewHTTPDriver(n.Addr, workers))
		d.ids = append(d.ids, n.ID)
	}
	return d, nil
}

// Target implements Driver.
func (d *ClusterDriver) Target() Target {
	return Target{Driver: "cluster", Proto: protoTag(d.Proto), Nodes: len(d.nodes)}
}

// placedIdx is the index of the node the driver's table places a
// community on.
func (d *ClusterDriver) placedIdx(community string) int {
	return max(0, slices.Index(d.ids, d.router.Place(community)))
}

// Setup implements Driver: communities are created through their placed
// owner directly. Every member driver shares the id list so any of them
// can serve reads for any community.
func (d *ClusterDriver) Setup(sc *Scenario, seed uint64) ([]int, error) {
	// Partition the scenario by placement and let each owner's HTTPDriver
	// create its own shard; then give every node driver the full id list
	// (Setup only appended its own).
	byNode := make([]Scenario, len(d.nodes))
	for _, cs := range sc.Communities {
		i := d.placedIdx(cs.ID)
		byNode[i].Communities = append(byNode[i].Communities, cs)
	}
	sizeByID := make(map[string]int, len(sc.Communities))
	for i := range d.nodes {
		d.nodes[i].Proto = d.Proto
		if len(byNode[i].Communities) == 0 {
			continue
		}
		// Seed must match the single-node run per community index in sc,
		// not per shard, or op streams would target different graphs:
		// create one community at a time with its scenario-global seed.
		for _, cs := range byNode[i].Communities {
			idx := indexOf(sc, cs.ID)
			one := Scenario{Communities: []CommunitySpec{cs}}
			sizes, err := d.nodes[i].Setup(&one, seed+uint64(idx))
			if err != nil {
				return nil, err
			}
			sizeByID[cs.ID] = sizes[0]
		}
	}
	ids := make([]string, len(sc.Communities))
	sizes := make([]int, len(sc.Communities))
	for i, cs := range sc.Communities {
		ids[i] = cs.ID
		sizes[i] = sizeByID[cs.ID]
	}
	for i := range d.nodes {
		d.nodes[i].ids = ids
	}
	// holidayload sets up twice and rotates from before the second call: a
	// move in flight keeps its record.
	if len(d.moves) != len(ids) {
		d.moves = make([]move, len(ids))
	}
	return sizes, nil
}

// indexOf finds a community's index in the scenario.
func indexOf(sc *Scenario, id string) int {
	for i, cs := range sc.Communities {
		if cs.ID == id {
			return i
		}
	}
	return 0
}

// Do implements Driver: writes go to the owner, reads round-robin across
// the whole membership. A write one of Rotate's moves refused is re-sent
// once (movedUnder).
func (d *ClusterDriver) Do(op Op) error {
	gen := d.moveGen(op)
	err := d.nodes[d.pick(op)].Do(op)
	if d.movedUnder(op, gen, err) {
		err = d.nodes[d.pick(op)].Do(op)
	}
	return err
}

// pick routes one op to a node index.
func (d *ClusterDriver) pick(op Op) int {
	if isRead(op) {
		return int(d.reads.Add(1) % uint64(len(d.nodes)))
	}
	return d.placedIdx(d.nodes[0].ids[op.Community])
}

func isRead(op Op) bool { return op.Kind == OpWindow || op.Kind == OpNext }

// moveGen reads the move generation of a write's community before it is
// sent.
func (d *ClusterDriver) moveGen(op Op) uint64 {
	if isRead(op) {
		return 0
	}
	return d.moves[op.Community].gen.Load()
}

// movedUnder reports whether err is a not_owner refusal of a write sent at
// move generation gen that one of Rotate's moves of its community caused:
// one running when the write was sent, or begun before its answer. Such a
// refusal comes from the old owner's fenced window, so movedUnder waits
// for the move to end, by which time Rotate has re-learned the table and
// pick names the new owner, and the caller re-sends the write there once,
// as errcode.go tells clients to. Every other failure still counts, a
// second refusal and a not_owner outside a move included.
func (d *ClusterDriver) movedUnder(op Op, gen uint64, err error) bool {
	var se *service.Error
	if isRead(op) || !errors.As(err, &se) || se.Code != service.CodeNotOwner {
		return false
	}
	m := &d.moves[op.Community]
	if gen%2 == 0 && m.gen.Load() == gen {
		return false
	}
	d.rotMu.Lock()
	done := m.done
	d.rotMu.Unlock()
	<-done
	return true
}

// DoBatch implements Driver: ops are grouped per target node and each
// group goes out as one (or a few) batched requests on that node. Writes
// one of Rotate's moves refused are re-sent once each, as Do re-sends.
func (d *ClusterDriver) DoBatch(ops []Op, errs []error) error {
	if len(d.nodes) == 1 {
		return d.nodes[0].DoBatch(ops, errs)
	}
	gens := make([]uint64, len(ops))
	for i, op := range ops {
		gens[i] = d.moveGen(op)
	}
	groups := make([][]int, len(d.nodes))
	for i, op := range ops {
		n := d.pick(op)
		groups[n] = append(groups[n], i)
	}
	var firstErr error
	for n, idx := range groups {
		if len(idx) == 0 {
			continue
		}
		sub := make([]Op, len(idx))
		subErrs := make([]error, len(idx))
		for j, i := range idx {
			sub[j] = ops[i]
		}
		if err := d.nodes[n].DoBatch(sub, subErrs); err != nil && firstErr == nil {
			firstErr = err
		}
		for j, i := range idx {
			errs[i] = subErrs[j]
		}
	}
	for i, op := range ops {
		if d.movedUnder(op, gens[i], errs[i]) {
			errs[i] = d.nodes[d.pick(op)].Do(op)
		}
	}
	return firstErr
}

// Stats implements Driver. Cache counters are summed over every member's
// local copies, owner or replica, because replicas serve reads; repairs and
// poly totals come from each community's owner only, because its replicas
// replay the same edits.
func (d *ClusterDriver) Stats() (Stats, error) {
	var s Stats
	for _, n := range d.nodes {
		if err := n.addLocalStats(&s); err != nil {
			return Stats{}, err
		}
	}
	return s, nil
}

// Rotate performs one live community handoff while the workload runs: the
// next community in round-robin order moves from its current owner to the
// next member in id order, via the same /v1/handoff path holidayctl uses.
// The driver's client-side router re-learns the published table, so writes
// follow the community to its new owner, and only then does the move end
// for the writes its fenced window refused (movedUnder); the write pause
// the move cost is recorded for the snapshot's handoff_pause_p99_us. Calls
// must not overlap.
func (d *ClusterDriver) Rotate(ctx context.Context) error {
	if len(d.nodes) < 2 {
		return fmt.Errorf("benchkit: rotation needs at least two nodes")
	}
	ids := d.nodes[0].ids
	if len(ids) == 0 {
		return fmt.Errorf("benchkit: rotation before Setup")
	}
	d.rotMu.Lock()
	ci := d.rotIdx % len(ids)
	d.rotIdx++
	m := &d.moves[ci]
	done := make(chan struct{})
	m.done = done
	d.rotMu.Unlock()
	m.gen.Add(1)
	defer func() {
		m.gen.Add(1)
		close(done)
	}()

	community := ids[ci]
	fromIdx := d.placedIdx(community)
	from, to := d.ids[fromIdx], d.ids[(fromIdx+1)%len(d.ids)]

	mv, err := cluster.MoveCommunity(ctx, d.nodes[fromIdx].base, community, to)
	if err != nil {
		return fmt.Errorf("benchkit: rotate %q %s→%s: %w", community, from, to, err)
	}
	// Re-learn the table from the old owner (the handoff installed it on
	// both ends) so writes route to the new owner.
	p, err := d.nodes[fromIdx].ctl.Placement(ctx, d.nodes[fromIdx].base)
	if err != nil {
		return fmt.Errorf("benchkit: rotate %q: refresh table: %w", community, err)
	}
	d.router.SetPlacement(p)

	d.rotMu.Lock()
	d.pauses = append(d.pauses, mv.Pause)
	d.rotMu.Unlock()
	return nil
}

// HandoffPauses returns the write pauses recorded by Rotate so far.
func (d *ClusterDriver) HandoffPauses() []time.Duration {
	d.rotMu.Lock()
	defer d.rotMu.Unlock()
	return append([]time.Duration(nil), d.pauses...)
}

// PauseP99 reports the nearest-rank 99th-percentile pause in microseconds
// (0 for an empty set) — the snapshot's handoff_pause_p99_us.
func PauseP99(pauses []time.Duration) float64 {
	if len(pauses) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), pauses...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (99*len(sorted)+99)/100 - 1
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Microsecond)
}

// VerifyReadYourWrites checks the replication contract the cluster bench
// relies on: a write acknowledged by a community's owner (with its journal
// sequence) becomes visible on every replica — same sequence, then
// byte-identical window — within the deadline.
func (d *ClusterDriver) VerifyReadYourWrites(community string, deadline time.Duration) error {
	ownerIdx := d.placedIdx(community)
	owner := d.nodes[ownerIdx]

	// One churn op through the owner; its response carries the journal
	// sequence the batch landed at.
	body := `[{"op":"marry","u":0,"v":1},{"op":"divorce","u":0,"v":1}]`
	resp, err := owner.client.Post(owner.base+"/v1/communities/"+url.PathEscape(community)+"/churn",
		"application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	var ack struct {
		Seq uint64 `json:"seq"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("benchkit: churn ack: %w", err)
	}
	if ack.Seq == 0 {
		return fmt.Errorf("benchkit: owner acked churn without a sequence")
	}

	want, err := owner.fetchWindow(community, 1, 60)
	if err != nil {
		return err
	}
	limit := time.Now().Add(deadline)
	for i, n := range d.nodes {
		if i == ownerIdx {
			continue
		}
		for {
			seq, err := n.communitySeq(community)
			if err == nil && seq >= ack.Seq {
				break
			}
			if time.Now().After(limit) {
				return fmt.Errorf("benchkit: node %s never reached seq %d for %q (last: %d, %v)",
					d.ids[i], ack.Seq, community, seq, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
		got, err := n.fetchWindow(community, 1, 60)
		if err != nil {
			return err
		}
		if string(got) != string(want) {
			return fmt.Errorf("benchkit: node %s window diverges from owner for %q", d.ids[i], community)
		}
	}
	return nil
}

// Close implements Driver: communities are deleted once, via their owners.
func (d *ClusterDriver) Close() error {
	var firstErr error
	for i := range d.nodes {
		// Restrict each node driver's Close to nothing (ids cleared) except
		// node 0, which deletes through forwarding.
		if i == 0 {
			if err := d.nodes[i].Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			continue
		}
		d.nodes[i].ids = nil
		if err := d.nodes[i].Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
