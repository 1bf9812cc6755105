package service

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
)

// Node is one cluster member of a topology: its stable id (the consistent
// hash input) and the base URL peers reach its HTTP API at, which also
// serves its replication stream.
type Node struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// Topology is the static cluster description of a nodes.json file.
type Topology struct {
	Nodes []Node `json:"nodes"`
}

// LoadTopology reads a nodes.json topology file.
func LoadTopology(path string) (Topology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Topology{}, fmt.Errorf("service: topology: %w", err)
	}
	var t Topology
	if err := json.Unmarshal(data, &t); err != nil {
		return Topology{}, fmt.Errorf("service: topology %s: %w", path, err)
	}
	if len(t.Nodes) == 0 {
		return Topology{}, fmt.Errorf("service: topology %s lists no nodes", path)
	}
	return t, nil
}

// DefaultVNodes is the virtual nodes each member contributes to the hash
// ring. 64 points per node keeps the expected placement imbalance of a
// small cluster within a few percent while the ring stays tiny.
const DefaultVNodes = 64

// Router is the placement surface of the cluster. It serves an
// epoch-versioned Placement table: cluster membership (from which the
// consistent-hash ring is derived) plus explicit per-community assignments
// that take precedence over the ring. Placement is a pure function of the
// installed table — every process holding the same table computes the same
// owner for every community, across restarts, with no coordination.
//
// After NewRouter, every table change goes through SetPlacement (higher
// epoch wins; same-epoch ties break on the canonical fingerprint), so
// concurrent publishers — two replicas self-promoting after an owner death,
// an operator rebalance racing a failover — converge deterministically, and
// OnChange watchers see every install before its installer returns.
//
// Daemons embed a Router to decide whether to serve, forward, or refuse;
// clients (holidayctl, the benchmark cluster driver) embed one with an
// empty Self to route requests themselves. Safe for concurrent use.
type Router struct {
	self string

	mu       sync.RWMutex
	p        Placement // current table; p.Nodes sorted by id
	ring     []ringPoint
	watchers []func(Placement)
}

// ringPoint is one virtual node on the hash ring.
type ringPoint struct {
	hash uint64
	node string
}

// RouterOpts configures NewRouter.
type RouterOpts struct {
	// Self is this process's node id — empty for client-side routers that
	// only resolve placement. When set it must name a topology node.
	Self string
	// Nodes are the cluster members; at least one, ids unique.
	Nodes []Node
	// Epoch is the initial table's epoch; 0 for a fresh boot (any published
	// table supersedes it).
	Epoch uint64
}

// NewRouter builds a router over the given members.
func NewRouter(o RouterOpts) (*Router, error) {
	p := Placement{
		Epoch:  o.Epoch,
		Nodes:  append([]Node(nil), o.Nodes...),
		Assign: make(map[string]string),
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sort.Slice(p.Nodes, func(i, j int) bool { return p.Nodes[i].ID < p.Nodes[j].ID })
	rt := &Router{self: o.Self, p: p}
	if _, ok := rt.Addr(o.Self); o.Self != "" && !ok {
		return nil, fmt.Errorf("service: router self %q is not in the topology", o.Self)
	}
	rt.ring = buildRing(nil, p.Nodes)
	return rt, nil
}

// RouterFor returns a client-side router (empty Self) serving exactly the
// given table — how tooling evaluates a table's placement without joining
// the cluster.
func RouterFor(p Placement) (*Router, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rt, err := NewRouter(RouterOpts{Nodes: p.Nodes, Epoch: p.Epoch})
	if err != nil {
		return nil, err
	}
	for c, n := range p.Assign {
		rt.p.Assign[c] = n
	}
	return rt, nil
}

// buildRing computes the vnode ring for a member list, DefaultVNodes points
// per member, reusing dst's backing array when possible.
func buildRing(dst []ringPoint, nodes []Node) []ringPoint {
	dst = dst[:0]
	for _, n := range nodes {
		h := fnvString(fnvOffset64, n.ID)
		h = fnvByte(h, '#')
		for i := 0; i < DefaultVNodes; i++ {
			dst = append(dst, ringPoint{hash: mix64(fnvString(h, strconv.Itoa(i))), node: n.ID})
		}
	}
	sort.Slice(dst, func(i, j int) bool {
		if dst[i].hash != dst[j].hash {
			return dst[i].hash < dst[j].hash
		}
		// Hash ties (vanishingly rare) break by node id so placement stays
		// deterministic regardless of member insertion order.
		return dst[i].node < dst[j].node
	})
	return dst
}

// FNV-1a, inlined so ring rebuilds and lookups never allocate a hasher.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// mix64 is the murmur3 finalizer. Raw FNV-1a hashes of strings sharing a
// prefix and differing only in a short suffix ("a#0" … "a#63", or
// "community-1" … "community-9") land numerically close together — the
// suffix bytes get too few multiplies to diffuse — which clumps vnodes on
// the ring and wrecks placement balance. The finalizer's avalanche
// decorrelates them.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Self returns this process's node id ("" for client-side routers).
func (rt *Router) Self() string { return rt.self }

// Nodes returns the members, sorted by id.
func (rt *Router) Nodes() []Node {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return append([]Node(nil), rt.p.Nodes...)
}

// Epoch returns the installed table's epoch.
func (rt *Router) Epoch() uint64 {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.p.Epoch
}

// Placement returns a copy of the installed table.
func (rt *Router) Placement() Placement {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.p.Clone()
}

// SetPlacement installs a table if it supersedes the current one (higher
// epoch, or same epoch with a winning fingerprint). It returns whether the
// table was installed; an equal table reports false with no error, so
// republication is idempotent. Watchers registered with OnChange observe
// every install.
func (rt *Router) SetPlacement(p Placement) (bool, error) {
	if err := p.Validate(); err != nil {
		return false, err
	}
	p = p.Clone()
	sort.Slice(p.Nodes, func(i, j int) bool { return p.Nodes[i].ID < p.Nodes[j].ID })
	if p.Assign == nil {
		p.Assign = make(map[string]string)
	}
	rt.mu.Lock()
	if !p.Supersedes(rt.p) {
		rt.mu.Unlock()
		return false, nil
	}
	rt.p = p
	rt.ring = buildRing(rt.ring, p.Nodes)
	watchers := append([]func(Placement){}, rt.watchers...)
	snap := p.Clone()
	rt.mu.Unlock()
	for _, w := range watchers {
		w(snap)
	}
	return true, nil
}

// OnChange registers a watcher called (outside the router's lock, with a
// private copy of the table) after every successful SetPlacement install.
func (rt *Router) OnChange(fn func(Placement)) {
	rt.mu.Lock()
	rt.watchers = append(rt.watchers, fn)
	rt.mu.Unlock()
}

// Place returns the node id owning a community: its table assignment if
// one exists, otherwise the first ring point at or after the community's
// hash.
func (rt *Router) Place(community string) string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if n, ok := rt.p.Assign[community]; ok {
		return n
	}
	h := mix64(fnvString(fnvOffset64, community))
	i := sort.Search(len(rt.ring), func(i int) bool { return rt.ring[i].hash >= h })
	if i == len(rt.ring) {
		i = 0
	}
	return rt.ring[i].node
}

// IsLocal reports whether a community is placed on this node.
func (rt *Router) IsLocal(community string) bool { return rt.Place(community) == rt.self }

// Addr returns the base URL of a member node.
func (rt *Router) Addr(node string) (string, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.p.Addr(node)
}

// Overrides returns a copy of the explicit assignments of the current
// table (the entries that shadow ring placement).
func (rt *Router) Overrides() map[string]string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make(map[string]string, len(rt.p.Assign))
	for k, v := range rt.p.Assign {
		out[k] = v
	}
	return out
}
