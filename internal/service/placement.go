package service

import (
	"fmt"
	"sort"
	"strings"
)

// Placement is the epoch-versioned placement table — the single source of
// truth for which node owns which community. It carries the cluster
// membership the consistent-hash ring is derived from plus explicit
// per-community assignments that take precedence over the ring (the
// residue of handoffs and promotions). Communities absent from Assign are
// placed by hashing over Nodes, so a fresh table with an empty Assign map
// reproduces pure ring placement.
//
// Tables are totally ordered: a higher Epoch always wins, and between two
// tables at the same epoch (a double self-promotion race) the one with the
// lexicographically smaller fingerprint wins, so every node converges on
// the same table without coordination.
type Placement struct {
	Epoch  uint64            `json:"epoch"`
	Nodes  []Node            `json:"nodes"`
	Assign map[string]string `json:"assign,omitempty"` // community id → node id
}

// Clone returns a deep copy safe to mutate.
func (p Placement) Clone() Placement {
	out := Placement{Epoch: p.Epoch, Nodes: append([]Node(nil), p.Nodes...)}
	if p.Assign != nil {
		out.Assign = make(map[string]string, len(p.Assign))
		for k, v := range p.Assign {
			out.Assign[k] = v
		}
	}
	return out
}

// Addr returns the base URL of a member node.
func (p Placement) Addr(node string) (string, bool) {
	for _, n := range p.Nodes {
		if n.ID == node {
			return n.Addr, true
		}
	}
	return "", false
}

// Validate checks structural invariants: at least one node, unique
// non-empty node ids, and assignments that point at members.
func (p Placement) Validate() error {
	if len(p.Nodes) == 0 {
		return fmt.Errorf("service: placement epoch %d lists no nodes", p.Epoch)
	}
	members := make(map[string]bool, len(p.Nodes))
	for i, n := range p.Nodes {
		if n.ID == "" {
			return fmt.Errorf("service: placement epoch %d: node %d has an empty id", p.Epoch, i)
		}
		if members[n.ID] {
			return fmt.Errorf("service: placement epoch %d: duplicate node id %q", p.Epoch, n.ID)
		}
		members[n.ID] = true
	}
	for c, n := range p.Assign {
		if !members[n] {
			return fmt.Errorf("service: placement epoch %d assigns %q to non-member %q", p.Epoch, c, n)
		}
	}
	return nil
}

// Fingerprint is a canonical rendering of the table's content (membership
// and assignments, not the epoch) used to break same-epoch ties
// deterministically and to recognize an already-installed table.
func (p Placement) Fingerprint() string {
	var b strings.Builder
	ids := make([]string, 0, len(p.Nodes))
	for _, n := range p.Nodes {
		ids = append(ids, n.ID+"="+n.Addr)
	}
	sort.Strings(ids)
	b.WriteString(strings.Join(ids, ","))
	b.WriteByte('|')
	keys := make([]string, 0, len(p.Assign))
	for k := range p.Assign {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('>')
		b.WriteString(p.Assign[k])
		b.WriteByte(';')
	}
	return b.String()
}

// Supersedes reports whether p should replace cur: strictly higher epoch,
// or — for concurrently published tables at the same epoch — the smaller
// fingerprint. Equal epoch and equal fingerprint means the table is
// already current.
func (p Placement) Supersedes(cur Placement) bool {
	if p.Epoch != cur.Epoch {
		return p.Epoch > cur.Epoch
	}
	pf, cf := p.Fingerprint(), cur.Fingerprint()
	return pf != cf && pf < cf
}
