package service

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
)

func testNodes(ids ...string) []Node {
	ns := make([]Node, len(ids))
	for i, id := range ids {
		ns[i] = Node{ID: id, Addr: "http://" + id + ".example:8080"}
	}
	return ns
}

func mustRouter(t *testing.T, o RouterOpts) *Router {
	t.Helper()
	rt, err := NewRouter(o)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	return rt
}

func keys(n int) []string {
	ks := make([]string, n)
	for i := range ks {
		ks[i] = fmt.Sprintf("community-%d", i)
	}
	return ks
}

// TestRouterDeterministic: placement is a pure function of the member set —
// identical across construction order and across "restarts" (fresh routers).
func TestRouterDeterministic(t *testing.T) {
	a := mustRouter(t, RouterOpts{Nodes: testNodes("a", "b", "c")})
	b := mustRouter(t, RouterOpts{Nodes: testNodes("c", "a", "b")})
	c := mustRouter(t, RouterOpts{Nodes: testNodes("b", "c", "a")})
	for _, k := range keys(5000) {
		pa := a.Place(k)
		if pb := b.Place(k); pb != pa {
			t.Fatalf("placement differs by construction order: %q -> %s vs %s", k, pa, pb)
		}
		if pc := c.Place(k); pc != pa {
			t.Fatalf("placement differs across restart: %q -> %s vs %s", k, pa, pc)
		}
	}
}

// TestRouterBalance: no member owns a wildly disproportionate share.
func TestRouterBalance(t *testing.T) {
	rt := mustRouter(t, RouterOpts{Nodes: testNodes("a", "b", "c")})
	count := map[string]int{}
	ks := keys(30000)
	for _, k := range ks {
		count[rt.Place(k)]++
	}
	for id, n := range count {
		share := float64(n) / float64(len(ks))
		if share < 0.15 || share > 0.55 {
			t.Fatalf("node %s owns %.1f%% of keys; want roughly a third", id, 100*share)
		}
	}
}

// TestRouterMinimalMovement pins the consistent-hashing contract: a table
// that removes a member moves exactly the keys it owned, adding one moves
// only keys onto the new member, and the moved fraction stays near 1/n.
func TestRouterMinimalMovement(t *testing.T) {
	ks := keys(20000)
	full := mustRouter(t, RouterOpts{Nodes: testNodes("a", "b", "c", "d")})
	before := make(map[string]string, len(ks))
	for _, k := range ks {
		before[k] = full.Place(k)
	}

	// Removal: keys not owned by the removed node must not move.
	if ok, err := full.SetPlacement(Placement{Epoch: 1, Nodes: testNodes("a", "b", "d")}); err != nil || !ok {
		t.Fatalf("SetPlacement without c = %v, %v", ok, err)
	}
	for _, k := range ks {
		after := full.Place(k)
		if before[k] != "c" && after != before[k] {
			t.Fatalf("key %q moved %s -> %s though %s is still a member", k, before[k], after, before[k])
		}
		if before[k] == "c" && after == "c" {
			t.Fatalf("key %q still placed on removed node", k)
		}
	}

	// Addition: only keys that land on the new node may move, and the
	// expected share is 1/n — assert it stays under twice that.
	grown := mustRouter(t, RouterOpts{Nodes: testNodes("a", "b", "c", "d", "e")})
	moved := 0
	for _, k := range ks {
		after := grown.Place(k)
		if after != before[k] {
			if after != "e" {
				t.Fatalf("key %q moved %s -> %s, not to the new node", k, before[k], after)
			}
			moved++
		}
	}
	if frac := float64(moved) / float64(len(ks)); frac > 2.0/5 {
		t.Fatalf("adding one of five nodes moved %.1f%% of keys; want ≈20%%", 100*frac)
	} else if moved == 0 {
		t.Fatal("adding a node moved nothing; the new node owns no keys")
	}
}

// TestRouterOverride: a table's assignment wins over the ring, a table
// assigning to a non-member is refused, and an assignment lasts only as
// long as the tables that carry it.
func TestRouterOverride(t *testing.T) {
	rt := mustRouter(t, RouterOpts{Self: "a", Nodes: testNodes("a", "b")})
	var onB string
	for _, k := range keys(100) {
		if rt.Place(k) == "b" {
			onB = k
			break
		}
	}
	if onB == "" {
		t.Fatal("no key placed on b")
	}
	pinned := Placement{Epoch: 1, Nodes: testNodes("a", "b"), Assign: map[string]string{onB: "a"}}
	if ok, err := rt.SetPlacement(pinned); err != nil || !ok {
		t.Fatalf("SetPlacement(assign %q to a) = %v, %v", onB, ok, err)
	}
	if got := rt.Place(onB); got != "a" {
		t.Fatalf("assignment ignored: Place(%q) = %s", onB, got)
	}
	if !rt.IsLocal(onB) {
		t.Fatal("IsLocal false for an assigned community")
	}
	ghost := Placement{Epoch: 2, Nodes: testNodes("a", "b"), Assign: map[string]string{"x": "ghost"}}
	if ok, err := rt.SetPlacement(ghost); err == nil || ok {
		t.Fatalf("table assigning to a non-member: installed %v, err %v", ok, err)
	}
	if rt.Epoch() != 1 || rt.Place(onB) != "a" {
		t.Fatalf("refused table changed the router: epoch %d, Place(%q) = %s", rt.Epoch(), onB, rt.Place(onB))
	}
	if ok, err := rt.SetPlacement(Placement{Epoch: 2, Nodes: testNodes("a", "b")}); err != nil || !ok {
		t.Fatalf("SetPlacement(no assignments) = %v, %v", ok, err)
	}
	if got := rt.Place(onB); got != "b" {
		t.Fatalf("assignment outlived its table: Place(%q) = %s", onB, got)
	}
}

// TestRouterRejects covers constructor validation.
func TestRouterRejects(t *testing.T) {
	if _, err := NewRouter(RouterOpts{}); err == nil {
		t.Fatal("empty topology accepted")
	}
	if _, err := NewRouter(RouterOpts{Nodes: testNodes("a", "a")}); err == nil {
		t.Fatal("duplicate node ids accepted")
	}
	if _, err := NewRouter(RouterOpts{Nodes: []Node{{ID: ""}}}); err == nil {
		t.Fatal("empty node id accepted")
	}
	if _, err := NewRouter(RouterOpts{Self: "z", Nodes: testNodes("a")}); err == nil {
		t.Fatal("self outside the topology accepted")
	}
}

// TestShardedEquivalence is the property test of the routing split: a
// random op stream applied through a router over three owner shards answers
// every query byte-identically to the same stream applied to one
// single-process registry — sharding must be invisible to correctness.
func TestShardedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rt := mustRouter(t, RouterOpts{Nodes: testNodes("a", "b", "c")})
	shards := map[string]*Owner{"a": New(Opts{}), "b": New(Opts{}), "c": New(Opts{})}
	single := New(Opts{})
	shardFor := func(id string) *Owner { return shards[rt.Place(id)] }

	const nCommunities = 12
	ids := make([]string, nCommunities)
	for i := range ids {
		ids[i] = fmt.Sprintf("community-%d", i)
		n := 3 + rng.Intn(6)
		if _, err := shardFor(ids[i]).Create(ids[i], n, nil, ""); err != nil {
			t.Fatalf("sharded create: %v", err)
		}
		if _, err := single.Create(ids[i], n, nil, ""); err != nil {
			t.Fatalf("single create: %v", err)
		}
	}

	for step := 0; step < 2000; step++ {
		id := ids[rng.Intn(len(ids))]
		sc, _ := shardFor(id).Get(id)
		uc, _ := single.Get(id)
		n := sc.Families()
		switch op := rng.Intn(10); {
		case op == 0:
			sn, err1 := sc.AddFamily()
			un, err2 := uc.AddFamily()
			if (err1 == nil) != (err2 == nil) || sn != un {
				t.Fatalf("AddFamily diverged: (%v,%v) vs (%v,%v)", sn, err1, un, err2)
			}
		case op < 6:
			u, v := rng.Intn(n), rng.Intn(n)
			r1, err1 := sc.Marry(u, v)
			r2, err2 := uc.Marry(u, v)
			if (err1 == nil) != (err2 == nil) || r1 != r2 {
				t.Fatalf("Marry(%d,%d) diverged: (%v,%v) vs (%v,%v)", u, v, r1, err1, r2, err2)
			}
		default:
			u, v := rng.Intn(n), rng.Intn(n)
			rm1, rc1, err1 := sc.Divorce(u, v)
			rm2, rc2, err2 := uc.Divorce(u, v)
			if (err1 == nil) != (err2 == nil) || rm1 != rm2 || rc1 != rc2 {
				t.Fatalf("Divorce(%d,%d) diverged", u, v)
			}
		}
	}

	for _, id := range ids {
		sc, _ := shardFor(id).Get(id)
		uc, _ := single.Get(id)
		sw, err := sc.Window(1, 300)
		if err != nil {
			t.Fatalf("sharded window: %v", err)
		}
		uw, err := uc.Window(1, 300)
		if err != nil {
			t.Fatalf("single window: %v", err)
		}
		sb, _ := json.Marshal(sw)
		ub, _ := json.Marshal(uw)
		if string(sb) != string(ub) {
			t.Fatalf("window diverged for %s:\nsharded %s\nsingle  %s", id, sb, ub)
		}
		for v := 0; v < sc.Families(); v++ {
			sn, err1 := sc.NextHappy(v, 1)
			un, err2 := uc.NextHappy(v, 1)
			if err1 != nil || err2 != nil || sn != un {
				t.Fatalf("next diverged for %s family %d: (%v,%v) vs (%v,%v)", id, v, sn, err1, un, err2)
			}
		}
	}
}
