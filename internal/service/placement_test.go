package service

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPlacementSupersedes pins the total order tables converge under:
// higher epoch always wins; same-epoch ties break on the smaller
// fingerprint; an identical table never supersedes (republication is
// idempotent).
func TestPlacementSupersedes(t *testing.T) {
	base := Placement{Epoch: 3, Nodes: testNodes("a", "b")}
	newer := Placement{Epoch: 4, Nodes: testNodes("a", "b")}
	if !newer.Supersedes(base) {
		t.Fatal("higher epoch does not supersede")
	}
	if base.Supersedes(newer) {
		t.Fatal("lower epoch supersedes")
	}
	if base.Supersedes(base) {
		t.Fatal("a table supersedes itself")
	}

	// Same epoch, different content: exactly one direction wins, and it's
	// the same direction every time (the fingerprint order).
	x := Placement{Epoch: 5, Nodes: testNodes("a", "b"), Assign: map[string]string{"c1": "a"}}
	y := Placement{Epoch: 5, Nodes: testNodes("a", "b"), Assign: map[string]string{"c1": "b"}}
	if x.Supersedes(y) == y.Supersedes(x) {
		t.Fatalf("same-epoch tie is not totally ordered: x>y=%v y>x=%v", x.Supersedes(y), y.Supersedes(x))
	}
	winner := x
	if y.Supersedes(x) {
		winner = y
	}
	for i := 0; i < 10; i++ {
		w2 := x
		if y.Supersedes(x) {
			w2 = y
		}
		if w2.Fingerprint() != winner.Fingerprint() {
			t.Fatal("tie-break is not deterministic")
		}
	}

	// Fingerprint ignores the epoch but covers membership and assignments.
	if x.Fingerprint() == y.Fingerprint() {
		t.Fatal("fingerprint blind to assignments")
	}
	xBumped := x.Clone()
	xBumped.Epoch = 9
	if xBumped.Fingerprint() != x.Fingerprint() {
		t.Fatal("fingerprint depends on the epoch")
	}
}

// TestPlacementCloneAndValidate: clones are independent, and Validate
// refuses structurally broken tables.
func TestPlacementCloneAndValidate(t *testing.T) {
	p := Placement{Epoch: 1, Nodes: testNodes("a", "b"), Assign: map[string]string{"c": "a"}}
	c := p.Clone()
	c.Assign["c"] = "b"
	c.Nodes[0].ID = "z"
	if p.Assign["c"] != "a" {
		t.Fatal("clone shares the assign map")
	}
	if p.Nodes[0].ID != "a" {
		t.Fatal("clone shares the node slice")
	}

	cases := []Placement{
		{},
		{Nodes: []Node{{ID: ""}}},
		{Nodes: testNodes("a", "a")},
		{Nodes: testNodes("a"), Assign: map[string]string{"c": "ghost"}},
	}
	for i, bad := range cases {
		if err := bad.Validate(); err == nil {
			t.Fatalf("case %d: invalid table validated", i)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("valid table refused: %v", err)
	}
}

// TestRouterForEvaluatesTable: RouterFor serves exactly the given table —
// assignments included — so tooling can answer "who owns this" offline.
func TestRouterForEvaluatesTable(t *testing.T) {
	ring := mustRouter(t, RouterOpts{Nodes: testNodes("a", "b")})
	var onB string
	for _, k := range keys(100) {
		if ring.Place(k) == "b" {
			onB = k
			break
		}
	}
	rt, err := RouterFor(Placement{Epoch: 7, Nodes: testNodes("a", "b"), Assign: map[string]string{onB: "a"}})
	if err != nil {
		t.Fatalf("RouterFor: %v", err)
	}
	if got := rt.Place(onB); got != "a" {
		t.Fatalf("assignment ignored: Place(%q) = %s", onB, got)
	}
	if rt.Epoch() != 7 {
		t.Fatalf("epoch = %d, want 7", rt.Epoch())
	}
	if _, err := RouterFor(Placement{}); err == nil {
		t.Fatal("RouterFor accepted an empty table")
	}
}

// TestSetPlacementEpochGate: installs are gated on Supersedes, watchers see
// every install, and a republished identical table is a quiet no-op.
func TestSetPlacementEpochGate(t *testing.T) {
	rt := mustRouter(t, RouterOpts{Nodes: testNodes("a", "b")})
	var saw []uint64
	var mu sync.Mutex
	rt.OnChange(func(p Placement) {
		mu.Lock()
		saw = append(saw, p.Epoch)
		mu.Unlock()
	})

	next := Placement{Epoch: 5, Nodes: testNodes("a", "b", "c"), Assign: map[string]string{"x": "c"}}
	if ok, err := rt.SetPlacement(next); err != nil || !ok {
		t.Fatalf("SetPlacement(epoch 5) = %v, %v", ok, err)
	}
	if rt.Epoch() != 5 || rt.Place("x") != "c" {
		t.Fatalf("table not installed: epoch %d, Place(x)=%s", rt.Epoch(), rt.Place("x"))
	}
	// Stale and identical tables are refused without error.
	if ok, _ := rt.SetPlacement(Placement{Epoch: 2, Nodes: testNodes("a")}); ok {
		t.Fatal("stale epoch installed")
	}
	if ok, _ := rt.SetPlacement(next); ok {
		t.Fatal("identical table re-installed")
	}
	if ok, err := rt.SetPlacement(Placement{Epoch: 0, Nodes: nil}); ok || err == nil {
		t.Fatal("invalid table installed or accepted")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(saw) != 1 || saw[0] != 5 {
		t.Fatalf("watcher calls = %v, want [5]", saw)
	}
}

// TestRouterConcurrentMutationStress hammers SetPlacement publishers
// against every reader from many goroutines — run under -race this is the
// memory-safety proof for the placement plane (the bug class: an install
// rebuilding the ring while a Place walks it). Watchers run before
// SetPlacement returns, so once the publishers stop, every install has
// been observed.
func TestRouterConcurrentMutationStress(t *testing.T) {
	rt := mustRouter(t, RouterOpts{Self: "a", Nodes: testNodes("a", "b", "c")})
	ks := keys(64)
	var stop atomic.Bool
	var wg sync.WaitGroup
	var installs, observed atomic.Int64
	rt.OnChange(func(Placement) { observed.Add(1) })

	reader := func(seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for !stop.Load() {
			k := ks[rng.Intn(len(ks))]
			owner := rt.Place(k)
			if owner == "" {
				t.Error("Place returned an empty owner")
				return
			}
			rt.IsLocal(k)
			rt.Overrides()
			rt.Epoch()
			rt.Addr(owner)
			rt.Placement()
		}
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go reader(int64(i))
	}

	// publisher republishes the current table one epoch on, changed by
	// mutate, racing the other publishers for each epoch.
	publisher := func(mutate func(p *Placement)) {
		defer wg.Done()
		for !stop.Load() {
			p := rt.Placement()
			p.Epoch++
			mutate(&p)
			ok, err := rt.SetPlacement(p)
			if err != nil {
				t.Error("SetPlacement:", err)
				return
			}
			if ok {
				installs.Add(1)
			}
		}
	}
	rng := rand.New(rand.NewSource(99))
	targets := []string{"a", "b", "c"}
	wg.Add(3)
	go publisher(func(p *Placement) { // assignment churn
		p.Assign[ks[rng.Intn(len(ks))]] = targets[rng.Intn(len(targets))]
	})
	go publisher(func(p *Placement) { // membership churn: d joins and leaves
		members := len(p.Nodes)
		p.Nodes = slices.DeleteFunc(p.Nodes, func(n Node) bool { return n.ID == "d" })
		if len(p.Nodes) == members {
			p.Nodes = append(p.Nodes, Node{ID: "d", Addr: "http://d.example:8080"})
		}
	})
	go publisher(func(*Placement) {}) // plain republication

	// Keep the readers racing until the publishers have made real progress.
	for i := 0; i < 2000 || installs.Load() < 300; i++ {
		rt.Place(ks[i%len(ks)])
	}
	stop.Store(true)
	wg.Wait()

	if installs.Load() == 0 || observed.Load() != installs.Load() {
		t.Fatalf("watchers observed %d installs, publishers made %d", observed.Load(), installs.Load())
	}
	// The surviving table is still coherent: valid, and every placement
	// resolves to a member.
	p := rt.Placement()
	if err := p.Validate(); err != nil {
		t.Fatalf("post-stress table invalid: %v", err)
	}
	for _, k := range ks {
		owner := rt.Place(k)
		if _, ok := rt.Addr(owner); !ok {
			t.Fatalf("Place(%q) = %q, not a member", k, owner)
		}
	}
}

// TestShardedEquivalenceWithEpochChurn re-runs the sharded≡single property
// with the placement plane churning mid-stream: every few hundred ops a new
// epoch publishes (membership grows, shrinks, assignments pin) with every
// community explicitly pinned to its original owner — the stage-1 rebalance
// shape. Placement must not move (no data moved), and every answer must
// stay byte-identical to the single registry.
func TestShardedEquivalenceWithEpochChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rt := mustRouter(t, RouterOpts{Nodes: testNodes("a", "b", "c")})
	shards := map[string]*Owner{"a": New(Opts{}), "b": New(Opts{}), "c": New(Opts{})}
	single := New(Opts{})
	shardFor := func(id string) *Owner {
		o, ok := shards[rt.Place(id)]
		if !ok {
			t.Fatalf("community %q placed on %q, a node with no shard — churn moved placement", id, rt.Place(id))
		}
		return o
	}

	const nCommunities = 10
	ids := make([]string, nCommunities)
	pins := make(map[string]string, nCommunities)
	for i := range ids {
		ids[i] = fmt.Sprintf("community-%d", i)
		pins[ids[i]] = rt.Place(ids[i])
		n := 3 + rng.Intn(6)
		if _, err := shardFor(ids[i]).Create(ids[i], n, nil, ""); err != nil {
			t.Fatalf("sharded create: %v", err)
		}
		if _, err := single.Create(ids[i], n, nil, ""); err != nil {
			t.Fatalf("single create: %v", err)
		}
	}

	// The churn schedule: tables that grow and shrink membership but pin
	// every community where its data lives, exactly like the rebalancer's
	// membership stages.
	churn := []Placement{
		{Epoch: 10, Nodes: testNodes("a", "b", "c", "d"), Assign: pins},
		{Epoch: 11, Nodes: testNodes("a", "b", "c", "d", "e"), Assign: pins},
		{Epoch: 12, Nodes: testNodes("a", "b", "c"), Assign: pins},
	}
	churnAt := map[int]int{400: 0, 900: 1, 1400: 2}

	for step := 0; step < 2000; step++ {
		if ci, ok := churnAt[step]; ok {
			if ok, err := rt.SetPlacement(churn[ci]); err != nil || !ok {
				t.Fatalf("churn table %d not installed: %v %v", ci, ok, err)
			}
			for _, id := range ids {
				if got := rt.Place(id); got != pins[id] {
					t.Fatalf("epoch %d moved %q: %s -> %s with pins in force", churn[ci].Epoch, id, pins[id], got)
				}
			}
		}
		id := ids[rng.Intn(len(ids))]
		sc, _ := shardFor(id).Get(id)
		uc, _ := single.Get(id)
		n := sc.Families()
		u, v := rng.Intn(n), rng.Intn(n)
		if rng.Intn(2) == 0 {
			r1, err1 := sc.Marry(u, v)
			r2, err2 := uc.Marry(u, v)
			if (err1 == nil) != (err2 == nil) || r1 != r2 {
				t.Fatalf("Marry diverged at step %d", step)
			}
		} else {
			rm1, rc1, err1 := sc.Divorce(u, v)
			rm2, rc2, err2 := uc.Divorce(u, v)
			if (err1 == nil) != (err2 == nil) || rm1 != rm2 || rc1 != rc2 {
				t.Fatalf("Divorce diverged at step %d", step)
			}
		}
	}

	for _, id := range ids {
		sc, _ := shardFor(id).Get(id)
		uc, _ := single.Get(id)
		sw, err := sc.Window(1, 200)
		if err != nil {
			t.Fatalf("sharded window: %v", err)
		}
		uw, err := uc.Window(1, 200)
		if err != nil {
			t.Fatalf("single window: %v", err)
		}
		sb, _ := json.Marshal(sw)
		ub, _ := json.Marshal(uw)
		if string(sb) != string(ub) {
			t.Fatalf("window diverged for %s after epoch churn", id)
		}
	}
}
