package poly

import (
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/core"
)

// randInstance generates a random poly instance over n ≤ 256 nodes whose
// demands leave enough density headroom that both schedulers can meet
// every per-edge bound: with max degree Δ, first-fit edge coloring uses at
// most 2Δ-1 layers per demand class, and demands drawn from {B, 2B, 4B,
// 8B} with B ≥ 8Δ keep Σ 1/period ≤ ½ for either scheduler.
type testEdge struct {
	u, v   int
	demand int64
}

func randInstance(rng *rand.Rand) (n int, edges []testEdge) {
	n = 2 + rng.IntN(255)
	m := rng.IntN(3*n + 1)
	deg := make([]int, n)
	seen := map[[2]int]bool{}
	type bare struct{ u, v int }
	var bareEdges []bare
	for i := 0; i < m; i++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v || seen[canon(u, v)] {
			continue
		}
		seen[canon(u, v)] = true
		bareEdges = append(bareEdges, bare{u, v})
		deg[u]++
		deg[v]++
	}
	maxDeg := 1
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	base := int64(1) << (bits.Len(uint(maxDeg)) + 3) // ≥ 8·maxDeg, power of two
	for _, e := range bareEdges {
		edges = append(edges, testEdge{e.u, e.v, base << rng.IntN(4)})
	}
	return n, edges
}

func buildDyn(t *testing.T, code string, n int, edges []testEdge) *Dyn {
	t.Helper()
	d, err := New(n, code)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if applied, _ := d.AddEdge(e.u, e.v, e.demand); !applied {
			t.Fatalf("AddEdge(%d,%d) not applied", e.u, e.v)
		}
	}
	return d
}

// TestDemandBoundsOnRandomInstances is the approximation-guarantee half of
// the differential harness (ISSUE acceptance): on ≥ 100 seeded random
// instances, both schedulers must satisfy every per-edge demand bound —
// each edge's max gap (its layer period) is at most its demand — and every
// structural invariant must hold.
func TestDemandBoundsOnRandomInstances(t *testing.T) {
	const instances = 120
	for seed := uint64(0); seed < instances; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
		n, edges := randInstance(rng)
		for _, code := range Codes() {
			d := buildDyn(t, code, n, edges)
			if err := d.Verify(); err != nil {
				t.Fatalf("seed %d %s: %v", seed, code, err)
			}
			st := d.Stats()
			if st.MaxGapRatio > 1 {
				t.Fatalf("seed %d %s: max gap ratio %v > 1 (a demand bound is missed)", seed, code, st.MaxGapRatio)
			}
			if st.Density > 1 {
				t.Fatalf("seed %d %s: schedule density %v > 1", seed, code, st.Density)
			}
			if st.Edges != len(edges) {
				t.Fatalf("seed %d %s: %d edges, want %d", seed, code, st.Edges, len(edges))
			}
			if st.Fairness <= 0 || st.Fairness > 1.0000001 {
				t.Fatalf("seed %d %s: Jain fairness %v outside (0, 1]", seed, code, st.Fairness)
			}
			// Per-edge, directly: the scheduled gap is the layer period.
			for slot := 0; slot < d.Slots(); slot++ {
				if _, _, demand, ok := d.Edge(slot); ok {
					if p := d.layers[d.slots[slot].layer].period; p > demand {
						t.Fatalf("seed %d %s: slot %d scheduled every %d slots against demand %d", seed, code, slot, p, demand)
					}
				}
			}
		}
	}
}

// TestMatchingEveryTimeslot: every emitted happy set must be a matching —
// no two edge slots meeting at the same holiday may share an endpoint —
// including on demand-infeasible instances, where periods inflate but
// matching-validity is never given up.
func TestMatchingEveryTimeslot(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewPCG(seed, 1))
		n, edges := randInstance(rng)
		// Half the runs squeeze demands to force inflation.
		if seed%2 == 1 {
			for i := range edges {
				edges[i].demand = 1 + int64(rng.IntN(4))
			}
		}
		for _, code := range Codes() {
			d := buildDyn(t, code, n, edges)
			if err := d.Verify(); err != nil {
				t.Fatalf("seed %d %s: %v", seed, code, err)
			}
			assertMatchings(t, d, d.FrozenSchedule(), 1, 512)
		}
	}
}

// assertMatchings walks the window and fails on any shared endpoint.
func assertMatchings(t *testing.T, d *Dyn, s *core.ClassSchedule, from, to int64) {
	t.Helper()
	used := make(map[int]int64, 16)
	s.Window(from, to, func(tt int64, happy []int) {
		clear(used)
		for _, slot := range happy {
			u, v, _, ok := d.Edge(slot)
			if !ok {
				t.Fatalf("holiday %d schedules vacant slot %d", tt, slot)
			}
			for _, nd := range []int{u, v} {
				if prev, dup := used[nd]; dup {
					t.Fatalf("holiday %d is not a matching: node %d in slots %d and %d", tt, nd, prev, slot)
				}
				used[nd] = tt
			}
		}
	})
}

// TestInfeasibleDemandsInflateFinitely: demands the timeline cannot carry
// force a relayering with uniform inflation; the result still packs, still
// verifies, and reports a finite MaxGapRatio > 1.
func TestInfeasibleDemandsInflateFinitely(t *testing.T) {
	d, err := New(6, CodeLayering)
	if err != nil {
		t.Fatal(err)
	}
	// A triangle demanding every-slot service: density 3 > 1.
	d.AddEdge(0, 1, 1)
	d.AddEdge(1, 2, 1)
	if _, relayered := d.AddEdge(0, 2, 1); !relayered {
		t.Fatal("third unit-demand edge did not force a relayering")
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.MaxGapRatio <= 1 || st.MaxGapRatio > float64(MaxPeriod) {
		t.Fatalf("max gap ratio %v, want finite and > 1", st.MaxGapRatio)
	}
	if st.Relayerings == 0 {
		t.Fatal("relayerings counter did not move")
	}
}

// TestChurnKeepsInvariants drives sustained random insert/delete churn and
// verifies structure plus matching-validity after every phase.
func TestChurnKeepsInvariants(t *testing.T) {
	for _, code := range Codes() {
		rng := rand.New(rand.NewPCG(42, 7))
		const n = 64
		d, err := New(n, code)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 3000; step++ {
			u, v := rng.IntN(n), rng.IntN(n)
			if u == v {
				continue
			}
			if rng.Float64() < 0.6 {
				d.AddEdge(u, v, int64(1)<<(6+rng.IntN(4)))
			} else {
				d.RemoveEdge(u, v)
			}
			if step%500 == 499 {
				if err := d.Verify(); err != nil {
					t.Fatalf("%s step %d: %v", code, step, err)
				}
			}
		}
		if err := d.Verify(); err != nil {
			t.Fatalf("%s final: %v", code, err)
		}
		assertMatchings(t, d, d.FrozenSchedule(), 1, 1024)
	}
}

// TestVacantSlots: deleting an edge vacates its slot — never happy, next
// always 0 — and a later insert reuses the lowest vacant slot so the
// entity count only grows.
func TestVacantSlots(t *testing.T) {
	d, err := New(5, "")
	if err != nil {
		t.Fatal(err)
	}
	d.AddEdge(0, 1, 8)
	d.AddEdge(2, 3, 8)
	d.AddEdge(3, 4, 8)
	if !d.RemoveEdge(2, 3) {
		t.Fatal("delete not applied")
	}
	if d.Slots() != 3 || d.M() != 2 {
		t.Fatalf("slots %d edges %d, want 3 and 2", d.Slots(), d.M())
	}
	s := d.FrozenSchedule()
	if s.Nodes() != 3 {
		t.Fatalf("schedule covers %d slots, want 3", s.Nodes())
	}
	if next := s.NextHappy(1, 1); next != 0 {
		t.Fatalf("vacant slot answers next %d, want 0", next)
	}
	s.Window(1, 64, func(tt int64, happy []int) {
		for _, slot := range happy {
			if slot == 1 {
				t.Fatalf("vacant slot scheduled at %d", tt)
			}
		}
	})
	// Reinsert: lowest vacant slot (1) is reused.
	d.AddEdge(1, 2, 8)
	if d.Slots() != 3 || !d.slots[1].present {
		t.Fatalf("reinsert did not reuse slot 1 (slots %d)", d.Slots())
	}
}

// TestVerifyChecksVacancyHeap: Verify refuses a vacancy heap that misses a
// vacant slot, holds one twice, holds a live slot or breaks heap order.
func TestVerifyChecksVacancyHeap(t *testing.T) {
	d, err := New(8, "")
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 8; v++ {
		d.AddEdge(0, v, 8)
	}
	for _, v := range []int{6, 4, 2} {
		d.RemoveEdge(0, v)
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	good := slices.Clone(d.vacant)
	if !slices.Equal(good, vacancies{1, 5, 3}) {
		t.Fatalf("vacancy heap %v, want [1 5 3]", good)
	}
	for _, bad := range []vacancies{
		{1, 5},       // slot 3 missing
		{1, 5, 3, 3}, // slot 3 twice
		{1, 5, 2},    // slot 2 is live
		{5, 1, 3},    // slot 1 below its parent
	} {
		d.vacant = bad
		if err := d.Verify(); err == nil {
			t.Errorf("Verify accepted vacancy heap %v over vacant slots %v", bad, good)
		}
	}
}

// TestExportRestoreContinuesIdentically is the byte-identity contract WAL
// recovery depends on: export mid-churn, restore, apply the identical
// remaining edits to both, and require identical frozen schedules.
func TestExportRestoreContinuesIdentically(t *testing.T) {
	for _, code := range Codes() {
		rng := rand.New(rand.NewPCG(9, 9))
		const n = 48
		d, err := New(n, code)
		if err != nil {
			t.Fatal(err)
		}
		edit := func() core.Edit {
			u, v := rng.IntN(n), rng.IntN(n)
			for u == v {
				v = rng.IntN(n)
			}
			op := core.EditInsert
			if rng.Float64() < 0.35 {
				op = core.EditDelete
			}
			return core.Edit{Op: op, U: u, V: v, Demand: int64(1) << (5 + rng.IntN(5))}
		}
		for i := 0; i < 400; i++ {
			d.Apply(edit())
		}
		r, err := Restore(d.Export())
		if err != nil {
			t.Fatalf("%s: restore: %v", code, err)
		}
		for i := 0; i < 400; i++ {
			e := edit()
			if got, want := r.Apply(e), d.Apply(e); got != want {
				t.Fatalf("%s: edit %+v diverged after restore: %+v vs %+v", code, e, got, want)
			}
		}
		a, b := d.FrozenSchedule(), r.FrozenSchedule()
		if a.Nodes() != b.Nodes() {
			t.Fatalf("%s: slot counts diverged: %d vs %d", code, a.Nodes(), b.Nodes())
		}
		for v := 0; v < a.Nodes(); v++ {
			// The first two firings pin a slot's (period, offset).
			a1, b1 := a.NextHappy(v, 1), b.NextHappy(v, 1)
			if a1 != b1 || a.NextHappy(v, a1+1) != b.NextHappy(v, b1+1) {
				t.Fatalf("%s: slot %d assignment diverged: firings (%d,%d) vs (%d,%d)",
					code, v, a1, a.NextHappy(v, a1+1), b1, b.NextHappy(v, b1+1))
			}
		}
		if d.Relayerings() != r.Relayerings() {
			t.Fatalf("%s: relayering counters diverged: %d vs %d", code, d.Relayerings(), r.Relayerings())
		}
	}
}

// TestRestoreRejectsCorruptState: hostile or torn states never restore.
func TestRestoreRejectsCorruptState(t *testing.T) {
	d, _ := New(4, "")
	d.AddEdge(0, 1, 8)
	d.AddEdge(2, 3, 8)
	good := d.Export()
	mutate := []func(*State){
		func(st *State) { st.Code = "elope" },
		func(st *State) { st.Edges[0].Slot = 99 },
		func(st *State) { st.Edges[0].V = st.Edges[0].U },
		func(st *State) { st.Edges[0].Demand = 0 },
		func(st *State) { st.Edges[0].Layer = 42 },
		func(st *State) { st.Edges = append(st.Edges, st.Edges[0]) },
		func(st *State) { st.Layers[0].Period = 3 }, // not a power of two
		func(st *State) { st.Slots = 1 },
		func(st *State) { // colliding classes
			st.Layers = append(st.Layers, st.Layers[0])
			st.Edges[1].Layer = int32(len(st.Layers) - 1)
		},
	}
	for i, f := range mutate {
		st := good
		st.Edges = append([]EdgeState(nil), good.Edges...)
		st.Layers = append([]LayerState(nil), good.Layers...)
		f(&st)
		if _, err := Restore(st); err == nil {
			t.Fatalf("corruption %d restored without error", i)
		}
	}
	if _, err := Restore(good); err != nil {
		t.Fatalf("pristine state rejected: %v", err)
	}
}

// TestUnknownCode: New rejects unknown scheduler codes.
func TestUnknownCode(t *testing.T) {
	if _, err := New(4, "elope"); err == nil {
		t.Fatal("unknown code accepted")
	}
	if d, err := New(4, ""); err != nil || d.Code() != CodeLayering {
		t.Fatalf("empty code: %v, %q", err, d.Code())
	}
}
