package poly

import (
	"reflect"
	"testing"

	"math/rand/v2"
)

// equalSets treats nil and empty happy sets as equal, mirroring the
// facade-level schedule property tests.
func equalSets(a, b []int) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// slotScan is the ground truth the access paths are checked against: for
// every holiday in [1, horizon], the live slots whose layer's residue class
// holds it, found by a per-slot t % period == offset scan of the layer
// assignment — independent of the frozen schedule's class index.
func slotScan(d *Dyn, horizon int64) [][]int {
	want := make([][]int, horizon)
	for tt := int64(1); tt <= horizon; tt++ {
		for slot, s := range d.slots {
			if !s.present {
				continue
			}
			if l := d.layers[s.layer]; tt%l.period == l.offset {
				want[tt-1] = append(want[tt-1], slot)
			}
		}
	}
	return want
}

// TestScheduleAccessPathsAgree is the poly differential harness: across
// ≥ 100 seeded random instances × both schedulers × window alignments,
// Window, HappySet (the random-access path), and a NextHappy replay must
// answer byte-identically to slotScan. Window must visit exactly it, and
// per-slot NextHappy must name exactly the holidays where the slot appears.
func TestScheduleAccessPathsAgree(t *testing.T) {
	const horizon = int64(700)
	windows := [][2]int64{
		{1, horizon},           // full pass
		{1, 1},                 // single first holiday
		{37, 211},              // interior, not starting at 1
		{512, 600},             // crosses the block size boundary region
		{horizon - 5, horizon}, // tail
	}
	for seed := uint64(0); seed < 110; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x51ed))
		n, edges := randInstance(rng)
		for _, code := range Codes() {
			d := buildDyn(t, code, n, edges)
			// Churn a little so some instances carry vacant slots.
			for i := 0; i < len(edges)/4; i++ {
				e := edges[rng.IntN(len(edges))]
				d.RemoveEdge(e.u, e.v)
			}
			s := d.FrozenSchedule()

			want := slotScan(d, horizon)
			for tt := int64(1); tt <= horizon; tt++ {
				if got := s.HappySet(tt); !equalSets(got, want[tt-1]) {
					t.Fatalf("seed %d %s: HappySet(%d) = %v, slot scan says %v", seed, code, tt, got, want[tt-1])
				}
			}
			for _, w := range windows {
				next := w[0]
				s.Window(w[0], w[1], func(tt int64, happy []int) {
					if tt != next {
						t.Fatalf("seed %d %s: window [%d,%d] visited %d, want %d", seed, code, w[0], w[1], tt, next)
					}
					if !equalSets(happy, want[tt-1]) {
						t.Fatalf("seed %d %s: holiday %d: Window %v ≠ slot scan %v", seed, code, tt, happy, want[tt-1])
					}
					next++
				})
				if next != w[1]+1 {
					t.Fatalf("seed %d %s: window [%d,%d] ended at %d", seed, code, w[0], w[1], next)
				}
			}
			// Backward re-reads after the full pass (closed-form schedules
			// must not care about access order).
			for _, w := range [][2]int64{{3, 9}, {513, 516}} {
				s.Window(w[0], w[1], func(tt int64, happy []int) {
					if !equalSets(happy, want[tt-1]) {
						t.Fatalf("seed %d %s: re-read holiday %d: %v ≠ %v", seed, code, tt, happy, want[tt-1])
					}
				})
			}
			// NextHappy replay: walking next pointers from several
			// alignments must enumerate exactly the slot's appearances.
			for v := 0; v < s.Nodes(); v++ {
				for _, from := range []int64{1, 17, 150} {
					wantNext := int64(0)
					for tt := from; tt <= horizon; tt++ {
						for _, u := range want[tt-1] {
							if u == v {
								wantNext = tt
								break
							}
						}
						if wantNext != 0 {
							break
						}
					}
					got := s.NextHappy(v, from)
					if wantNext == 0 {
						// Vacant slots answer 0; live slots may simply have a
						// period beyond the horizon — then got > horizon.
						if got != 0 && got <= horizon {
							t.Fatalf("seed %d %s: NextHappy(%d, %d) = %d inside the horizon, replay saw nothing", seed, code, v, from, got)
						}
						continue
					}
					if got != wantNext {
						t.Fatalf("seed %d %s: NextHappy(%d, %d) = %d, want %d", seed, code, v, from, got, wantNext)
					}
				}
			}
		}
	}
}

// TestSchedulersDifferButBothSatisfy: the two schedulers genuinely differ
// (bucketed never mixes demand classes in one layer) while both satisfy
// the same demands — the point of having a differential pair.
func TestSchedulersDifferButBothSatisfy(t *testing.T) {
	// A star with mixed demands: layering can fold the high-demand spoke
	// edges into low-period layers opportunistically; bucketed cannot.
	mk := func(code string) *Dyn {
		d, err := New(8, code)
		if err != nil {
			t.Fatal(err)
		}
		d.AddEdge(0, 1, 16)
		d.AddEdge(2, 3, 16)
		d.AddEdge(4, 5, 64)
		d.AddEdge(6, 7, 64)
		return d
	}
	lay, buck := mk(CodeLayering), mk(CodeBucketed)
	if got := lay.Stats(); got.MaxGapRatio > 1 {
		t.Fatalf("layering misses a demand: %+v", got)
	}
	if got := buck.Stats(); got.MaxGapRatio > 1 {
		t.Fatalf("bucketed misses a demand: %+v", got)
	}
	// Layering folds all four vertex-disjoint edges into one period-16
	// layer; bucketed keeps the 64-demand pair in its own bucket.
	if l, b := lay.Stats().Layers, buck.Stats().Layers; l != 1 || b != 2 {
		t.Fatalf("layer counts (layering %d, bucketed %d), want 1 and 2", l, b)
	}
}
