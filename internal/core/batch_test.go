package core

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/prefixcode"
)

// randomEdits draws k edits over n nodes, biased toward insertions so the
// graph actually grows, with deletions drawn from anywhere (often no-ops).
func randomEdits(r *rand.Rand, n, k int) []Edit {
	edits := make([]Edit, k)
	for i := range edits {
		u := r.IntN(n)
		v := r.IntN(n - 1)
		if v >= u {
			v++
		}
		op := EditInsert
		if r.IntN(10) < 4 {
			op = EditDelete
		}
		edits[i] = Edit{Op: op, U: u, V: v}
	}
	return edits
}

// TestApplyBatchMatchesSequential is the differential proof behind the one
// edit entry point: applying an edit stream through Apply, batch by batch,
// must leave the scheduler in the exact state — coloring, recoloring
// counter, and therefore every window and next-happy answer — that direct
// AddEdge/RemoveEdge calls produce. WAL replay applies churn records
// individually, so any divergence here would break the byte-identical
// crash-recovery guarantee.
func TestApplyBatchMatchesSequential(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := graph.GNP(40, 0.08, seed)
			batched, err := NewDynamicColorBound(g, prefixcode.Omega{})
			if err != nil {
				t.Fatal(err)
			}
			sequential, err := NewDynamicColorBound(g, prefixcode.Omega{})
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewPCG(seed, 77))
			for round := 0; round < 30; round++ {
				edits := randomEdits(r, 40, 1+r.IntN(48))
				res := make([]EditResult, len(edits))
				before := batched.Recolorings
				for i, e := range edits {
					if res[i], err = batched.Apply(e); err != nil {
						t.Fatal(err)
					}
				}
				rec := int(batched.Recolorings - before)
				seqRec := 0
				for i, e := range edits {
					var applied, recolored bool
					if e.Op == EditInsert {
						had := sequential.HasEdge(e.U, e.V)
						recolored, err = sequential.AddEdge(e.U, e.V)
						if err != nil {
							t.Fatal(err)
						}
						applied = !had
					} else {
						before := sequential.Recolorings
						applied = sequential.RemoveEdge(e.U, e.V)
						recolored = sequential.Recolorings != before
					}
					if recolored {
						seqRec++
					}
					if res[i] != (EditResult{Applied: applied, Recolored: recolored}) {
						t.Fatalf("round %d edit %d: batch result %+v, sequential applied=%v recolored=%v",
							round, i, res[i], applied, recolored)
					}
				}
				if rec != seqRec {
					t.Fatalf("round %d: batch reported %d recolorings, sequential %d", round, rec, seqRec)
				}
				if err := batched.VerifyProper(); err != nil {
					t.Fatalf("round %d: batch state improper: %v", round, err)
				}
				if !reflect.DeepEqual(batched.Coloring(), sequential.Coloring()) {
					t.Fatalf("round %d: batch coloring diverged from sequential", round)
				}
			}
			// Identical colorings must produce identical window and
			// next-happy answers from the frozen schedules.
			bs, err := batched.FrozenSchedule()
			if err != nil {
				t.Fatal(err)
			}
			ss, err := sequential.FrozenSchedule()
			if err != nil {
				t.Fatal(err)
			}
			var bw, sw [][]int
			bs.Window(1, 64, func(_ int64, happy []int) { bw = append(bw, append([]int(nil), happy...)) })
			ss.Window(1, 64, func(_ int64, happy []int) { sw = append(sw, append([]int(nil), happy...)) })
			if !reflect.DeepEqual(bw, sw) {
				t.Fatal("batch and sequential schedules answer windows differently")
			}
			for v := 0; v < 40; v++ {
				if bs.NextHappy(v, 7) != ss.NextHappy(v, 7) {
					t.Fatalf("NextHappy(%d) differs between batch and sequential schedules", v)
				}
			}
		})
	}
}

// TestApplyRejectsInvalidEdits: an edit with an unknown op, an endpoint
// outside the graph or a self-marriage is an error and changes nothing.
func TestApplyRejectsInvalidEdits(t *testing.T) {
	g := graph.Path(4)
	dc, err := NewDynamicColorBound(g, prefixcode.Omega{})
	if err != nil {
		t.Fatal(err)
	}
	before := dc.Coloring()
	m := dc.M()
	for i, e := range []Edit{
		{Op: EditInsert, U: 1, V: 1},  // self-marriage
		{Op: EditInsert, U: 0, V: 4},  // out of range
		{Op: EditDelete, U: -1, V: 2}, // negative node
		{Op: EditOp(9), U: 0, V: 3},   // unknown op
	} {
		if _, err := dc.Apply(e); err == nil {
			t.Fatalf("bad edit %d: expected error", i)
		}
		if dc.M() != m || !reflect.DeepEqual(dc.Coloring(), before) {
			t.Fatalf("bad edit %d mutated state", i)
		}
	}
}

// TestApplyBatchNoOpEdits: duplicate inserts and absent deletes report
// Applied=false and leave the edge count alone.
func TestApplyBatchNoOpEdits(t *testing.T) {
	g := graph.Path(3) // edges {0,1}, {1,2}
	dc, err := NewDynamicColorBound(g, prefixcode.Omega{})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		e       Edit
		applied bool
	}{
		{Edit{Op: EditInsert, U: 0, V: 1}, false}, // already married
		{Edit{Op: EditDelete, U: 0, V: 2}, false}, // never married
		{Edit{Op: EditDelete, U: 0, V: 1}, true},  // real divorce
		{Edit{Op: EditDelete, U: 0, V: 1}, false}, // now absent again
	} {
		res, err := dc.Apply(c.e)
		if err != nil {
			t.Fatal(err)
		}
		if res.Applied != c.applied {
			t.Errorf("edit %d applied = %v, want %v", i, res.Applied, c.applied)
		}
	}
	if dc.M() != 1 {
		t.Errorf("M = %d, want 1", dc.M())
	}
	if !dc.HasEdge(1, 2) || dc.HasEdge(0, 1) {
		t.Error("edge set does not match applied edits")
	}
	if dc.HasEdge(-1, 0) || dc.HasEdge(0, 3) || dc.HasEdge(2, 2) {
		t.Error("HasEdge must report false for invalid endpoints")
	}
}
