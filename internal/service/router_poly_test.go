package service

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
)

// TestShardedEquivalencePoly extends the routing-split property test to
// kind=poly communities: a random demand-carrying op stream applied through
// a router over three owner shards must answer every window and next-happy
// query byte-identically to the same stream applied to one single-process
// registry. Poly's extra moving parts — per-edge demands, slot reuse,
// relayering rebuilds — must all be invisible to placement.
func TestShardedEquivalencePoly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rt := mustRouter(t, RouterOpts{Nodes: testNodes("a", "b", "c")})
	shards := map[string]*Owner{"a": New(Opts{}), "b": New(Opts{}), "c": New(Opts{})}
	single := New(Opts{})
	shardFor := func(id string) *Owner { return shards[rt.Place(id)] }

	const nCommunities = 8
	codes := []string{"layering", "bucketed"}
	ids := make([]string, nCommunities)
	for i := range ids {
		ids[i] = fmt.Sprintf("poly-%d", i)
		spec := CreateSpec{
			ID:            ids[i],
			Families:      4 + rng.Intn(8),
			Kind:          KindPoly,
			Code:          codes[i%len(codes)],
			DefaultDemand: int64(8) << rng.Intn(4),
		}
		if _, err := shardFor(ids[i]).CreateSpec(spec); err != nil {
			t.Fatalf("sharded create: %v", err)
		}
		if _, err := single.CreateSpec(spec); err != nil {
			t.Fatalf("single create: %v", err)
		}
	}

	for step := 0; step < 1500; step++ {
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
			var demand int64
			if rng.Intn(2) == 0 {
				demand = int64(4) << rng.Intn(6)
			}
			r1, err1 := sc.MarryDemand(u, v, demand)
			r2, err2 := uc.MarryDemand(u, v, demand)
			if (err1 == nil) != (err2 == nil) || r1 != r2 {
				t.Fatalf("MarryDemand(%d,%d,%d) diverged: (%v,%v) vs (%v,%v)", u, v, demand, r1, err1, r2, err2)
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
		// The entity space is edge slots; both sides must agree on its size
		// and on every slot's next answer from several alignments.
		ss, err := sc.windowSchedule(1, 1)
		if err != nil {
			t.Fatalf("sharded slots: %v", err)
		}
		us, err := uc.windowSchedule(1, 1)
		if err != nil {
			t.Fatalf("single slots: %v", err)
		}
		slots, uslots := ss.Nodes(), us.Nodes()
		if slots != uslots {
			t.Fatalf("slot counts diverged for %s: %d vs %d", id, slots, uslots)
		}
		for v := 0; v < slots; v++ {
			for _, from := range []int64{1, 97, 1 << 30} {
				sn, err1 := sc.NextHappy(v, from)
				un, err2 := uc.NextHappy(v, from)
				if (err1 == nil) != (err2 == nil) || sn != un {
					t.Fatalf("next diverged for %s slot %d from %d: (%v,%v) vs (%v,%v)", id, v, from, sn, err1, un, err2)
				}
			}
		}
		// And the poly stats blocks — density, gap ratio, relayering count —
		// must match exactly.
		sp, ok1 := sc.PolyStats()
		up, ok2 := uc.PolyStats()
		if !ok1 || !ok2 || sp != up {
			t.Fatalf("poly stats diverged for %s: %+v vs %+v", id, sp, up)
		}
	}
}
