package poly

import (
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/wire"
)

// polyWindowSeeds are the committed seed inputs of FuzzPolyWindowRoundTrip,
// run as a plain test too so the corpus is exercised on every `go test`.
var polyWindowSeeds = []struct {
	seed  uint64
	n     uint8
	m     uint8
	churn uint8
	from  int64
	span  uint8
}{
	{0, 16, 24, 0, 1, 64},
	{1, 2, 1, 0, 1, 1},
	{2, 64, 128, 40, 37, 200},
	{3, 8, 12, 200, 1 << 40, 16},
	{4, 255, 255, 64, 511, 130}, // crosses the 512 boundary region
	{5, 3, 3, 1, 1, 255},        // unit demands: inflated instance
}

// checkPolyWindowRoundTrip builds a deterministic churned instance from the
// fuzzed parameters, streams a window through the real wire encoding
// (WindowBits → WindowResp frame), decodes it, and requires it to match
// HappySet exactly — and every decoded row to be a matching. During the
// churn every applied AddEdge must take the lowest slot a linear scan finds
// vacant, or append one when none is: the placement rule replay, restore
// and the wire depend on, whatever structure finds the slot.
func checkPolyWindowRoundTrip(t *testing.T, seed uint64, n8, m8, churn uint8, from int64, span8 uint8) {
	t.Helper()
	n := int(n8)%255 + 2
	rng := rand.New(rand.NewPCG(seed, 0xbadcafe))
	d, err := New(n, Codes()[int(seed)%len(Codes())])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < int(m8); i++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u != v {
			d.AddEdge(u, v, int64(1)<<rng.IntN(10))
		}
	}
	for i := 0; i < int(churn); i++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v {
			continue
		}
		if rng.Float64() < 0.5 {
			d.RemoveEdge(u, v)
			continue
		}
		want := lowestVacant(d)
		if applied, _ := d.AddEdge(u, v, int64(1)<<rng.IntN(10)); applied {
			if got := d.byEdge[canon(u, v)]; got != want {
				t.Fatalf("churn op %d: AddEdge(%d, %d) took slot %d, want the lowest vacant slot %d", i, u, v, got, want)
			}
		}
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	s := d.FrozenSchedule()
	slots := s.Nodes()

	if from < 1 {
		from = 1
	}
	span := int64(span8)%256 + 1
	to := from + span - 1

	// Encode exactly as the binary serving path does.
	rows := 0
	buf := []byte(nil)
	s.WindowBits(from, to, func(tt int64, row graph.Bitset) { rows++ })
	buf = wire.AppendWindowRespHeader(buf, slots, from, rows)
	s.WindowBits(from, to, func(tt int64, row graph.Bitset) {
		buf = row.AppendBytes(buf)
	})

	fr, rest, err := wire.Split(buf)
	if err != nil || len(rest) != 0 {
		t.Fatalf("Split of a fresh poly window failed: %v (%d rest)", err, len(rest))
	}
	wr, err := fr.WindowResp()
	if err != nil {
		t.Fatal(err)
	}
	if wr.N != slots || wr.From != from || wr.Rows != rows {
		t.Fatalf("header (n=%d from=%d rows=%d), want (%d, %d, %d)", wr.N, wr.From, wr.Rows, slots, from, rows)
	}
	var happy []int
	used := map[int]bool{}
	for i := 0; i < wr.Rows; i++ {
		tt := wr.Holiday(i)
		happy = wr.AppendHappy(happy[:0], i)
		if !equalSets(happy, s.HappySet(tt)) {
			t.Fatalf("holiday %d decoded %v, HappySet %v", tt, happy, s.HappySet(tt))
		}
		clear(used)
		for _, slot := range happy {
			u, v, _, ok := d.Edge(slot)
			if !ok {
				t.Fatalf("holiday %d decoded vacant slot %d", tt, slot)
			}
			if used[u] || used[v] {
				t.Fatalf("holiday %d decoded a non-matching row %v", tt, happy)
			}
			used[u], used[v] = true, true
		}
	}
}

// lowestVacant returns the slot the next AddEdge must take: the lowest
// vacant one by a linear scan, or the next index when none is vacant.
func lowestVacant(d *Dyn) int {
	for slot := range d.Slots() {
		if _, _, _, ok := d.Edge(slot); !ok {
			return slot
		}
	}
	return d.Slots()
}

// FuzzPolyWindowRoundTrip drives the poly window encode/decode round trip
// with fuzzed instance and window parameters: the packed frames a poly
// community serves must decode back to its HappySet exactly, and every
// row must be a matching.
func FuzzPolyWindowRoundTrip(f *testing.F) {
	for _, s := range polyWindowSeeds {
		f.Add(s.seed, s.n, s.m, s.churn, s.from, s.span)
	}
	f.Fuzz(func(t *testing.T, seed uint64, n8, m8, churn uint8, from int64, span8 uint8) {
		checkPolyWindowRoundTrip(t, seed, n8, m8, churn, from, span8)
	})
}

// TestPolyWindowRoundTripSeeds runs the committed fuzz corpus inline.
func TestPolyWindowRoundTripSeeds(t *testing.T) {
	for _, s := range polyWindowSeeds {
		checkPolyWindowRoundTrip(t, s.seed, s.n, s.m, s.churn, s.from, s.span)
	}
}

// TestConcurrentChurnAndFrozenReads is the race-detector leg of the
// matching property: a writer churns the live instance and publishes each
// edit as a patch of the current snapshot (With of the moved slot), or a
// fresh freeze after a relayering and every 50th step — the serving
// layer's pattern — while readers hold whatever snapshot is current and
// window it twice, asserting matching-validity on every emitted timeslot
// and that both passes agree. Under -race this proves patched schedules
// share storage immutably and snapshot publication is clean.
func TestConcurrentChurnAndFrozenReads(t *testing.T) {
	const n = 48
	d, err := New(n, CodeLayering)
	if err != nil {
		t.Fatal(err)
	}
	type frozen struct {
		s   *core.ClassSchedule
		dyn *Dyn // restored copy pinned to the snapshot, for Edge lookups
	}
	var cur atomic.Pointer[frozen]
	publish := func(s *core.ClassSchedule) {
		pin, err := Restore(d.Export())
		if err != nil {
			t.Fatal(err)
		}
		cur.Store(&frozen{s: s, dyn: pin})
	}
	rng := rand.New(rand.NewPCG(3, 3))
	for i := 0; i < 60; i++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u != v {
			d.AddEdge(u, v, 64)
		}
	}
	publish(d.FrozenSchedule())

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			used := make(map[int]bool, 8)
			for i := int64(1); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f := cur.Load()
				from := i%800 + 1
				var first [][]int
				f.s.Window(from, from+63, func(tt int64, happy []int) {
					first = append(first, happy)
					clear(used)
					for _, slot := range happy {
						u, v, _, ok := f.dyn.Edge(slot)
						if !ok {
							t.Errorf("holiday %d schedules vacant slot %d", tt, slot)
							return
						}
						if used[u] || used[v] {
							t.Errorf("holiday %d is not a matching", tt)
							return
						}
						used[u], used[v] = true, true
					}
				})
				f.s.Window(from, from+63, func(tt int64, happy []int) {
					if !slices.Equal(happy, first[tt-from]) {
						t.Errorf("holiday %d answered %v, then %v", tt, first[tt-from], happy)
					}
				})
			}
		}(r)
	}
	patches := 0
	for step := 0; step < 600; step++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v {
			continue
		}
		op := core.EditDelete
		if rng.Float64() < 0.55 {
			op = core.EditInsert
		}
		res := d.Apply(core.Edit{Op: op, U: u, V: v, Demand: int64(1) << (4 + rng.IntN(6))})
		switch {
		case !res.Applied:
		case res.Recolored || step%50 == 0:
			publish(d.FrozenSchedule())
		default:
			s, err := cur.Load().s.With(d.Moved())
			if err != nil {
				t.Fatal(err)
			}
			publish(s)
			patches++
		}
	}
	close(stop)
	wg.Wait()
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	if patches == 0 {
		t.Fatal("no edit patched a snapshot")
	}
}
