package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/prefixcode"
)

// classWindows are the windows the class-form differential tests compare:
// spans 1, 52 and windowBlock, a span of three blocks, windows ending at
// (and clamped to) MaxHoliday, and empty windows.
var classWindows = [][2]int64{
	{1, 1}, {7, 7},
	{1, 52}, {1_000_003, 1_000_054},
	{1, windowBlock}, {37, 37 + windowBlock - 1},
	{5, 5 + 2*windowBlock + 36},
	{MaxHoliday - 51, MaxHoliday}, {MaxHoliday - 10, MaxHoliday + 5},
	{0, 3}, {9, 3}, {MaxHoliday + 1, MaxHoliday + 2},
}

// perFamily returns the per-family form of dc's current coloring, the
// reference the class form is compared with.
func perFamily(t *testing.T, dc *DynamicColorBound) Schedule {
	t.Helper()
	periods := make([]int64, dc.N())
	offsets := make([]int64, dc.N())
	for v := range periods {
		enc := dc.Code().Encode(uint64(dc.Color(v)))
		periods[v] = int64(1) << uint(enc.Len())
		offsets[v] = int64(enc.Value())
	}
	ref, err := NewFixedPeriodic(dc.Name(), periods, offsets)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// windowRows records a window's happy sets, copied out of the callback.
func windowRows(s Schedule, from, to int64) (ts []int64, rows [][]int) {
	s.Window(from, to, func(t int64, happy []int) {
		ts = append(ts, t)
		rows = append(rows, append([]int(nil), happy...))
	})
	return ts, rows
}

// checkClassSchedule compares every access path of cs with ref, the
// per-family form of the same assignment: Window on classWindows,
// byte-identical WindowBits rows, NextHappy, HappySet and Nodes. Entities
// in none have no class; ref gives them some progression, which is
// filtered out of its answers, and cs must never make them happy.
func checkClassSchedule(t *testing.T, label string, cs *ClassSchedule, ref Schedule, n int, none map[int]bool) {
	t.Helper()
	filter := func(happy []int) []int {
		return slices.DeleteFunc(happy, func(v int) bool { return none[v] })
	}
	if cs.Nodes() != n {
		t.Fatalf("%s: Nodes() = %d, want %d", label, cs.Nodes(), n)
	}
	for _, w := range classWindows {
		wantT, want := windowRows(ref, w[0], w[1])
		gotT, got := windowRows(cs, w[0], w[1])
		if !slices.Equal(gotT, wantT) {
			t.Fatalf("%s: window [%d,%d] visited %d holidays, want %d", label, w[0], w[1], len(gotT), len(wantT))
		}
		for i := range want {
			if want[i] = filter(want[i]); !sameSet(got[i], want[i]) {
				t.Fatalf("%s: holiday %d: Window %v, per-family %v", label, wantT[i], got[i], want[i])
			}
		}
		i := 0
		ref := graph.NewBitset(n)
		cs.WindowBits(w[0], w[1], func(tt int64, row graph.Bitset) {
			if i >= len(want) || tt != wantT[i] {
				t.Fatalf("%s: WindowBits [%d,%d] visited holiday %d at position %d", label, w[0], w[1], tt, i)
			}
			ref.Reset()
			for _, v := range want[i] {
				ref.Set(v)
			}
			if !slices.Equal([]uint64(row), []uint64(ref)) {
				t.Fatalf("%s: holiday %d: WindowBits %x, per-family %x", label, tt, row, ref)
			}
			i++
		})
		if i != len(want) {
			t.Fatalf("%s: WindowBits [%d,%d] emitted %d rows, want %d", label, w[0], w[1], i, len(want))
		}
	}
	for _, tt := range []int64{-4, 0, 1, 2, 3, 52, 130, 4097, MaxHoliday} {
		if got, want := cs.HappySet(tt), filter(ref.HappySet(tt)); !sameSet(got, want) {
			t.Fatalf("%s: HappySet(%d) = %v, per-family %v", label, tt, got, want)
		}
	}
	for v := -1; v <= n; v++ {
		for _, from := range []int64{-5, 0, 1, 2, 53, 999_999, MaxHoliday - 3, MaxHoliday, MaxHoliday + 1} {
			want := ref.NextHappy(v, from)
			if none[v] {
				want = 0
			}
			if got := cs.NextHappy(v, from); got != want {
				t.Fatalf("%s: NextHappy(%d, %d) = %d, want %d", label, v, from, got, want)
			}
		}
	}
}

// TestClassScheduleMatchesPerFamily: the class form DynamicColorBound
// freezes answers exactly like the per-family form of the same coloring,
// under every prefix code, on seeded random graphs after seeded churn.
func TestClassScheduleMatchesPerFamily(t *testing.T) {
	for _, code := range prefixcode.All() {
		for seed := uint64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewPCG(seed, 0xc1a55))
			n := []int{1, 40, 70, 130}[seed-1]
			dc, err := NewDynamicColorBound(graph.GNP(n, 0.06, seed), code)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2*n; i++ {
				u, v := rng.IntN(n), rng.IntN(n)
				switch {
				case u == v:
				case dc.HasEdge(u, v):
					dc.RemoveEdge(u, v)
				default:
					if _, err := dc.AddEdge(u, v); err != nil {
						t.Fatal(err)
					}
				}
			}
			cs, err := dc.FrozenSchedule()
			if err != nil {
				t.Fatal(err)
			}
			checkClassSchedule(t, fmt.Sprintf("%s/seed%d", code.Name(), seed), cs, perFamily(t, dc), n, nil)
		}
	}
}

// TestClassScheduleMergesFiringClasses: hand-built assignments the
// color-bound and poly freezers never produce — classes that fire together
// (the merge path) and entities in no class — still answer like the
// per-family form.
func TestClassScheduleMergesFiringClasses(t *testing.T) {
	// Classes (2,0), (3,0) and (6,1): at every multiple of 6 the first two
	// fire together. Class 3 has no members, and class 4's period spans
	// more than two windowBlocks, so its first firing in the three-block
	// window lies in the third block.
	periods := []int64{2, 3, 6, 5, 9000}
	offsets := []int64{0, 0, 1, 4, 8200}
	class := []int32{1, 0, 2, 0, 1, 2, 0, 1, 0, 1, 4}
	cs, err := NewClassSchedule("merge", periods, offsets, append([]int32(nil), class...))
	if err != nil {
		t.Fatal(err)
	}
	ref := fixedFromClasses(t, periods, offsets, class)
	checkClassSchedule(t, "merge", cs, ref, len(class), nil)
	if got := cs.HappySet(6); !slices.Equal(got, []int{0, 1, 3, 4, 6, 7, 8, 9}) {
		t.Fatalf("HappySet(6) = %v, want the two classes merged in entity order", got)
	}

	// Entities 1, 4 and 70 have no class (70 sits in a second bitmap word).
	class = make([]int32, 71)
	for v := range class {
		class[v] = int32(v % 3)
	}
	none := map[int]bool{1: true, 4: true, 70: true}
	for v := range none {
		class[v] = -1
	}
	cs, err = NewClassSchedule("none", periods[:3], offsets[:3], append([]int32(nil), class...))
	if err != nil {
		t.Fatal(err)
	}
	for v := range none {
		class[v] = 0 // any progression: the check filters these entities out
	}
	checkClassSchedule(t, "none", cs, fixedFromClasses(t, periods, offsets, class), len(class), none)

	// No classes at all: nobody is ever happy.
	cs, err = NewClassSchedule("empty", nil, nil, []int32{-1, -1})
	if err != nil {
		t.Fatal(err)
	}
	checkClassSchedule(t, "empty", cs, fixedFromClasses(t, []int64{1}, []int64{0}, []int32{0, 0}), 2, map[int]bool{0: true, 1: true})
}

// fixedFromClasses is the per-family form of a class assignment.
func fixedFromClasses(t *testing.T, periods, offsets []int64, class []int32) Schedule {
	t.Helper()
	p := make([]int64, len(class))
	o := make([]int64, len(class))
	for v, k := range class {
		p[v], o[v] = periods[k], offsets[k]
	}
	ref, err := NewFixedPeriodic("ref", p, o)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestNewClassScheduleValidates pins the constructor's input checks.
func TestNewClassScheduleValidates(t *testing.T) {
	bad := []struct {
		periods, offsets []int64
		class            []int32
	}{
		{[]int64{2}, nil, nil},
		{[]int64{0}, []int64{0}, nil},
		{[]int64{MaxHoliday + 1}, []int64{0}, nil},
		{[]int64{4}, []int64{4}, nil},
		{[]int64{4}, []int64{-1}, nil},
		{[]int64{4}, []int64{1}, []int32{0, 1}},
		{[]int64{4}, []int64{1}, []int32{-2}},
	}
	for i, b := range bad {
		if _, err := NewClassSchedule("bad", b.periods, b.offsets, b.class); err == nil {
			t.Errorf("case %d: invalid assignment accepted", i)
		}
	}
}

// TestClassScheduleWindowIsReadOnlySafe: visit receives the schedule's own
// member storage with its capacity clipped, so an append by a careless
// caller copies instead of overwriting the next class's members.
func TestClassScheduleWindowIsReadOnlySafe(t *testing.T) {
	cs, err := NewClassSchedule("clip", []int64{2, 2}, []int64{0, 1}, []int32{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	cs.Window(1, 8, func(_ int64, happy []int) {
		if cap(happy) != len(happy) {
			t.Fatalf("happy %v has capacity %d beyond its length", happy, cap(happy))
		}
		_ = append(happy, -1)
	})
	if got := cs.HappySet(1); !slices.Equal(got, []int{1, 3}) {
		t.Fatalf("an append in visit changed the schedule: HappySet(1) = %v", got)
	}
}

// TestClassScheduleConcurrentReadsUnderRefreeze: readers hold whatever
// snapshot is current and query it several times while a writer churns
// the live scheduler and publishes each recoloring as a patch of the
// current snapshot (With), and every 50th step a fresh freeze, as the
// serving layer does. Every read must match the per-family form of its
// snapshot's coloring. Run it with -race -count=10: patched snapshots share
// pages and member lists with the ones they came from and with every
// reader, and the scratch buffers come from a shared pool.
func TestClassScheduleConcurrentReadsUnderRefreeze(t *testing.T) {
	const n, horizon = 64, 160
	type snapshot struct {
		cs   *ClassSchedule
		want [][]int // per-family happy sets of holidays 1..horizon
	}
	dc, err := NewDynamicColorBound(graph.GNP(n, 0.05, 3), prefixcode.Gamma{})
	if err != nil {
		t.Fatal(err)
	}
	var cur atomic.Pointer[snapshot]
	publish := func(cs *ClassSchedule) {
		_, want := windowRows(perFamily(t, dc), 1, horizon)
		cur.Store(&snapshot{cs: cs, want: want})
	}
	cs, err := dc.FrozenSchedule()
	if err != nil {
		t.Fatal(err)
	}
	publish(cs)

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := int64(r); i < 200; i++ {
				s := cur.Load()
				from := 1 + i%(horizon-52)
				s.cs.Window(from, from+51, func(tt int64, happy []int) {
					if !sameSet(happy, s.want[tt-1]) {
						t.Errorf("holiday %d: Window %v, per-family %v", tt, happy, s.want[tt-1])
					}
					_ = append(happy, -1)
				})
				s.cs.WindowBits(from, from+51, func(tt int64, row graph.Bitset) {
					if got := row.Count(); got != len(s.want[tt-1]) {
						t.Errorf("holiday %d: WindowBits has %d bits, want %d", tt, got, len(s.want[tt-1]))
					}
				})
				for v := int(i) % 8; v < n; v += 8 {
					if next := s.cs.NextHappy(v, from); next < from || next <= horizon && !slices.Contains(s.want[next-1], v) {
						t.Errorf("family %d: NextHappy(%d) = %d, not a holiday of its", v, from, next)
					}
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	patches := 0
	for step := 0; step < 400; step++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v {
			continue
		}
		op := EditInsert
		if dc.HasEdge(u, v) {
			op = EditDelete
		}
		res, err := dc.Apply(Edit{Op: op, U: u, V: v})
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case step%50 == 0:
			if cs, err = dc.FrozenSchedule(); err != nil {
				t.Fatal(err)
			}
		case res.Recolored:
			mu, err := dc.Placement(u)
			if err != nil {
				t.Fatal(err)
			}
			mv, err := dc.Placement(v)
			if err != nil {
				t.Fatal(err)
			}
			if cs, err = cur.Load().cs.With(mu, mv); err != nil {
				t.Fatal(err)
			}
			patches++
		default:
			continue
		}
		publish(cs)
	}
	wg.Wait()
	if patches == 0 {
		t.Fatal("no recoloring patched a snapshot")
	}
}

// TestClassScheduleFirstFiring: Window and NextHappy find each class's
// first firing at or after a holiday with one mask for a power-of-two
// period and one remainder for any other. Both answer like the per-family
// reference for periods of either kind, in windows that start below the
// offsets, past every offset, and near MaxHoliday, and a class without
// members is never read.
func TestClassScheduleFirstFiring(t *testing.T) {
	periods := []int64{8, 3, 6, 1 << 40, 7, 1_000_003, 3 << 40, MaxHoliday, MaxHoliday - 1, 12}
	offsets := []int64{5, 2, 0, 1<<40 - 1, 6, 999, 3<<40 - 2, MaxHoliday - 300, 17, 11}
	const empty = 9 // the class nobody is in
	class := make([]int32, 40)
	none := map[int]bool{}
	for v := range class {
		if class[v] = int32(v % len(periods)); class[v] == empty {
			class[v], none[v] = -1, true
		}
	}
	cs, err := NewClassSchedule("first", periods, offsets, append([]int32(nil), class...))
	if err != nil {
		t.Fatal(err)
	}
	for v := range none {
		class[v] = empty // any progression: the checks filter these entities out
	}
	ref := fixedFromClasses(t, periods, offsets, class)
	checkClassSchedule(t, "first", cs, ref, len(class), none)

	filter := func(happy []int) []int {
		return slices.DeleteFunc(happy, func(v int) bool { return none[v] })
	}
	past := int64(1) << 50 // past every offset but the two near MaxHoliday
	for _, w := range [][2]int64{
		{1, 64}, {2, 3*windowBlock + 5},
		{1000, 1000 + 2*windowBlock}, {past, past + windowBlock + 9},
		{MaxHoliday - 299, MaxHoliday}, {MaxHoliday - 2*windowBlock - 1, MaxHoliday},
		{MaxHoliday - 7, MaxHoliday - 7}, {MaxHoliday, MaxHoliday},
	} {
		wantT, want := windowRows(ref, w[0], w[1])
		gotT, got := windowRows(cs, w[0], w[1])
		if !slices.Equal(gotT, wantT) {
			t.Fatalf("window [%d,%d] visited %d holidays, want %d", w[0], w[1], len(gotT), len(wantT))
		}
		for i := range want {
			if want[i] = filter(want[i]); !sameSet(got[i], want[i]) {
				t.Fatalf("window [%d,%d]: holiday %d: Window %v, per-family %v", w[0], w[1], wantT[i], got[i], want[i])
			}
		}
	}
	for v := range class {
		for _, from := range []int64{1, 4, 998, 1000, past, past + 3, 3 << 40, MaxHoliday - 301, MaxHoliday - 300, MaxHoliday - 299, MaxHoliday - 1} {
			want := ref.NextHappy(v, from)
			if none[v] {
				want = 0
			}
			if got := cs.NextHappy(v, from); got != want {
				t.Fatalf("NextHappy(%d, %d) = %d, per-family %d (class period %d, offset %d)",
					v, from, got, want, periods[class[v]], offsets[class[v]])
			}
		}
	}
}
