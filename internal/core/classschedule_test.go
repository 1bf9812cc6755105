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

// windowBitsMismatch compares every row WindowBits hands for [from, to]
// with a row packed from the happy set Window gives the same holiday, and
// describes the first difference, or returns nil.
func windowBitsMismatch(cs *ClassSchedule, from, to int64) error {
	var ts []int64
	var want []graph.Bitset
	cs.Window(from, to, func(t int64, happy []int) {
		row := graph.NewBitset(cs.Nodes())
		for _, v := range happy {
			row.Set(v)
		}
		ts, want = append(ts, t), append(want, row)
	})
	var err error
	i := 0
	cs.WindowBits(from, to, func(t int64, row graph.Bitset) {
		switch {
		case err != nil:
		case i >= len(ts) || t != ts[i]:
			err = fmt.Errorf("%s [%d,%d]: WindowBits visited holiday %d at position %d", cs.Name(), from, to, t, i)
		case !slices.Equal(row, want[i]):
			err = fmt.Errorf("%s [%d,%d]: holiday %d: WindowBits %x, packed from Window %x", cs.Name(), from, to, t, row, want[i])
		}
		i++
	})
	if err == nil && i != len(ts) {
		err = fmt.Errorf("%s [%d,%d]: WindowBits emitted %d rows, want %d", cs.Name(), from, to, i, len(ts))
	}
	return err
}

// TestClassScheduleWindowBitsMemo: WindowBits packs a class's row once per
// call and hands it on every holiday the class fires, so each row must
// equal the one packed from Window's happy set. The schedules: "half",
// whose period-2 class fires on every other holiday, with a class without
// members, entities in no class and holidays no class fires on, read at
// spans 52 and 512 and across a windowBlock boundary; "merge", whose
// merged holidays (two different unions) fall between single-class
// holidays of both their classes; and a frozen color-bound schedule. They
// differ in size and class count and are read back to back, so one pooled
// scratch serves them all, and then "half" is read from 8 goroutines at
// once. Run it with -race -count=10.
func TestClassScheduleWindowBitsMemo(t *testing.T) {
	// Residue classes 1 mod 2, 0 mod 4, 2 mod 8 and 6 mod 16, and 14 mod
	// 16 for class 4, which has no members: nothing fires at 14 mod 16.
	half := make([]int32, 300)
	for v := range half {
		half[v] = int32(v % 5)
		if v%5 == 4 || v%7 == 0 {
			half[v] = -1
		}
	}
	halfCS, err := NewClassSchedule("half", []int64{2, 4, 8, 16, 16}, []int64{1, 0, 2, 6, 14}, half)
	if err != nil {
		t.Fatal(err)
	}
	// Classes (2,0) and (3,0) fire together at every multiple of 6, and
	// (2,0) and (9000,8200) at 8200; class 3 has no members.
	mergeCS, err := NewClassSchedule("merge", []int64{2, 3, 6, 5, 9000}, []int64{0, 0, 1, 4, 8200},
		[]int32{1, 0, 2, 0, 1, 2, 0, 1, 0, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	dc, err := NewDynamicColorBound(graph.GNP(130, 0.06, 7), prefixcode.Omega{})
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := dc.FrozenSchedule()
	if err != nil {
		t.Fatal(err)
	}
	halfWindows := [][2]int64{
		{1, 52}, {1000, 1511},
		{windowBlock - 30, windowBlock + 21}, {windowBlock - 255, windowBlock + 256},
		{MaxHoliday - 51, MaxHoliday},
	}
	for round := 0; round < 3; round++ {
		for i, w := range halfWindows {
			for _, err := range []error{
				windowBitsMismatch(halfCS, w[0], w[1]),
				windowBitsMismatch(mergeCS, 1, 52),
				windowBitsMismatch(frozen, w[0], w[1]),
				windowBitsMismatch(mergeCS, 8150+int64(i), 8250),
			} {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				w := halfWindows[(g+i)%len(halfWindows)]
				if err := windowBitsMismatch(halfCS, w[0], w[1]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkWindowBits serves binary window rows from the four graphs of
// benchkit's mixed scenario, built as its drivers build them at seed 1
// (gnp:n=256,p=0.03, gnp:n=4096,p=0.002, cycle:n=2048 and clique:n=48 at
// seeds 1 to 4) and frozen under the omega code. Each op is one window of
// span 1 to 52 starting in [1, 2^30], as the scenario draws them, from a
// fixed seed, cycling the graphs, and appends every row with AppendBytes
// as the binary window endpoint does.
func BenchmarkWindowBits(b *testing.B) {
	var scheds []*ClassSchedule
	for i, spec := range []string{"gnp:n=256,p=0.03", "gnp:n=4096,p=0.002", "cycle:n=2048", "clique:n=48"} {
		g, err := graph.ParseSpec(spec, uint64(1+i))
		if err != nil {
			b.Fatal(err)
		}
		dc, err := NewDynamicColorBound(g, prefixcode.Omega{})
		if err != nil {
			b.Fatal(err)
		}
		cs, err := dc.FrozenSchedule()
		if err != nil {
			b.Fatal(err)
		}
		scheds = append(scheds, cs)
	}
	type window struct {
		cs       *ClassSchedule
		from, to int64
	}
	r := rand.New(rand.NewPCG(34, 52))
	windows := make([]window, 1024)
	for i := range windows {
		from := 1 + r.Int64N(1<<30)
		windows[i] = window{scheds[i%len(scheds)], from, from + r.Int64N(52)}
	}
	buf := make([]byte, 0, 64<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := windows[i%len(windows)]
		buf = buf[:0]
		w.cs.WindowBits(w.from, w.to, func(_ int64, row graph.Bitset) { buf = row.AppendBytes(buf) })
	}
}
