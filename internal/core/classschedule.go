package core

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/graph"
)

// ClassSchedule is the closed form of a schedule whose entities fall into
// classes sharing one (period, offset): class k fires at every holiday
// t ≡ offsets[k] (mod periods[k]), and an entity is happy exactly when its
// class fires. It is the frozen form the serving layer publishes. In the §4
// color-bound schedule a class is a color, and prefix-freeness lets at most
// one color fire per holiday; poly's classes are its matching layers, whose
// dyadic residue classes are disjoint the same way. So Window walks one
// progression per class rather than one per entity, and on a holiday where
// one class fires hands visit that class's member list as stored.
//
// Storage is one member list per class and a class index of one int32 per
// entity, cut into pages of classPage entries behind a table of page
// pointers: 12 B per entity, plus a slice header per class and a pointer
// per page. With derives a patched schedule that copies only the pages and
// member lists a move touches and shares the rest; in the index a move
// copies one 512 B page and the page pointer table, 8 B per page. Schedules
// whose per-entity progressions overlap on most holidays, such as §5
// degree-bound, keep the per-entity form of NewPeriodicSchedule. A
// ClassSchedule is immutable and safe for concurrent use.
type ClassSchedule struct {
	name    string
	periods []int64             // per class, in [1, MaxHoliday]
	offsets []int64             // per class, in [0, period)
	members [][]int             // per class: its entities in increasing order, capacity clipped
	pages   []*[classPage]int32 // entity v's class, or -1 for none, is pages[v/classPage][v%classPage]; -1 past n
	n       int                 // entities
}

// classPage is how many entities one page of the class index covers: a
// patch copies the page of each entity it moves, so the page bounds a
// patch's copying of the index.
const classPage = 128

// NewClassSchedule builds a ClassSchedule over len(class) entities: entity
// v belongs to class class[v], or to no class when class[v] is -1, and
// class k fires at the holidays t ≡ offsets[k] (mod periods[k]). It takes
// ownership of the slices.
func NewClassSchedule(name string, periods, offsets []int64, class []int32) (*ClassSchedule, error) {
	if len(periods) != len(offsets) {
		return nil, fmt.Errorf("core: %d class periods but %d offsets", len(periods), len(offsets))
	}
	for k, p := range periods {
		if err := checkTiming(k, p, offsets[k]); err != nil {
			return nil, err
		}
	}
	// Counting sort by class: count, prefix-sum, fill forward (which moves
	// each start to its class's end), then shift the ends back into starts.
	starts := make([]int, len(periods)+1)
	for v, k := range class {
		if k < -1 || int(k) >= len(periods) {
			return nil, fmt.Errorf("core: entity %d has class %d, want -1 or below %d", v, k, len(periods))
		}
		if k >= 0 {
			starts[k+1]++
		}
	}
	for k := range periods {
		starts[k+1] += starts[k]
	}
	all := make([]int, starts[len(periods)])
	for v, k := range class {
		if k >= 0 {
			all[starts[k]] = v
			starts[k]++
		}
	}
	copy(starts[1:], starts)
	starts[0] = 0
	members := make([][]int, len(periods))
	for k := range members {
		members[k] = all[starts[k]:starts[k+1]:starts[k+1]]
	}
	// Full pages point into class; a partial last page is a copy padded
	// with -1, so an appended entity starts in no class.
	pages := make([]*[classPage]int32, (len(class)+classPage-1)/classPage)
	full := len(class) / classPage
	for i := range full {
		pages[i] = (*[classPage]int32)(class[i*classPage:])
	}
	if full < len(pages) {
		pages[full] = blankPage()
		copy(pages[full][:], class[full*classPage:])
	}
	return &ClassSchedule{name: name, periods: periods, offsets: offsets, members: members, pages: pages, n: len(class)}, nil
}

// checkTiming validates class k's period and offset.
func checkTiming(k int, period, offset int64) error {
	if period < 1 || period > MaxHoliday {
		return fmt.Errorf("core: class %d has period %d outside [1, %d]", k, period, MaxHoliday)
	}
	if offset < 0 || offset >= period {
		return fmt.Errorf("core: class %d has offset %d outside [0, %d)", k, offset, period)
	}
	return nil
}

// blankPage returns a new page of the class index with every entity in no
// class.
func blankPage() *[classPage]int32 {
	page := new([classPage]int32)
	for i := range page {
		page[i] = -1
	}
	return page
}

// Move places one entity of a ClassSchedule in a class, or in none.
type Move struct {
	// Entity is the entity moved, or Nodes() to append one.
	Entity int
	// Class is the entity's new class: -1 for none, an existing class, or
	// Classes() to append one.
	Class int32
	// Period and Offset are Class's timing. They set the timing of an
	// appended class and of a class without members, and must equal the
	// timing of a class that has members. A move to no class ignores them.
	Period, Offset int64
}

// With returns a schedule that answers like cs with the moves applied in
// order; cs itself is unchanged and stays valid. Each move copies only what
// it touches: the page of the class index its entity sits on, the member
// lists of the classes it leaves and joins, and the tables of one pointer
// per page and one slice header per class. Everything else is shared with
// cs. A move into a class that has members at another timing, or of an
// entity or into a class beyond the next one, is an error, returned with a
// nil schedule.
func (cs *ClassSchedule) With(moves ...Move) (*ClassSchedule, error) {
	for _, m := range moves {
		var err error
		if cs, err = cs.with(m); err != nil {
			return nil, err
		}
	}
	return cs, nil
}

// with applies one Move.
func (cs *ClassSchedule) with(m Move) (*ClassSchedule, error) {
	v, k := m.Entity, m.Class
	if v < 0 || v > cs.n {
		return nil, fmt.Errorf("core: move of entity %d, want at most %d", v, cs.n)
	}
	if k < -1 || int(k) > len(cs.periods) {
		return nil, fmt.Errorf("core: move to class %d, want -1 to %d", k, len(cs.periods))
	}
	next := *cs
	if k >= 0 {
		if err := checkTiming(int(k), m.Period, m.Offset); err != nil {
			return nil, err
		}
		if int(k) == len(cs.periods) || len(cs.members[k]) == 0 {
			next.periods, next.offsets = set(cs.periods, int(k), m.Period), set(cs.offsets, int(k), m.Offset)
		} else if cs.periods[k] != m.Period || cs.offsets[k] != m.Offset {
			return nil, fmt.Errorf("core: class %d fires at %d mod %d, not %d mod %d",
				k, cs.offsets[k], cs.periods[k], m.Offset, m.Period)
		}
	}
	old := int32(-1)
	if v < cs.n {
		if old = cs.classOf(v); old == k {
			return cs, nil
		}
	} else {
		next.n++
	}
	p := v / classPage
	var page *[classPage]int32
	if p < len(cs.pages) {
		page = new([classPage]int32)
		*page = *cs.pages[p]
	} else {
		page = blankPage()
	}
	page[v%classPage] = k
	next.pages = set(cs.pages, p, page)
	if old < 0 && k < 0 {
		return &next, nil
	}
	next.members = make([][]int, len(next.periods))
	copy(next.members, cs.members)
	if old >= 0 {
		l := cs.members[old]
		i, _ := slices.BinarySearch(l, v)
		next.members[old] = spliced(l, i, i+1)
	}
	if k >= 0 {
		l := next.members[k]
		i, _ := slices.BinarySearch(l, v)
		next.members[k] = spliced(l, i, i, v)
	}
	return &next, nil
}

// set returns a copy of s with s[i] = x, one longer when i is len(s).
func set[T any](s []T, i int, x T) []T {
	c := make([]T, max(len(s), i+1))
	copy(c, s)
	c[i] = x
	return c
}

// spliced returns l[:i] + x + l[j:] in a new slice whose capacity is its
// length, as Window needs of a member list.
func spliced(l []int, i, j int, x ...int) []int {
	s := make([]int, 0, i+len(x)+len(l)-j)
	return append(append(append(s, l[:i]...), x...), l[j:]...)
}

// classOf returns entity v's class, or -1 for none.
func (cs *ClassSchedule) classOf(v int) int32 { return cs.pages[v/classPage][v%classPage] }

// Name implements Schedule.
func (cs *ClassSchedule) Name() string { return cs.name }

// Nodes returns the number of entities the schedule covers.
func (cs *ClassSchedule) Nodes() int { return cs.n }

// Classes returns the number of classes, those without members included.
func (cs *ClassSchedule) Classes() int { return len(cs.periods) }

// RandomAccess implements Schedule: every answer is closed form.
func (cs *ClassSchedule) RandomAccess() bool { return true }

// HappySet implements Schedule.
func (cs *ClassSchedule) HappySet(t int64) []int { return cs.appendHappy(nil, t) }

// appendHappy appends the members of every class firing at t to dst, in
// increasing entity order.
func (cs *ClassSchedule) appendHappy(dst []int, t int64) []int {
	base, fired := len(dst), 0
	for k, p := range cs.periods {
		if len(cs.members[k]) > 0 && t%p == cs.offsets[k] {
			dst = append(dst, cs.members[k]...)
			fired++
		}
	}
	if fired > 1 {
		slices.Sort(dst[base:])
	}
	return dst
}

// NextHappy implements Schedule: the smallest t ≥ max(from, 1) with
// t ≡ offset (mod period) of v's class, or 0 when v has no class or the
// query exceeds MaxHoliday.
func (cs *ClassSchedule) NextHappy(v int, from int64) int64 {
	if v < 0 || v >= cs.n || from > MaxHoliday {
		return 0
	}
	k := cs.classOf(v)
	if k < 0 {
		return 0
	}
	from = max(from, 1)
	return from + untilFiring(cs.periods[k], cs.offsets[k], from)
}

// untilFiring returns how many holidays after t a progression of period p
// and offset off fires next, 0 when it fires at t: (off − t) mod p, in
// [0, p). A power-of-two period, as every color-bound and poly period is,
// takes one mask; any other one remainder and a sign fix.
func untilFiring(p, off, t int64) int64 {
	d := off - t
	if p&(p-1) == 0 {
		return d & (p - 1)
	}
	if d %= p; d < 0 {
		d += p
	}
	return d
}

// classScratch is the working set of one Window or WindowBits call, pooled
// so that steady-state serving allocates none of it. rows and rowAt are
// WindowBits' memo of the rows it has packed in the current call: each
// call starts them empty, so no row outlives the call that packed it.
type classScratch struct {
	next   []int64  // per class: its next firing, counted from the block start
	fire   []int32  // per holiday of the block: the class firing, noClass or manyClasses
	merged []int    // the happy set of a holiday several classes share
	rows   []uint64 // WindowBits' packed rows, ⌈n/64⌉ words each, in the order first needed
	rowAt  []int    // per class, then for the zero row: 1 + the offset of its row in rows, or 0 before it is packed
}

var classScratchPool = sync.Pool{New: func() any { return new(classScratch) }}

// classRowsMax caps the row memo, in bytes, of a scratch WindowBits returns
// to classScratchPool: a rare giant window over a large schedule allocates
// its own rows instead of pinning them in the pool.
const classRowsMax = 1 << 20

// pack appends a row of words words holding the bits of happy to sc.rows
// and returns its offset there.
func (sc *classScratch) pack(words int, happy []int) int {
	at := len(sc.rows)
	sc.rows = append(sc.rows, make([]uint64, words)...)
	row := graph.Bitset(sc.rows[at:])
	for _, v := range happy {
		row.Set(v)
	}
	return at
}

// Markers in classScratch.fire: no class fires, or several classes do.
const (
	noClass     = -1
	manyClasses = -2
)

// Window implements Schedule. It walks each class's progression through
// the window in windowBlock-sized blocks, marking the class that fires on
// each holiday, so its work is O(classes + span + output) wherever the
// window starts. On a holiday where one class fires, happy is that class's
// member list: the schedule's own storage, shared by every reader and by
// the schedules With derives, with its capacity clipped so that an append
// by visit copies instead of writing into it. Where several classes fire,
// their members are merged in entity order into a scratch buffer.
func (cs *ClassSchedule) Window(from, to int64, visit func(t int64, happy []int)) {
	to = min(to, MaxHoliday)
	if from < 1 || to < from {
		return
	}
	sc := classScratchPool.Get().(*classScratch)
	defer classScratchPool.Put(sc)
	next := slices.Grow(sc.next[:0], len(cs.periods))[:len(cs.periods)]
	for k, p := range cs.periods {
		if len(cs.members[k]) > 0 { // no block reads a class without members
			next[k] = untilFiring(p, cs.offsets[k], from)
		}
	}
	blockLen := int(min(to-from+1, windowBlock))
	fire := slices.Grow(sc.fire[:0], blockLen)[:blockLen]
	sc.next, sc.fire = next, fire
	for blo := from; blo <= to; blo += windowBlock {
		block := fire[:min(to-blo+1, windowBlock)]
		n := int64(len(block))
		for i := range block {
			block[i] = noClass
		}
		for k, p := range cs.periods {
			if len(cs.members[k]) == 0 {
				continue // a class without members makes nobody happy
			}
			d := next[k]
			for ; d < n; d += p {
				if block[d] == noClass {
					block[d] = int32(k)
				} else {
					block[d] = manyClasses
				}
			}
			next[k] = d - n
		}
		for i, k := range block {
			t := blo + int64(i)
			switch k {
			case noClass:
				visit(t, nil)
			case manyClasses:
				sc.merged = cs.appendHappy(sc.merged[:0], t)
				visit(t, sc.merged)
			default:
				visit(t, cs.members[k])
			}
		}
	}
}

// WindowBits streams the window as word-packed happy bitmaps, one
// ⌈n/64⌉-word row per holiday — the rows the binary wire format
// (internal/wire) serializes. A class's row is packed the first time the
// class fires in the window and handed to visit again, unchanged, on every
// later holiday of the class; the holidays no class fires on share one
// zero row. A holiday where several classes fire, which the color-bound
// and poly freezers never produce, gets a merged row of its own, never
// memoized. Each row is made only when a holiday needs it, so the memo
// never holds more rows than the window itself, and it lasts for the call
// alone: no per-class bitmap is kept between calls. visit must not modify
// the row, and may use it only until it returns.
func (cs *ClassSchedule) WindowBits(from, to int64, visit func(t int64, row graph.Bitset)) {
	sc := classScratchPool.Get().(*classScratch)
	defer func() {
		if cap(sc.rows)*8 <= classRowsMax {
			classScratchPool.Put(sc)
		}
	}()
	words := (cs.n + 63) / 64
	row := func(at int) graph.Bitset { return graph.Bitset(sc.rows[at : at+words : at+words]) }
	rowAt := slices.Grow(sc.rowAt[:0], len(cs.periods)+1)[:len(cs.periods)+1]
	clear(rowAt)
	sc.rowAt, sc.rows = rowAt, sc.rows[:0]
	cs.Window(from, to, func(t int64, happy []int) {
		slot := len(cs.periods) // the zero row's
		if len(happy) > 0 {
			// Window hands a lone firing class's member list as stored, and a
			// merged happy set is longer than any one class's.
			if slot = int(cs.classOf(happy[0])); len(happy) > len(cs.members[slot]) {
				visit(t, row(sc.pack(words, happy)))
				return
			}
		}
		if rowAt[slot] == 0 {
			rowAt[slot] = 1 + sc.pack(words, happy)
		}
		visit(t, row(rowAt[slot]-1))
	})
}
