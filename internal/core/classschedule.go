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
// class fires. It is the frozen form the serving layer caches. In the §4
// color-bound schedule a class is a color, and prefix-freeness lets at most
// one color fire per holiday; poly's classes are its matching layers, whose
// dyadic residue classes are disjoint the same way. So Window walks one
// progression per class rather than one per entity, and on a holiday where
// one class fires hands visit that class's member list as stored.
//
// Storage is one member list grouped by class and one int32 class per
// entity, 12 B per entity. Schedules whose per-entity progressions overlap
// on most holidays, such as §5 degree-bound, keep the per-entity form of
// NewPeriodicSchedule. A ClassSchedule is immutable and safe for concurrent
// use.
type ClassSchedule struct {
	name    string
	periods []int64 // per class, in [1, MaxHoliday]
	offsets []int64 // per class, in [0, period)
	starts  []int   // class k's members are members[starts[k]:starts[k+1]]
	members []int   // entities grouped by class, increasing within a class
	class   []int32 // per entity: its class, or -1 for none (never happy)
}

// NewClassSchedule builds a ClassSchedule over len(class) entities: entity
// v belongs to class class[v], or to no class when class[v] is -1, and
// class k fires at the holidays t ≡ offsets[k] (mod periods[k]). It takes
// ownership of the slices.
func NewClassSchedule(name string, periods, offsets []int64, class []int32) (*ClassSchedule, error) {
	if len(periods) != len(offsets) {
		return nil, fmt.Errorf("core: %d class periods but %d offsets", len(periods), len(offsets))
	}
	for k, p := range periods {
		if p < 1 || p > MaxHoliday {
			return nil, fmt.Errorf("core: class %d has period %d outside [1, %d]", k, p, MaxHoliday)
		}
		if offsets[k] < 0 || offsets[k] >= p {
			return nil, fmt.Errorf("core: class %d has offset %d outside [0, %d)", k, offsets[k], p)
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
	members := make([]int, starts[len(periods)])
	for v, k := range class {
		if k >= 0 {
			members[starts[k]] = v
			starts[k]++
		}
	}
	copy(starts[1:], starts)
	starts[0] = 0
	return &ClassSchedule{name: name, periods: periods, offsets: offsets, starts: starts, members: members, class: class}, nil
}

// Name implements Schedule.
func (cs *ClassSchedule) Name() string { return cs.name }

// Nodes returns the number of entities the schedule covers.
func (cs *ClassSchedule) Nodes() int { return len(cs.class) }

// RandomAccess implements Schedule: every answer is closed form.
func (cs *ClassSchedule) RandomAccess() bool { return true }

// HappySet implements Schedule.
func (cs *ClassSchedule) HappySet(t int64) []int { return cs.appendHappy(nil, t) }

// appendHappy appends the members of every class firing at t to dst, in
// increasing entity order.
func (cs *ClassSchedule) appendHappy(dst []int, t int64) []int {
	base, fired := len(dst), 0
	for k, p := range cs.periods {
		if t%p == cs.offsets[k] {
			dst = append(dst, cs.members[cs.starts[k]:cs.starts[k+1]]...)
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
	if v < 0 || v >= len(cs.class) || from > MaxHoliday || cs.class[v] < 0 {
		return 0
	}
	if from < 1 {
		from = 1
	}
	k := cs.class[v]
	p := cs.periods[k]
	return from + ((cs.offsets[k]-from)%p+p)%p
}

// classScratch is the working set of one Window or WindowBits call, pooled
// so that steady-state serving allocates none of it.
type classScratch struct {
	next   []int64  // per class: its next firing, counted from the block start
	fire   []int32  // per holiday of the block: the class firing, noClass or manyClasses
	merged []int    // the happy set of a holiday several classes share
	row    []uint64 // WindowBits' packed row
}

var classScratchPool = sync.Pool{New: func() any { return new(classScratch) }}

// Markers in classScratch.fire: no class fires, or several classes do.
const (
	noClass     = -1
	manyClasses = -2
)

// Window implements Schedule. It walks each class's progression through
// the window in windowBlock-sized blocks, marking the class that fires on
// each holiday, so its work is O(classes + span + output) wherever the
// window starts. On a holiday where one class fires, happy is that class's
// member list: the schedule's own storage, shared by every reader, with its
// capacity clipped so that an append by visit copies instead of writing
// into the next class. Where several classes fire, their members are
// merged in entity order into a scratch buffer.
func (cs *ClassSchedule) Window(from, to int64, visit func(t int64, happy []int)) {
	to = min(to, MaxHoliday)
	if from < 1 || to < from {
		return
	}
	sc := classScratchPool.Get().(*classScratch)
	defer classScratchPool.Put(sc)
	next := slices.Grow(sc.next[:0], len(cs.periods))[:len(cs.periods)]
	for k, p := range cs.periods {
		next[k] = ((cs.offsets[k]-from)%p + p) % p
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
			if cs.starts[k] == cs.starts[k+1] {
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
				visit(t, cs.members[cs.starts[k]:cs.starts[k+1]:cs.starts[k+1]])
			}
		}
	}
}

// WindowBits streams the window as word-packed happy bitmaps, one
// ⌈n/64⌉-word row per holiday — the rows the binary wire format
// (internal/wire) serializes. Each holiday's row is cleared and gets the
// member bits of the classes Window finds firing on it, so no per-class
// bitmap is stored. The row is only valid for the duration of visit.
func (cs *ClassSchedule) WindowBits(from, to int64, visit func(t int64, row graph.Bitset)) {
	sc := classScratchPool.Get().(*classScratch)
	defer classScratchPool.Put(sc)
	words := (len(cs.class) + 63) / 64
	sc.row = slices.Grow(sc.row[:0], words)[:words]
	row := graph.Bitset(sc.row)
	cs.Window(from, to, func(t int64, happy []int) {
		clear(row)
		for _, v := range happy {
			row.Set(v)
		}
		visit(t, row)
	})
}
