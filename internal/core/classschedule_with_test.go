package core

import (
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/graph"
)

// classAnswers encodes everything cs answers over a few windows — Window
// rows, WindowBits words, HappySet, and NextHappy of every entity and of
// the ids just outside the range — so equal strings mean byte-identical
// answers.
func classAnswers(cs *ClassSchedule) string {
	b := binary.AppendVarint(nil, int64(cs.Nodes()))
	for _, w := range [][2]int64{{1, 64}, {windowBlock - 4, windowBlock + 4}, {MaxHoliday - 4, MaxHoliday}} {
		cs.Window(w[0], w[1], func(t int64, happy []int) {
			b = binary.AppendVarint(binary.AppendVarint(b, t), int64(len(happy)))
			for _, v := range happy {
				b = binary.AppendVarint(b, int64(v))
			}
		})
		cs.WindowBits(w[0], w[1], func(t int64, row graph.Bitset) {
			b = binary.AppendVarint(b, t)
			for _, w := range row {
				b = binary.AppendUvarint(b, w)
			}
		})
	}
	for _, t := range []int64{0, 1, 2, 3, 64, 1000, MaxHoliday} {
		happy := cs.HappySet(t)
		b = binary.AppendVarint(b, int64(len(happy)))
		for _, v := range happy {
			b = binary.AppendVarint(b, int64(v))
		}
	}
	for v := -1; v <= cs.Nodes(); v++ {
		for _, from := range []int64{0, 1, 77, MaxHoliday - 5} {
			b = binary.AppendVarint(b, cs.NextHappy(v, from))
		}
	}
	return string(b)
}

// classModel is the assignment a chain of patched schedules should hold.
type classModel struct {
	periods, offsets []int64
	class            []int32
	size             []int // members per class
}

// fresh freezes the model with NewClassSchedule, the reference a patched
// schedule must answer like.
func (m *classModel) fresh(t *testing.T) *ClassSchedule {
	t.Helper()
	cs, err := NewClassSchedule("m", slices.Clone(m.periods), slices.Clone(m.offsets), slices.Clone(m.class))
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// apply records a move With accepted.
func (m *classModel) apply(mv Move) {
	if int(mv.Class) == len(m.periods) {
		m.periods, m.offsets, m.size = append(m.periods, mv.Period), append(m.offsets, mv.Offset), append(m.size, 0)
	}
	if mv.Entity == len(m.class) {
		m.class = append(m.class, -1)
	}
	if old := m.class[mv.Entity]; old >= 0 {
		m.size[old]--
	}
	if mv.Class >= 0 {
		if m.size[mv.Class] == 0 {
			m.periods[mv.Class], m.offsets[mv.Class] = mv.Period, mv.Offset
		}
		m.size[mv.Class]++
	}
	m.class[mv.Entity] = mv.Class
}

// randomTiming draws a period of at most 64 holidays and an offset in it.
func randomTiming(r *rand.Rand) (period, offset int64) {
	period = int64(1) << r.IntN(7)
	return period, r.Int64N(period)
}

// checkClassScheduleWith starts from a seeded class assignment of up to 599
// entities (three pages of the class index) and applies the moves ops
// select: an entity to another class (possibly its own), to no class, an
// appended entity, an appended class, an emptied class taking a new
// timing, and a move With must refuse. One op may put several moves in
// one With call. After each call the patched schedule must answer like
// NewClassSchedule over the same assignment, also after two siblings were
// derived from its parent; at the end every schedule of the chain must
// still answer as it did when it was made, so no patch wrote storage an
// earlier schedule shares.
func checkClassScheduleWith(t *testing.T, seed uint64, n16 uint16, classes8 uint8, ops []byte) {
	r := rand.New(rand.NewPCG(seed, 0xc0ffee))
	n, classes := int(n16%600), 1+int(classes8%12)
	m := &classModel{size: make([]int, classes)}
	for range classes {
		p, o := randomTiming(r)
		m.periods, m.offsets = append(m.periods, p), append(m.offsets, o)
	}
	for range n {
		k := int32(r.IntN(classes+1)) - 1
		m.class = append(m.class, k)
		if k >= 0 {
			m.size[k]++
		}
	}
	cs := m.fresh(t)
	chain, answers := []*ClassSchedule{cs}, []string{classAnswers(cs)}
	if len(ops) > 48 {
		ops = ops[:48]
	}
	for step, op := range ops {
		var moves []Move
		for range 1 + int(op>>4)%3 {
			mv, ok := randomMove(r, m, op%6)
			if !ok {
				// A move With must refuse: a class with members at another
				// timing. The schedule stays as it was.
				if _, err := cs.With(append(moves, mv)...); err == nil {
					t.Fatalf("step %d: With accepted %+v into a class firing at %d mod %d",
						step, mv, m.offsets[mv.Class], m.periods[mv.Class])
				}
				continue
			}
			moves = append(moves, mv)
			m.apply(mv)
		}
		next, err := cs.With(moves...)
		if err != nil {
			t.Fatalf("step %d: With(%+v): %v", step, moves, err)
		}
		// Siblings that append to the parent must not reach into next.
		if _, err := cs.With(Move{Entity: cs.Nodes(), Class: -1}); err != nil {
			t.Fatal(err)
		}
		if _, err := cs.With(Move{Entity: cs.Nodes(), Class: int32(cs.Classes()), Period: 1}); err != nil {
			t.Fatal(err)
		}
		got, want := classAnswers(next), classAnswers(m.fresh(t))
		if got != want {
			t.Fatalf("step %d: after With(%+v) the schedule answers unlike a fresh one", step, moves)
		}
		cs = next
		chain, answers = append(chain, cs), append(answers, got)
	}
	for i, s := range chain {
		if got := classAnswers(s); got != answers[i] {
			t.Fatalf("schedule %d of the chain changed after later patches", i)
		}
	}
}

// randomMove draws a move of the given kind over the model, or a move With
// must refuse, reported by ok = false.
func randomMove(r *rand.Rand, m *classModel, kind byte) (mv Move, ok bool) {
	n, classes := len(m.class), len(m.periods)
	mv.Entity = n
	if n > 0 && kind != 2 {
		mv.Entity = r.IntN(n)
	}
	to := func(k int) Move {
		mv.Class, mv.Period, mv.Offset = int32(k), m.periods[k], m.offsets[k]
		return mv
	}
	switch kind {
	case 0, 2: // to another class, or an appended entity to some class
		if classes > 0 {
			return to(r.IntN(classes)), true
		}
	case 1: // to no class
		mv.Class = -1
		return mv, true
	case 4: // an empty class takes a new timing
		for k := range classes {
			if m.size[k] == 0 || m.size[k] == 1 && m.class[mv.Entity] == int32(k) {
				mv.Class = int32(k)
				mv.Period, mv.Offset = randomTiming(r)
				if m.size[k] == 1 {
					// Its one member is the entity moved: keep the timing.
					mv.Period, mv.Offset = m.periods[k], m.offsets[k]
				}
				return mv, true
			}
		}
	case 5: // a class with members at another timing: refused
		for k := range classes {
			if m.size[k] > 0 && m.periods[k] < 64 {
				mv = to(k)
				mv.Period *= 2
				return mv, false
			}
		}
	}
	// Kind 3, and the kinds above where they do not apply: an appended
	// class.
	mv.Class = int32(classes)
	mv.Period, mv.Offset = randomTiming(r)
	return mv, true
}

// FuzzClassScheduleWith drives checkClassScheduleWith with fuzzed
// assignments and move sequences.
func FuzzClassScheduleWith(f *testing.F) {
	f.Add(uint64(1), uint16(40), uint8(3), []byte{0, 1, 2, 3, 4, 5, 0x10, 0x21, 0x32, 0x04})
	f.Add(uint64(2), uint16(599), uint8(7), []byte{0, 0, 0x22, 1, 1, 4, 4, 3, 2, 2, 0x15, 0x20})
	f.Add(uint64(3), uint16(256), uint8(0), []byte{2, 2, 2, 3, 0x23, 1, 4, 0x14})
	f.Add(uint64(4), uint16(0), uint8(11), []byte{0, 1, 2, 2, 2, 0x20, 4, 5})
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, classes uint8, ops []byte) {
		checkClassScheduleWith(t, seed, n, classes, ops)
	})
}
