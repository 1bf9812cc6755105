package core

import (
	"encoding/binary"
	"fmt"
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

// checkClassScheduleWith starts from a seeded class assignment of up to
// 4·classPage entities (four pages of the class index) and applies the
// moves ops select: an entity to another class (possibly its own), to no
// class, an appended entity, an appended class, an emptied class taking a
// new timing, and a move With must refuse. One op may put several moves in
// one With call. After each call the patched schedule must answer like
// NewClassSchedule over the same assignment, also after two siblings were
// derived from its parent; at the end every schedule of the chain must
// still answer as it did when it was made, so no patch wrote storage an
// earlier schedule shares.
func checkClassScheduleWith(t *testing.T, seed uint64, n16 uint16, classes8 uint8, ops []byte) {
	r := rand.New(rand.NewPCG(seed, 0xc0ffee))
	n, classes := int(n16%(4*classPage+1)), 1+int(classes8%12)
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
// assignments and move sequences. The seeds sit on the class index's page
// boundaries: one entity short of a page, whose second append (op 2) opens
// the next page, a full page, whose first append does, one past a page, one
// short of three pages, and no entities at all.
func FuzzClassScheduleWith(f *testing.F) {
	f.Add(uint64(1), uint16(40), uint8(3), []byte{0, 1, 2, 3, 4, 5, 0x10, 0x21, 0x32, 0x04})
	f.Add(uint64(2), uint16(classPage-1), uint8(7), []byte{2, 2, 0x22, 1, 1, 4, 4, 3, 0, 0x15, 0x20})
	f.Add(uint64(3), uint16(classPage), uint8(0), []byte{2, 2, 2, 3, 0x23, 1, 4, 0x14})
	f.Add(uint64(4), uint16(classPage+1), uint8(11), []byte{0, 1, 2, 2, 2, 0x20, 4, 5})
	f.Add(uint64(5), uint16(3*classPage-1), uint8(5), []byte{0, 0, 0x22, 1, 1, 4, 4, 3, 2, 2, 0x15, 0x20})
	f.Add(uint64(6), uint16(0), uint8(11), []byte{2, 1, 2, 2, 0x22, 4, 5})
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, classes uint8, ops []byte) {
		checkClassScheduleWith(t, seed, n, classes, ops)
	})
}

// BenchmarkClassScheduleWith patches one move into a schedule of n
// entities: 2,604, about the edge slots of holidaybench's poly-gnp-m
// community, and 500,000, a community at mega scale. The entities fall in
// 32 classes at random, one in eight in none, and each move is one a poly
// edit makes: an entity in a class to none, or one in none to a class.
// Every move patches the same base schedule. B/op is what one move copies:
// a page of the class index, the table of pages, the table of member lists
// and the member list of the class the entity leaves or joins.
func BenchmarkClassScheduleWith(b *testing.B) {
	const classes = 32
	for _, n := range []int{2604, 500000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rand.New(rand.NewPCG(uint64(n), 1))
			periods, offsets := make([]int64, classes), make([]int64, classes)
			for k := range classes {
				periods[k], offsets[k] = randomTiming(r)
			}
			class := make([]int32, n)
			for v := range class {
				class[v] = -1
				if r.IntN(8) > 0 {
					class[v] = int32(r.IntN(classes))
				}
			}
			cs, err := NewClassSchedule("bench", periods, offsets, class)
			if err != nil {
				b.Fatal(err)
			}
			moves := make([]Move, 1024)
			for i := range moves {
				v := r.IntN(n)
				moves[i] = Move{Entity: v, Class: -1}
				if k := cs.classOf(v); k < 0 {
					k = int32(r.IntN(classes))
					moves[i] = Move{Entity: v, Class: k, Period: cs.periods[k], Offset: cs.offsets[k]}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cs.With(moves[i%len(moves)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
