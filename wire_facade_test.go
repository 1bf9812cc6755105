// Facade-level differential proof of the binary wire format: for every
// algorithm the facade exposes, a window encoded as packed wire bitmaps and
// decoded again must reproduce the []int rows of Schedule.Window exactly —
// the same equivalence the JSON endpoints serve, at every alignment.
package holiday_test

import (
	"reflect"
	"sort"
	"testing"

	holiday "repro"
	"repro/internal/graph"
	"repro/internal/wire"
)

// encodeScheduleWindow renders one window of a schedule as a complete
// binary window-response frame: header first, then each holiday's Window
// row packed into one ⌈n/64⌉-word bitmap.
func encodeScheduleWindow(sched holiday.Schedule, n int, from, to int64) []byte {
	buf := wire.AppendWindowRespHeader(nil, n, from, int(to-from+1))
	row := graph.NewBitset(n)
	sched.Window(from, to, func(_ int64, happy []int) {
		row.Reset()
		for _, v := range happy {
			row.Set(v)
		}
		buf = row.AppendBytes(buf)
	})
	return buf
}

// TestWireWindowMatchesSchedule: encode → decode must equal Window replay
// across all algorithms × seeds × window alignments, so every algorithm's
// rows survive the packed wire format bit for bit.
func TestWireWindowMatchesSchedule(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnp":   graph.GNP(72, 0.07, 19),
		"star":  graph.Star(17),
		"cycle": graph.Cycle(31),
	}
	windows := [][2]int64{
		{1, 1},     // single first holiday
		{1, 52},    // a year from the epoch
		{2, 5},     // unaligned short window
		{37, 211},  // interior
		{509, 540}, // crosses the word and sharding scale
	}
	for gname, g := range graphs {
		for _, algo := range holiday.Algorithms() {
			for _, seed := range []uint64{1, 7} {
				sched, err := holiday.NewSchedule(g, algo, holiday.WithSeed(seed))
				if err != nil {
					t.Fatalf("%s/%s: %v", gname, algo, err)
				}
				for _, w := range windows {
					from, to := w[0], w[1]
					// Record the reference rows first: replay schedules hold
					// their cursor lock across the visit callback.
					// The bitmap is canonically sorted; some stateful
					// schedulers (greedy-mis) emit their []int rows in
					// discovery order, so compare as sets.
					var want [][]int
					sched.Window(from, to, func(_ int64, happy []int) {
						row := append([]int(nil), happy...)
						sort.Ints(row)
						want = append(want, row)
					})
					frame, rest, err := wire.Split(encodeScheduleWindow(sched, g.N(), from, to))
					if err != nil || len(rest) != 0 {
						t.Fatalf("%s/%s seed=%d [%d,%d]: framing: %v (%d rest)",
							gname, algo, seed, from, to, err, len(rest))
					}
					wr, err := frame.WindowResp()
					if err != nil {
						t.Fatalf("%s/%s seed=%d [%d,%d]: %v", gname, algo, seed, from, to, err)
					}
					if wr.N != g.N() || wr.From != from || wr.Rows != len(want) {
						t.Fatalf("%s/%s seed=%d [%d,%d]: header n=%d from=%d rows=%d, want n=%d rows=%d",
							gname, algo, seed, from, to, wr.N, wr.From, wr.Rows, g.N(), len(want))
					}
					var happy []int
					for i := range want {
						if wr.Holiday(i) != from+int64(i) {
							t.Fatalf("%s/%s seed=%d: row %d is holiday %d, want %d",
								gname, algo, seed, i, wr.Holiday(i), from+int64(i))
						}
						happy = wr.AppendHappy(happy[:0], i)
						if len(happy) == 0 && len(want[i]) == 0 {
							continue
						}
						if !reflect.DeepEqual(happy, want[i]) {
							t.Fatalf("%s/%s seed=%d: holiday %d decoded %v, want %v",
								gname, algo, seed, from+int64(i), happy, want[i])
						}
					}
				}
			}
		}
	}
}
