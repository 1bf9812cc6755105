package service

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestAppendWindowEmptyHolidayMarshalsArray: holidays nobody hosts must
// marshal "happy":[] — never null — whether the row slot is fresh or
// pooled/reused (the wire format must not depend on pool history).
func TestAppendWindowEmptyHolidayMarshalsArray(t *testing.T) {
	reg := New(Opts{})
	// A triangle has colors {1,2,3} → periods up to 8; some holidays in
	// [1,8] have an empty happy set.
	c, err := reg.Create("c", 3, [][2]int{{0, 1}, {1, 2}, {0, 2}}, "")
	if err != nil {
		t.Fatal(err)
	}
	check := func(rows []HolidayRow) {
		t.Helper()
		sawEmpty := false
		for _, r := range rows {
			if len(r.Happy) == 0 {
				sawEmpty = true
				if r.Happy == nil {
					t.Fatalf("holiday %d has nil Happy", r.Holiday)
				}
			}
		}
		if !sawEmpty {
			t.Fatal("window had no empty holiday; widen the test window")
		}
		data, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), "null") {
			t.Fatalf("marshaled window contains null: %s", data)
		}
	}
	rows, err := c.AppendWindow(nil, 1, 8) // fresh slots
	if err != nil {
		t.Fatal(err)
	}
	check(rows)
	rows, err = c.AppendWindow(rows[:0], 1, 8) // reused slots
	if err != nil {
		t.Fatal(err)
	}
	check(rows)
}

// TestAppendWindowMatchesWindow: the reusing path returns exactly the rows
// of the allocating path, appended after any existing prefix.
func TestAppendWindowMatchesWindow(t *testing.T) {
	reg := New(Opts{})
	c, err := reg.Create("c", 12, ringEdges(12), "")
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Window(5, 30)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []HolidayRow{{Holiday: -1, Happy: []int{99}}}
	got, err := c.AppendWindow(prefix, 5, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(prefix)+len(want) {
		t.Fatalf("appended %d rows, want %d after prefix", len(got)-len(prefix), len(want))
	}
	if got[0].Holiday != -1 || len(got[0].Happy) != 1 || got[0].Happy[0] != 99 {
		t.Fatalf("prefix row clobbered: %+v", got[0])
	}
	if !reflect.DeepEqual(got[1:], want) {
		t.Fatalf("AppendWindow rows differ from Window:\n got %v\nwant %v", got[1:], want)
	}
}

// TestAppendWindowReusesBuffers: handing the previous response back reuses
// the row slice and the happy-set backing arrays — the steady state the
// HTTP handler and the load generator rely on for allocation-free serving —
// for classic and poly communities alike.
func TestAppendWindowReusesBuffers(t *testing.T) {
	reg := New(Opts{})
	if _, err := reg.Create("c", 16, ringEdges(16), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.CreateSpec(CreateSpec{ID: "p", Kind: KindPoly, Families: 16, Edges: ringEdges(16), DefaultDemand: 2}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"c", "p"} {
		c, _ := reg.Get(id)
		rows, err := c.AppendWindow(nil, 1, 40)
		if err != nil {
			t.Fatal(err)
		}
		rowsPtr := unsafe.SliceData(rows)
		happyPtr := unsafe.SliceData(rows[0].Happy)
		if len(rows[0].Happy) == 0 {
			t.Fatalf("%s: first row has no happy entities; pick a denser window", id)
		}
		again, err := c.AppendWindow(rows[:0], 1, 40)
		if err != nil {
			t.Fatal(err)
		}
		if unsafe.SliceData(again) != rowsPtr {
			t.Errorf("%s: row slice was reallocated on reuse", id)
		}
		if unsafe.SliceData(again[0].Happy) != happyPtr {
			t.Errorf("%s: happy backing array was reallocated on reuse", id)
		}
		// Validation failures must not lose the caller's buffer.
		kept, err := c.AppendWindow(again[:0], 0, 10)
		if err == nil {
			t.Fatal("want error for from < 1")
		}
		if cap(kept) != cap(again) {
			t.Errorf("%s: failed query dropped the reusable buffer", id)
		}

		if raceEnabled {
			continue // sync.Pool drops items under the race detector
		}
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			rows, err = c.AppendWindow(rows[:0], 1, 40)
			if err != nil {
				t.Fatal(err)
			}
		})
		// Steady-state window serving allocates no row or scratch buffers;
		// at most the visit closure and its captured variable cell (~50
		// bytes) remain, down from one slice per holiday row.
		if allocs > 2 {
			t.Errorf("%s: steady-state AppendWindow allocates %.1f/op, want ≤ 2", id, allocs)
		}
	}
}

// TestNextHappyValidation: the single-lock fast path still rejects unknown
// families and out-of-range holidays.
func TestNextHappyValidation(t *testing.T) {
	reg := New(Opts{})
	c, err := reg.Create("c", 8, ringEdges(8), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.NextHappy(-1, 1); err == nil {
		t.Error("want error for negative family")
	}
	if _, err := c.NextHappy(8, 1); err == nil {
		t.Error("want error for family beyond community")
	}
	next, err := c.NextHappy(3, 1)
	if err != nil || next < 1 {
		t.Fatalf("NextHappy(3,1) = %d, %v", next, err)
	}
	// A family added after the snapshot is queryable: AddFamily invalidates
	// the cache, so the next query freezes a snapshot that covers it.
	id, err := c.AddFamily()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.NextHappy(id, 1); err != nil {
		t.Errorf("new family %d not servable: %v", id, err)
	}
}
